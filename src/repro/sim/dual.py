"""Dual-sparsity scheduling: the seven-step pipeline of Figure 3.

Supporting sparsity in both matrices composes the two single-sparse
mechanisms:

1. **Preprocess B** offline with the ``(db1, db2, db3)`` distances into a
   compressed schedule plus metadata (steps 1 of Fig. 3).
2. **Filter** the on-the-fly A zero mask through that schedule: an operation
   survives only if the B element occupying the compressed slot is matched
   by a nonzero A element at the *original* B coordinates (steps 2-3).
3. **Arbitrate and select** the surviving pairs on the fly with the
   ``(da1, da2, da3)`` distances over the compressed time axis (steps 4-7).

The ABUF reach of the composed design spans ``(1+da1)`` compressed steps,
each covering up to ``(1+db1)`` original positions -- hence the paper's ABUF
depth ``L = (1+da1)(1+db1)`` and the combined ideal speedup cap of ``L``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ArchConfig
from repro.sim.compaction import compact_schedule_batch, unpack_schedule


@dataclass(frozen=True)
class DualResult:
    """Cycle outcome of a dual-sparse tile."""

    cycles: int
    b_schedule_len: int
    executed_pairs: int
    borrowed_ops: int


def filtered_pair_masks(
    pairs: "list[tuple[np.ndarray, np.ndarray]]", config: ArchConfig
) -> list[tuple[np.ndarray, int]]:
    """Build each tile's per-PE effectual-pair mask over B's compressed schedule.

    Args:
        pairs: ``(a_mask, b_mask)`` per tile: the activation nonzero mask
            ``[T, L, M]`` (identical for every output column) and the weight
            nonzero mask ``[T, L, N]`` (identical for every output row).
            All tiles share ``(L, M, N)``; depths ``T`` may differ.
        config: architecture providing the ``db`` distances.

    Returns:
        ``(pair_mask, schedule_len)`` per tile, where ``pair_mask`` has
        shape ``[U, L, M, N]``: slot ``(l, m, n)`` at compressed step ``u``
        is effectual iff the B element scheduled there is paired with a
        nonzero A element.  All B schedules are recorded in one call to
        the scheduler.
    """
    for a_mask, b_mask in pairs:
        if b_mask.shape[:2] != a_mask.shape[:2]:
            raise ValueError(
                f"A {a_mask.shape} and B {b_mask.shape} masks disagree on (T, L)"
            )
    b_results = compact_schedule_batch(
        [b_mask[:, :, :, np.newaxis] for _, b_mask in pairs],
        *config.b.as_tuple(),
        return_schedule=True,
    )
    filtered = []
    for (a_mask, b_mask), b_result in zip(pairs, b_results):
        t_steps, lanes, m_dim = a_mask.shape
        n_dim = b_mask.shape[2]
        schedule = b_result.schedule.reshape(-1, lanes * n_dim)
        t_orig, l_orig, _, _ = unpack_schedule(schedule, (t_steps, lanes, n_dim, 1))
        # Slot layout of the B schedule is (lane, n); look the paired A
        # element up at B's original (t, lane) coordinates for every output
        # row m.
        occupied = t_orig >= 0
        t_safe = np.where(occupied, t_orig, 0)
        l_safe = np.where(occupied, l_orig, 0)
        paired = a_mask[t_safe, l_safe]  # [U, L*N slots, M]
        paired &= occupied[:, :, np.newaxis]
        pair_mask = paired.reshape(-1, lanes, n_dim, m_dim).transpose(0, 1, 3, 2)
        # The B drain tail (trailing zero slices streaming at window rate)
        # still occupies compressed steps with no work in them -- every
        # step, for an all-zero B.
        tail = np.zeros(
            (b_result.cycles - len(pair_mask),) + pair_mask.shape[1:], dtype=bool
        )
        filtered.append((np.concatenate([pair_mask, tail]), b_result.cycles))
    return filtered


def dual_sparse_cycles(
    a_mask: np.ndarray, b_mask: np.ndarray, config: ArchConfig
) -> DualResult:
    """Cycles to execute one dual-sparse tile under ``config``.

    The A-side compaction runs over the compressed time axis with the
    ``da`` distances: lane lookaside along ``L`` and neighbour borrowing
    along the output-row axis ``M`` (each output column ``n`` keeps its own
    stream; there is no ``da``-borrowing across columns).  This is
    :func:`dual_sparse_cycles_batch` over a batch of one.
    """
    return dual_sparse_cycles_batch([(a_mask, b_mask)], config)[0]


def dual_sparse_cycles_batch(
    pairs: "list[tuple[np.ndarray, np.ndarray]]", config: ArchConfig
) -> list[DualResult]:
    """:func:`dual_sparse_cycles` over a batch of same-geometry tiles.

    Both scheduling phases run once for the whole batch: the B
    preprocessing records every tile's schedule in one call, and the
    on-the-fly A side schedules the ``[U, L, M, N]`` pair masks (whose
    compressed depths ``U`` may differ per tile) in another.
    """
    filtered = filtered_pair_masks(pairs, config)
    a_results = compact_schedule_batch(
        [pair_mask for pair_mask, _ in filtered], *config.a.as_tuple()
    )
    return [
        DualResult(
            cycles=res.cycles,
            b_schedule_len=b_len,
            executed_pairs=res.executed_ops,
            borrowed_ops=res.borrowed_ops,
        )
        for res, (_, b_len) in zip(a_results, filtered)
    ]
