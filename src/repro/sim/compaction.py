"""Greedy windowed borrow-scheduling of blocked nonzero masks.

This kernel is the performance heart of the reproduction.  A GEMM tile is
blocked per Figure 1 into ``T`` time steps (K/K0 slices), ``L`` lanes (the
positions of the K0-wide dot-product unit), and a PE axis.  An effectual
operation at ``(t, l, c)`` may be *borrowed*: executed early by up to ``d1``
time steps, by a slot up to ``d2`` lanes away, or by a PE up to ``d3``
positions away (Definitions III.1 / III.2).

Execution semantics:

* Every slot -- one lane ``l`` of the dot-product unit at ``(c1, c2)`` --
  follows its own compressed stream with its own *front pointer*; the
  window of reachable positions is ``[f, f + d1]`` and ``f`` advances by
  at most ``1 + d1`` per cycle (the buffer refill rate), which caps the
  ideal speedup at ``1 + d1`` exactly as the paper states for ``db1``.
  Fronts drift apart freely, even between the lanes of one unit: the
  provisioned ABUF/BBUF are assumed to absorb the drift, and their
  overflow is not modeled (the engine charges SRAM and DRAM stalls only).
  The ``front_mode`` ablations share fronts instead: ``"unit"`` gives the
  ``L`` lanes of a dot-product unit one front, ``"tile"`` gives the whole
  tile one.
* Each output cycle every slot executes at most one remaining effectual op:
  first from its own stream (earliest first), otherwise from a donor stream
  at lane offset ``1..d2`` (wrapping inside the dot-product unit) and/or PE
  offset ``1..d3``, in increasing-distance priority -- the same priority
  mechanism as Bit-Tactical, which the paper adopts.  Donor reach is
  evaluated against the *donor's* front.
* Conflicting claims in a cycle are arbitrated in offset-priority rounds
  (one claim per donor stream per round), in slot order within a round --
  modeling a fixed-priority arbiter.
* A stream is done when all its effectual ops have executed *and* its
  front has drained past ``T`` (trailing zero slices still stream at
  window rate); the tile ends when the slowest stream finishes.

Masks are 4-D ``[T, L, C1, C2]``: lane borrowing (``d2``) acts along ``L``,
PE borrowing (``d3``) along ``C1``, and ``C2`` indexes independent slot
groups with no borrowing between them (used by the dual-sparse second phase,
where ``C1`` is the output-row axis and ``C2`` the output-column axis).

Two scheduler paths share these semantics exactly: one closed form and
one cycle loop.  Both schedule a batch of same-geometry tiles of any
depths side by side as one problem (:func:`compact_schedule` is a batch
of one), and can record each tile's schedule.  With per-stream fronts and
no donor offsets (``d2 == d3 == 0``) the streams are independent, and one
call of a closed-form per-stream recurrence replaces the cycle loop.
Everything else takes one vectorized cycle loop, which runs the batch as
a block-diagonal problem, with exact idle-cycle skip-ahead and donor-side
claim resolution through cached, batch-wide inverse offset maps (each
offset is an injective coordinate shift, so a donor has at most one
claimant per round and needs no arbitration).  The ``unit``/``tile``
ablation modes run inside that loop as shared fronts: each stream takes
its group's minimum front after every front update.  A pure-Python
element-by-element oracle, ``tests/compaction_oracle.py``, pins both
paths in every mode cycle for cycle and schedule for schedule
(``tests/test_compaction_properties.py``), next to the golden fixtures in
``tests/test_engine_golden.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_INF = np.iinfo(np.int64).max // 2


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of scheduling one tile.

    ``cycles`` counts every output cycle including the trailing drain of the
    slowest stream.  ``busy_cycles`` counts cycles in which at least one op
    executed.  ``schedule`` (optional) maps ``[cycle, slot] -> flat original
    index`` into the ``(T, L, C1, C2)`` mask (or -1 for an idle slot); it
    stops at the last cycle that executed work.  ``borrowed_ops`` counts ops
    executed by a slot other than their own.
    """

    cycles: int
    busy_cycles: int
    executed_ops: int
    borrowed_ops: int
    schedule: np.ndarray | None = None

    @property
    def occupancy(self) -> float:
        """Executed ops per slot-cycle over the whole tile (utilization)."""
        if self.cycles == 0:
            return 0.0
        return self.executed_ops / self.cycles


@lru_cache(maxsize=None)
def _offset_priority(d2: int, d3: int) -> tuple[tuple[int, int], ...]:
    """Donor offsets (excluding the own stream) in borrowing priority order."""
    offsets = [
        (dd2, dd3)
        for dd2 in range(d2 + 1)
        for dd3 in range(d3 + 1)
        if (dd2, dd3) != (0, 0)
    ]
    offsets.sort(key=lambda o: (o[0] + o[1], o[0], o[1]))
    return tuple(offsets)


@lru_cache(maxsize=512)
def _donor_maps(
    lanes: int, c1: int, c2: int, d2: int, d3: int, lane_wrap: bool, n_tiles: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per-offset donor wiring: ``(donor, valid, inv, inv_valid)`` per slot
    of ``n_tiles`` tiles side by side (tiles never borrow from each other).

    ``donor[r]`` is the stream slot ``r`` borrows from this round (0 where
    out of range -- gate with ``valid``); ``inv[d]`` is the *receiver* that
    would borrow from donor ``d`` (0 where none -- gate with ``inv_valid``).
    Each offset is a coordinate shift, so the donor map is injective: a
    donor can be claimed by at most one receiver per round, which is why
    the scheduler needs no claim arbitration and the inverse map is a plain
    array.  Pure function of the tile geometry and distances, memoized
    across calls -- the engine schedules thousands of same-shaped tiles per
    sweep.  The cached arrays are read-only by contract.
    """
    n_groups = c1 * c2
    n_slots = lanes * n_groups
    slot_ids = np.arange(n_slots)
    lane_of = slot_ids // n_groups
    c1_of = (slot_ids // c2) % c1
    c2_of = slot_ids % c2
    maps = []
    for dd2, dd3 in _offset_priority(d2, d3):
        donor_lane = (lane_of + dd2) % lanes if lane_wrap else lane_of + dd2
        donor_c1 = c1_of + dd3
        valid = (donor_lane < lanes) & (donor_c1 < c1)
        donor = np.where(valid, donor_lane * n_groups + donor_c1 * c2 + c2_of, 0)
        inv = np.zeros(n_slots, dtype=np.int64)
        inv_valid = np.zeros(n_slots, dtype=bool)
        inv[donor[valid]] = slot_ids[valid]
        inv_valid[donor[valid]] = True
        offs = np.repeat(np.arange(n_tiles, dtype=np.int64) * n_slots, n_slots)
        donor, valid = np.tile(donor, n_tiles) + offs, np.tile(valid, n_tiles)
        inv, inv_valid = np.tile(inv, n_tiles) + offs, np.tile(inv_valid, n_tiles)
        maps.append((donor, valid, inv, inv_valid))
    return tuple(maps)


def _check_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim == 3:
        mask = mask[:, :, :, np.newaxis]
    if mask.ndim != 4:
        raise ValueError(f"mask must be 3-D or 4-D [T, L, C1(, C2)], got shape {mask.shape}")
    return mask.astype(bool, copy=False)


def _stack(
    masks: list[np.ndarray], n_slots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(depths, positions, counts, total_ops)`` of a batch's tiles side
    by side: stream ``b * n_slots + s`` is slot ``s`` of tile ``b``, and
    ``positions[s, r]`` its r-th effectual time step (``_INF`` past its
    last).  ``np.nonzero`` on the transpose yields (stream-major,
    time-ascending) order, and each rank is pure arithmetic (no lexsort)."""
    t_arr = np.array([m.shape[0] for m in masks], dtype=np.int64)
    total_slots = len(masks) * n_slots
    flat = np.zeros((int(t_arr.max()), len(masks), n_slots), dtype=bool)
    for b, m in enumerate(masks):
        flat[: m.shape[0], b] = m.reshape(m.shape[0], n_slots)
    flat = flat.reshape(len(flat), total_slots)
    counts = flat.sum(axis=0)
    total_ops = int(counts.sum())
    positions = np.full((total_slots, int(counts.max()) + 1), _INF, dtype=np.int64)
    if total_ops:
        s_sorted, t_sorted = np.nonzero(flat.T)
        starts = np.cumsum(counts) - counts
        rank = np.arange(total_ops) - np.repeat(starts, counts)
        positions[s_sorted, rank] = t_sorted
    return t_arr, positions, counts, total_ops


def _schedule_no_borrowing_batch(
    masks: list[np.ndarray], n_slots: int, d1: int, record: bool
) -> list[CompactionResult]:
    """Closed-form scheduling for ``d2 == d3 == 0`` with per-stream fronts.

    With no donor offsets the streams are fully independent, so the cycle
    loop collapses to a recurrence over each stream's op ranks, evaluated
    vectorized across the streams of every tile of the batch at once.
    With window ``w = 1 + d1``, the op of rank ``r`` at position ``p_r``
    executes at

        ``c_r = c_{r-1} + 1 + k_r``,  ``k_r = max(0, ceil((p_r - d1 - g_{r-1}) / w))``

    where ``g_r`` is the front right after the cycle that executed rank
    ``r``.  The front advances one window per cycle but caps at the next
    unexecuted position (the cycle loop's ``min(earliest, front + w)``):

        ``g_r = min(p_{r+1}, min(p_r, g_{r-1} + k_r * w) + w)``

    Dropping the inner cap undercounts whenever a long gap follows a dense
    prefix -- the front is *held* at the gap's start, it does not free-run.
    After a stream's last op its front does free-run at ``w`` per cycle, so
    the drain tail folds into ``c_s + ceil((T - g_s) / w)`` per stream,
    against its own tile's ``T``.

    Streams are ordered by op count, most first, so the streams still
    active at rank ``r`` are a prefix and each step works on views; busy
    cycles and schedules are scattered from every op's cycle at the end.
    """
    n_tiles = len(masks)
    window = 1 + d1
    t_arr, positions, counts, _ = _stack(masks, n_slots)
    total_slots = n_tiles * n_slots
    max_nnz = positions.shape[1] - 1
    order = np.argsort(-counts, kind="stable")
    ranked = positions[order].T.copy()  # [rank, stream by op count]
    active = total_slots - np.cumsum(np.bincount(counts, minlength=max_nnz + 1))
    cycles_of, fronts = np.zeros((2, total_slots), dtype=np.int64)
    executed_at = np.zeros((max_nnz, total_slots), dtype=np.int64)
    for r in range(max_nnz):
        k = active[r]
        pos, front, cyc = ranked[r, :k], fronts[:k], cycles_of[:k]
        # neg = -k_r: min(0, floor((g + d1 - p) / w)).
        neg = front + d1
        neg -= pos
        neg //= window
        np.minimum(neg, 0, out=neg)
        cyc += 1
        cyc -= neg
        executed_at[r, :k] = cyc
        neg *= window
        front -= neg
        np.minimum(front, pos, out=front)
        front += window
        np.minimum(front, ranked[r + 1, :k], out=front)

    # Back to stream order, one row of streams per tile.
    back = np.empty((2, total_slots), dtype=np.int64)
    back[:, order] = cycles_of, fronts
    stream_cycles, stream_fronts = back.reshape(2, n_tiles, n_slots)
    tail = np.maximum(-((stream_fronts - t_arr[:, np.newaxis]) // window), 0)
    cycles = (stream_cycles + tail).max(axis=1)
    last = stream_cycles.max(axis=1)
    per_tile = counts.reshape(n_tiles, n_slots).sum(axis=1)
    rank, col = np.nonzero(np.arange(max_nnz)[:, np.newaxis] < counts[order])
    at = executed_at[rank, col]
    stream = order[col]
    # Execution cycles never exceed T (borrowing is never slower than
    # dense -- an invariant the property suite asserts for every draw), so
    # T-sized targets cover every cycle index.
    t_max = int(t_arr.max())
    busy = np.zeros((n_tiles, t_max + 1), dtype=bool)
    busy[stream // n_slots, at] = True
    schedules = None
    if record:
        schedules = np.full((t_max, total_slots), -1, dtype=np.int64)
        schedules[at - 1, stream] = ranked[rank, col] * n_slots + stream % n_slots
        schedules = schedules.reshape(t_max, n_tiles, n_slots)
    borrowed = np.zeros_like(per_tile)
    return _batch_results(cycles, busy.sum(axis=1), per_tile, borrowed, last, schedules)


def _batch_results(
    cycles, busy, ops, borrowed, last, schedules: np.ndarray | None
) -> list[CompactionResult]:
    """Per-tile results; a recorded ``schedules[cycle, tile, slot]`` stops at
    the tile's ``last`` busy cycle (1-D empty if the tile never executes)."""
    return [
        CompactionResult(
            int(cycles[b]), int(busy[b]), int(ops[b]), int(borrowed[b]),
            schedule=None if schedules is None else (
                schedules[: last[b], b].copy() if last[b] else np.array([], dtype=np.int64)
            ),
        )
        for b in range(len(cycles))
    ]


def compact_schedule(
    mask: np.ndarray,
    d1: int = 0,
    d2: int = 0,
    d3: int = 0,
    lane_wrap: bool = True,
    return_schedule: bool = False,
    front_mode: str = "stream",
) -> CompactionResult:
    """Schedule a tile mask under borrowing distances ``(d1, d2, d3)``.

    See the module docstring for the execution semantics.  This is a batch
    of one: with the default per-stream fronts, exactly
    :func:`compact_schedule_batch` over ``[mask]``.

    Args:
        mask: boolean effectual-op mask, shape ``[T, L, C1]`` or
            ``[T, L, C1, C2]``.
        d1: time lookahead (window depth ``1 + d1``).
        d2: lane lookaside distance (along ``L``).
        d3: neighbouring-PE distance (along ``C1``).
        lane_wrap: whether lane borrowing wraps around inside the
            dot-product unit (the rotation shuffler implies a ring).
        return_schedule: also record which original op each slot executed
            each cycle (needed by the dual-sparse preprocessing phase).
        front_mode: front-pointer granularity -- ``"stream"`` (the model),
            or the ``"unit"``/``"tile"`` ablation modes.

    Returns:
        A :class:`CompactionResult`.
    """
    return _schedule([mask], d1, d2, d3, lane_wrap, return_schedule, front_mode)[0]


def compact_schedule_batch(
    masks: "list[np.ndarray] | tuple[np.ndarray, ...]",
    d1: int = 0,
    d2: int = 0,
    d3: int = 0,
    lane_wrap: bool = True,
    return_schedule: bool = False,
) -> list[CompactionResult]:
    """Schedule a batch of same-geometry tile masks with per-stream fronts.

    Each result is exactly what the tile scheduled alone gives.  Masks must
    agree on ``(L, C1, C2)``; time depths may differ (each tile keeps its
    own drain horizon, cycle count and, with ``return_schedule``, a
    schedule that stops at its own last executing cycle).  The whole
    batch runs through one call of the closed form (no donor offsets) or
    of the cycle loop (donors), so a GEMM's sampled passes share every
    per-step numpy dispatch instead of paying it per tile.  Negative or
    non-integer distances raise :class:`ValueError`.
    """
    return _schedule(masks, d1, d2, d3, lane_wrap, return_schedule, "stream")


def _schedule(
    masks, d1, d2, d3, lane_wrap: bool, record: bool, front_mode: str
) -> list[CompactionResult]:
    """The one scheduler entry behind :func:`compact_schedule` and
    :func:`compact_schedule_batch`: checks the arguments (numpy integer
    distances are accepted), then runs the batch through the closed form
    or the cycle loop."""
    if front_mode not in ("stream", "unit", "tile"):
        raise ValueError(f"unknown front_mode {front_mode!r}")
    for name, value in (("d1", d1), ("d2", d2), ("d3", d3)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    d1, d2, d3 = int(d1), int(d2), int(d3)
    if not masks:
        return []
    checked = [_check_mask(m) for m in masks]
    lanes, c1, c2 = checked[0].shape[1:]
    for m in checked[1:]:
        if m.shape[1:] != (lanes, c1, c2):
            raise ValueError(
                f"batched masks must agree on (L, C1, C2): "
                f"{m.shape[1:]} vs {(lanes, c1, c2)}"
            )
    n_slots = lanes * c1 * c2
    if n_slots == 0:
        # No slots, so no cycles to run.  A recorded schedule with no
        # executing cycle is the 1-D empty array, as for every other tile
        # that never executes.
        return [
            CompactionResult(0, 0, 0, 0, np.array([], dtype=np.int64) if record else None)
            for _ in checked
        ]
    if front_mode == "stream" and d2 == 0 and d3 == 0:
        # The hot path for every schedule without lane/PE reach -- including
        # the Sparse.AB dense-weight downgrade and the dual-sparse B
        # preprocessing whenever db2 == db3 == 0.
        return _schedule_no_borrowing_batch(checked, n_slots, d1, record)
    group = {"stream": None, "unit": lanes, "tile": n_slots}[front_mode]
    return _schedule_borrowing_batch(
        checked, n_slots, d1,
        _donor_maps(lanes, c1, c2, d2, d3, lane_wrap, len(checked)),
        record, group,
    )


def _schedule_borrowing_batch(
    masks: list[np.ndarray],
    n_slots: int,
    d1: int,
    donor_maps: tuple,
    record: bool,
    group: int | None,
) -> list[CompactionResult]:
    """The cycle loop: every schedule with donors, and every ``unit`` or
    ``tile`` front-mode schedule (with or without donors).

    Fronts are held one per stream.  With ``group`` set, the streams of
    each unit (``group == L``) or of each whole tile (``group == L*C1*C2``)
    share one front: slot ``lane * C1*C2 + unit`` puts a tile's fronts in a
    ``[group, -1]`` view, and after each front update -- the per-cycle
    advance and the idle-cycle jump -- every stream takes its group's
    minimum.  That is exact: a shared front ``min(group earliest, f + w)``
    is the group minimum of the per-stream ``min(next_pos, f + w)``, and
    the idle jump's ``ceil`` is monotone.

    The tiles sit side by side as one ``n_tiles * n_slots``-stream problem
    with block-diagonal donor wiring (tiles never borrow across the batch).
    Every per-cycle quantity is computed over all streams at once (no
    boolean extraction), and donor claims are resolved on the *donor* side
    through the inverse offset maps: a donor donates exactly when it has a
    receiver, that receiver is idle, and the donor's next op sits inside
    its own window -- the same test as its phase-1 condition.  So a tile
    executes in a cycle only if it has phase-1 work there, and a cycle with
    no phase-1 work anywhere is idle everywhere: whole runs of such cycles
    are jumped in closed form (the ``min(earliest, f + w)`` front advance
    is absorbing under composition).

    The only per-tile bookkeeping in the loop is a copy of each busy
    cycle's phase-1 mask.  A tile's last busy cycle is where it would stop
    alone, its phase-1 counts give its borrowed ops, and once its work is
    done its fronts advance exactly one window per cycle, so its drain tail
    is recovered from the final fronts.
    """
    n_tiles = len(masks)
    window = 1 + d1
    t_arr, positions, counts, total_ops = _stack(masks, n_slots)
    total_slots = n_tiles * n_slots
    multi_round = len(donor_maps) > 1

    stride = positions.shape[1]
    pos_flat = positions.ravel()
    # ``idx`` fuses stream base offset and per-stream pointer, so every
    # pointer advance is one in-place add and every stream lookup is one
    # flat gather.  All cycle-frequency intermediates live in preallocated
    # buffers, and gathers call the array methods (not the ``np.take``
    # wrapper): the loop is dispatch-bound before it is compute-bound.
    idx = np.arange(total_slots, dtype=np.int64) * stride
    next_pos = pos_flat[idx]
    local = np.tile(np.arange(n_slots, dtype=np.int64), n_tiles)
    fronts = np.zeros(total_slots, dtype=np.int64)
    shared = None if group is None else fronts.reshape(n_tiles, group, -1)
    limit = np.empty(total_slots, dtype=np.int64)
    own = np.empty(total_slots, dtype=bool)
    recv_idle = np.empty(total_slots, dtype=bool)
    received = np.empty(total_slots, dtype=bool)
    scratch = np.empty(total_slots, dtype=bool)
    scratch2 = np.empty(total_slots, dtype=bool)

    own_log: list[np.ndarray] = []
    busy_at: list[int] = []
    rows: list[np.ndarray] = []
    cycles = 0
    executed = 0
    while executed < total_ops:
        np.add(fronts, d1, out=limit)
        np.less_equal(next_pos, limit, out=own)
        n_own = np.count_nonzero(own)
        if n_own == 0:
            # Jump to the next cycle any stream has window work.
            waiting = next_pos < _INF
            gap = (next_pos - d1 - fronts)[waiting]
            jump = int((-((-gap) // window)).min())
            cycles += jump
            fronts += jump * window
            np.minimum(next_pos, fronts, out=fronts)
            if shared is not None:
                shared[...] = shared.min(axis=1, keepdims=True)
            if record:
                rows.append(np.full((jump, total_slots), -1, dtype=np.int64))
            continue

        # Phase 1: every slot claims the earliest remaining op of its own
        # stream that lies inside its window.
        cycles += 1
        own_log.append(own.copy())
        busy_at.append(cycles)
        if record:
            row = np.where(own, next_pos * n_slots + local, np.int64(-1))
        executed += n_own
        idx += own
        pos_flat.take(idx, out=next_pos)
        np.logical_not(own, out=recv_idle)

        # Phase 2: one donor claim per offset round, judged against the
        # donor's own front and its post-phase-1 stream position.
        for donor, donor_valid, inv, inv_valid in donor_maps:
            recv_idle.take(inv, out=scratch)
            scratch &= inv_valid
            np.less_equal(next_pos, limit, out=scratch2)
            scratch &= scratch2  # scratch = donates
            n_d = np.count_nonzero(scratch)
            if n_d == 0:
                continue
            if record or multi_round:
                scratch.take(donor, out=received)
                received &= donor_valid
            if record:
                vals = (next_pos * n_slots + local).take(donor)
                row = np.where(received, vals, row)
            executed += n_d
            idx += scratch
            pos_flat.take(idx, out=next_pos)
            if multi_round:
                np.logical_not(received, out=scratch2)
                recv_idle &= scratch2
                if not recv_idle.any():
                    break

        if record:
            rows.append(row[np.newaxis, :])
        # Per-stream front advance: up to the earliest unexecuted op,
        # capped at one window of refill per cycle (fronts + window is
        # exactly limit + 1).
        limit += 1
        np.minimum(next_pos, limit, out=fronts)
        if shared is not None:
            shared[...] = shared.min(axis=1, keepdims=True)

    own_counts = np.array(own_log).reshape(-1, n_tiles, n_slots).sum(axis=2)
    busy = own_counts > 0
    last = np.max(
        busy * np.array(busy_at, dtype=np.int64)[:, np.newaxis], axis=0, initial=0
    )
    # Trailing drain: streams behind T keep streaming zero slices at window
    # rate; a tile ends when its slowest stream crosses its own T.
    slowest = fronts.reshape(n_tiles, n_slots).min(axis=1) - (cycles - last) * window
    tail = np.maximum(-((slowest - t_arr) // window), 0)
    per_tile = counts.reshape(n_tiles, n_slots).sum(axis=1)
    borrowed = per_tile - own_counts.sum(axis=0)
    schedules = None
    if record:
        rows.insert(0, np.empty((0, total_slots), dtype=np.int64))
        schedules = np.concatenate(rows).reshape(cycles, n_tiles, n_slots)
    return _batch_results(last + tail, busy.sum(axis=0), per_tile, borrowed, last, schedules)


def unpack_schedule(
    schedule: np.ndarray, shape: tuple[int, int, int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split flat schedule entries back into ``(t, l, c1, c2)`` coordinates.

    Entries of -1 (idle) map to coordinate -1 in every component.
    """
    t_steps, lanes, c1, c2 = shape
    n_slots = lanes * c1 * c2
    idle = schedule < 0
    t = schedule // n_slots
    stream = schedule % n_slots
    lane = stream // (c1 * c2)
    i1 = (stream // c2) % c1
    i2 = stream % c2
    for arr in (t, lane, i1, i2):
        arr[idle] = -1
    return t, lane, i1, i2
