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

Three scheduler paths share these semantics exactly.  With no donor
offsets (``d2 == d3 == 0``) the streams are independent and a closed-form
per-stream recurrence replaces the cycle loop.  With donors, one
vectorized cycle loop schedules a whole batch of same-geometry tiles as a
single block-diagonal problem, with exact idle-cycle skip-ahead and
donor-side claim resolution through the cached inverse offset maps (each
offset is an injective coordinate shift, so a donor can have at most one
claimant per round and no arbitration is ever needed);
:func:`compact_schedule` is its batch of one, and it can record each
tile's schedule.  The ``unit``/``tile`` front-granularity ablation modes
take a loop of their own.  A pure-Python element-by-element oracle,
``tests/compaction_oracle.py``, pins every path cycle for cycle and
schedule for schedule (``tests/test_compaction_properties.py``), next to
the golden fixtures in ``tests/test_engine_golden.py``.
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
    lanes: int, c1: int, c2: int, d2: int, d3: int, lane_wrap: bool
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per-offset donor wiring: ``(donor, valid, inv, inv_valid)`` per slot.

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
        maps.append((donor, valid, inv, inv_valid))
    return tuple(maps)


def _check_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim == 3:
        mask = mask[:, :, :, np.newaxis]
    if mask.ndim != 4:
        raise ValueError(f"mask must be 3-D or 4-D [T, L, C1(, C2)], got shape {mask.shape}")
    return mask.astype(bool, copy=False)


def _stream_positions(
    flat: np.ndarray, n_slots: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-stream sorted effectual positions, padded with ``_INF``.

    Returns ``(positions, counts, total_ops)`` where ``positions[s, r]`` is
    the r-th smallest time step carrying an effectual op in stream ``s``.
    ``np.nonzero`` on the transpose yields entries already in (stream-major,
    time-ascending) order, and each entry's rank within its stream is pure
    arithmetic -- no per-stream Python loop, no lexsort.
    """
    counts = flat.sum(axis=0)
    total_ops = int(counts.sum())
    max_nnz = int(counts.max()) if n_slots else 0
    positions = np.full((n_slots, max_nnz + 1), _INF, dtype=np.int64)
    if total_ops:
        s_sorted, t_sorted = np.nonzero(flat.T)
        starts = np.cumsum(counts) - counts
        rank = np.arange(total_ops) - np.repeat(starts, counts)
        positions[s_sorted, rank] = t_sorted
    return positions, counts, total_ops


def _schedule_no_borrowing(
    positions: np.ndarray,
    counts: np.ndarray,
    total_ops: int,
    t_steps: int,
    n_slots: int,
    d1: int,
    record: bool,
) -> CompactionResult:
    """Closed-form scheduling for ``d2 == d3 == 0`` with per-stream fronts.

    With no donor offsets the streams are fully independent, so the cycle
    loop collapses to a recurrence over each stream's op ranks, evaluated
    vectorized across streams.  With window ``w = 1 + d1``, the op of rank
    ``r`` at position ``p_r`` executes at

        ``c_r = c_{r-1} + 1 + k_r``,  ``k_r = max(0, ceil((p_r - d1 - g_{r-1}) / w))``

    where ``g_r`` is the front right after the cycle that executed rank
    ``r``.  The front advances one window per cycle but caps at the next
    unexecuted position (the cycle loop's ``min(earliest, front + w)``):

        ``g_r = min(p_{r+1}, min(p_r, g_{r-1} + k_r * w) + w)``

    Dropping the inner cap undercounts whenever a long gap follows a dense
    prefix -- the front is *held* at the gap's start, it does not free-run.
    After a stream's last op its front does free-run at ``w`` per cycle, so
    the drain tail folds into ``c_s + ceil((T - g_s) / w)`` per stream,
    bounded below by the globally last execution cycle.
    """
    window = 1 + d1
    cycles_of = np.zeros(n_slots, dtype=np.int64)
    fronts = np.zeros(n_slots, dtype=np.int64)
    max_nnz = positions.shape[1] - 1
    # Execution cycles never exceed T (borrowing is never slower than
    # dense -- an invariant the property suite asserts for every draw), so
    # T-sized scatter targets cover every cycle index.
    busy = np.zeros(t_steps + 1, dtype=bool)
    schedule = np.full((t_steps, n_slots), -1, dtype=np.int64) if record else None
    slot_ids = np.arange(n_slots)
    for r in range(max_nnz):
        active = counts > r
        pos = positions[:, r]
        wait = np.where(active, np.maximum(-((d1 + fronts - pos) // window), 0), 0)
        cycles_of = np.where(active, cycles_of + 1 + wait, cycles_of)
        held = np.minimum(pos, fronts + wait * window)
        fronts = np.where(active, np.minimum(positions[:, r + 1], held + window), fronts)
        act_slots = slot_ids[active]
        act_cycles = cycles_of[act_slots]
        busy[act_cycles] = True
        if record:
            schedule[act_cycles - 1, act_slots] = pos[act_slots] * n_slots + act_slots
    last_cycle = int(cycles_of.max()) if total_ops else 0
    drained = cycles_of + np.maximum(-((fronts - t_steps) // window), 0)
    cycles = max(last_cycle, int(drained.max()))
    if record:
        schedule = (
            schedule[:last_cycle] if last_cycle else np.array([], dtype=np.int64)
        )
    return CompactionResult(
        cycles=cycles,
        busy_cycles=int(busy.sum()),
        executed_ops=total_ops,
        borrowed_ops=0,
        schedule=schedule,
    )


def _idle_result(record: bool) -> CompactionResult:
    """A tile with no slots, so no cycles to run.

    A recorded schedule with no executing cycle is the 1-D empty array,
    as for every other tile that never executes.
    """
    return CompactionResult(
        0, 0, 0, 0, schedule=np.array([], dtype=np.int64) if record else None
    )


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

    See the module docstring for the execution semantics.  With the default
    per-stream fronts this is :func:`compact_schedule_batch` over a batch of
    one.

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
    if front_mode == "stream":
        return compact_schedule_batch(
            [mask], d1, d2, d3, lane_wrap=lane_wrap, return_schedule=return_schedule
        )[0]
    if front_mode not in ("unit", "tile"):
        raise ValueError(f"unknown front_mode {front_mode!r}")
    mask = _check_mask(mask)
    t_steps, lanes, c1, c2 = mask.shape
    n_groups = c1 * c2
    n_slots = lanes * n_groups
    if n_slots == 0:
        return _idle_result(return_schedule)
    positions, _, total_ops = _stream_positions(mask.reshape(t_steps, n_slots), n_slots)
    return _schedule_borrowing_grouped(
        positions, total_ops, t_steps, n_slots, n_groups, d1,
        _donor_maps(lanes, c1, c2, d2, d3, lane_wrap), front_mode, return_schedule,
    )


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
    schedule that stops at its own last executing cycle).  Without donor
    offsets every tile takes the closed form; with them the whole batch
    runs through one cycle loop, so a GEMM's sampled passes share every
    per-cycle numpy dispatch instead of paying it per tile.
    """
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
        return [_idle_result(return_schedule) for _ in checked]
    if d2 == 0 and d3 == 0:
        # The hot path for every schedule without lane/PE reach -- including
        # the Sparse.AB dense-weight downgrade and the dual-sparse B
        # preprocessing whenever db2 == db3 == 0.
        return [
            _schedule_no_borrowing(
                *_stream_positions(m.reshape(m.shape[0], n_slots), n_slots),
                m.shape[0], n_slots, d1, return_schedule,
            )
            for m in checked
        ]
    return _schedule_borrowing_batch(
        checked, n_slots, d1, _donor_maps(lanes, c1, c2, d2, d3, lane_wrap),
        return_schedule,
    )


def _schedule_borrowing_batch(
    masks: list[np.ndarray],
    n_slots: int,
    d1: int,
    donor_maps: tuple,
    record: bool,
) -> list[CompactionResult]:
    """The cycle loop for per-stream fronts with donors present.

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
    t_arr = np.array([m.shape[0] for m in masks], dtype=np.int64)
    total_slots = n_tiles * n_slots
    flat = np.zeros((int(t_arr.max()), n_tiles, n_slots), dtype=bool)
    for b, m in enumerate(masks):
        flat[: m.shape[0], b] = m.reshape(m.shape[0], n_slots)
    positions, counts, total_ops = _stream_positions(
        flat.reshape(len(flat), total_slots), total_slots
    )
    if n_tiles > 1:
        offs = np.repeat(np.arange(n_tiles, dtype=np.int64) * n_slots, n_slots)
        donor_maps = [
            (
                np.tile(donor, n_tiles) + offs,
                np.tile(valid, n_tiles),
                np.tile(inv, n_tiles) + offs,
                np.tile(inv_valid, n_tiles),
            )
            for donor, valid, inv, inv_valid in donor_maps
        ]
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
    busy_t = busy.sum(axis=0)
    borrowed = per_tile - own_counts.sum(axis=0)
    if record and rows:
        schedules = np.concatenate(rows).reshape(cycles, n_tiles, n_slots)
    results = []
    for b in range(n_tiles):
        schedule = None
        if record:
            schedule = (
                schedules[: last[b], b].copy()
                if last[b]
                else np.array([], dtype=np.int64)
            )
        results.append(
            CompactionResult(
                cycles=int(last[b] + tail[b]),
                busy_cycles=int(busy_t[b]),
                executed_ops=int(per_tile[b]),
                borrowed_ops=int(borrowed[b]),
                schedule=schedule,
            )
        )
    return results


def _schedule_borrowing_grouped(
    positions: np.ndarray,
    total_ops: int,
    t_steps: int,
    n_slots: int,
    n_groups: int,
    d1: int,
    donor_maps: tuple,
    front_mode: str,
    record: bool,
) -> CompactionResult:
    """Cycle loop for the ``unit``/``tile`` front ablation modes.

    Front pointers are shared per dot-product unit or tile-wide, so window
    limits gather through ``group_of`` and the front advance needs a
    scatter-reduction.  Only ablation studies exercise these modes; the
    default per-stream mode takes :func:`_schedule_borrowing_batch`.
    """
    window = 1 + d1
    ptr = np.zeros(n_slots, dtype=np.int64)
    slot_ids = np.arange(n_slots)
    next_pos = positions[slot_ids, ptr]

    if front_mode == "unit":
        group_of = slot_ids % n_groups
        n_fronts = n_groups
    else:
        group_of = np.zeros(n_slots, dtype=np.int64)
        n_fronts = 1
    fronts = np.zeros(n_fronts, dtype=np.int64)

    schedule_chunks: list[np.ndarray] = []
    cycles = 0
    busy_cycles = 0
    borrowed = 0
    executed = 0
    while executed < total_ops:
        limit = fronts[group_of] + d1

        own = next_pos <= limit
        if not own.any():
            # Fully idle cycle: donor availability is the donor's *own*
            # phase-1 condition, so nothing can execute anywhere -- jump
            # all such cycles at once.
            earliest = np.full(n_fronts, _INF, dtype=np.int64)
            np.minimum.at(earliest, group_of, next_pos)
            waiting = earliest < _INF
            gap = (earliest - d1 - fronts)[waiting]
            jump = int((-((-gap) // window)).min())
            cycles += jump
            fronts = np.minimum(earliest, fronts + jump * window)
            if record:
                schedule_chunks.append(np.full((jump, n_slots), -1, dtype=np.int64))
            continue

        cycles += 1
        busy_cycles += 1
        row = np.full(n_slots, -1, dtype=np.int64) if record else None

        # Phase 1: every slot claims the earliest remaining op of its own
        # stream that lies inside its unit's window.
        own_slots = slot_ids[own]
        if record:
            row[own_slots] = next_pos[own_slots] * n_slots + own_slots
        executed += len(own_slots)
        ptr[own_slots] += 1
        next_pos[own_slots] = positions[own_slots, ptr[own_slots]]
        idle = ~own

        # Phase 2: idle slots borrow, one claim per donor per offset round.
        # The offset shift is injective, so claims are contention-free and
        # no arbitration is needed.  Donor availability is judged against
        # the donor's own front (``limit`` gathers exactly
        # ``fronts[group_of[...]] + d1``).
        for donor, donor_valid, _inv, _inv_valid in donor_maps:
            if not idle.any():
                break
            cand = idle & donor_valid
            if not cand.any():
                continue
            cand_slots = slot_ids[cand]
            cand_donors = donor[cand]
            cand_ok = next_pos[cand_donors] <= limit[cand_donors]
            win_slots = cand_slots[cand_ok]
            win_donors = cand_donors[cand_ok]
            if len(win_slots) == 0:
                continue
            if record:
                row[win_slots] = next_pos[win_donors] * n_slots + win_donors
            executed += len(win_slots)
            borrowed += len(win_slots)
            ptr[win_donors] += 1
            next_pos[win_donors] = positions[win_donors, ptr[win_donors]]
            idle[win_slots] = False

        if record:
            schedule_chunks.append(row[np.newaxis, :])

        # Per-group front advance: up to the group's earliest unexecuted op,
        # capped at one window of refill per cycle.
        earliest = np.full(n_fronts, _INF, dtype=np.int64)
        np.minimum.at(earliest, group_of, next_pos)
        fronts = np.minimum(earliest, fronts + window)

    # Trailing drain: units behind T keep streaming zero slices at window
    # rate; the tile ends when the slowest one crosses T.
    behind = fronts < t_steps
    if behind.any():
        cycles += int((-((fronts[behind] - t_steps) // window)).max())

    if record:
        schedule = (
            np.concatenate(schedule_chunks, axis=0)
            if schedule_chunks
            else np.array([], dtype=np.int64)
        )
    else:
        schedule = None
    return CompactionResult(
        cycles=cycles,
        busy_cycles=busy_cycles,
        executed_ops=executed,
        borrowed_ops=borrowed,
        schedule=schedule,
    )


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
