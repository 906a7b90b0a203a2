"""Pure-Python oracle of the borrow scheduler in ``repro.sim.compaction``.

Iterates slots, donors and cycles element by element, with no skip-ahead,
no closed form and no batching, so that every vectorized path can be
asserted against it cycle for cycle and -- with ``return_schedule`` --
schedule for schedule.  Use only on small tiles.
"""

from __future__ import annotations

import numpy as np

from repro.sim.compaction import _INF, CompactionResult, _check_mask, _offset_priority


def compact_schedule_reference(
    mask: np.ndarray,
    d1: int = 0,
    d2: int = 0,
    d3: int = 0,
    lane_wrap: bool = True,
    return_schedule: bool = False,
    front_mode: str = "stream",
) -> CompactionResult:
    """Obviously-correct scheduler with the signature of ``compact_schedule``."""
    mask = _check_mask(mask)
    t_steps, lanes, c1, c2 = mask.shape
    window = 1 + d1
    offsets = _offset_priority(d2, d3)
    if front_mode == "stream":
        def group_key(l: int, i: int, j: int) -> tuple:
            return (l, i, j)
    elif front_mode == "unit":
        def group_key(l: int, i: int, j: int) -> tuple:
            return (i, j)
    elif front_mode == "tile":
        def group_key(l: int, i: int, j: int) -> tuple:
            return ()
    else:
        raise ValueError(f"unknown front_mode {front_mode!r}")
    groups = sorted({group_key(l, i, j) for l in range(lanes) for i in range(c1) for j in range(c2)})

    remaining = {
        (t, l, i, j)
        for t in range(t_steps)
        for l in range(lanes)
        for i in range(c1)
        for j in range(c2)
        if mask[t, l, i, j]
    }

    def group_earliest(g: tuple) -> int:
        return min((t for (t, l, i, j) in remaining if group_key(l, i, j) == g), default=_INF)

    def earliest_in_window(l: int, i: int, j: int, front: int) -> tuple | None:
        for t in range(front, min(front + window, t_steps)):
            if (t, l, i, j) in remaining:
                return (t, l, i, j)
        return None

    def flat(l: int, i: int, j: int) -> int:
        return l * c1 * c2 + i * c2 + j

    n_slots = lanes * c1 * c2
    fronts = {g: 0 for g in groups}
    rows: list[list[int]] = []
    cycles = 0
    busy_cycles = 0
    borrowed = 0
    executed = 0
    while True:
        if not remaining:
            tail = max(
                int(np.ceil((t_steps - fronts[g]) / window)) if fronts[g] < t_steps else 0
                for g in groups
            )
            cycles += tail
            break
        cycles += 1
        cycle_busy = False
        row = [-1] * n_slots
        all_slots = [(l, i, j) for l in range(lanes) for i in range(c1) for j in range(c2)]

        # Phase 1: every slot claims the earliest element of its own stream.
        idle = []
        for l, i, j in all_slots:
            pick = earliest_in_window(l, i, j, fronts[group_key(l, i, j)])
            if pick is not None:
                remaining.discard(pick)
                row[flat(l, i, j)] = pick[0] * n_slots + flat(l, i, j)
                executed += 1
                cycle_busy = True
            else:
                idle.append((l, i, j))

        # Phase 2: offset rounds in priority order; one claim per donor per
        # round, arbitrated in slot order.  Donor reach uses the donor's
        # own front.
        for dd2, dd3 in offsets:
            claimed_donors: set[tuple[int, int, int]] = set()
            still_idle = []
            for l, i, j in idle:
                donor_l = (l + dd2) % lanes if lane_wrap else l + dd2
                donor_i = i + dd3
                donor = (donor_l, donor_i, j)
                pick = None
                if donor_l < lanes and donor_i < c1 and donor not in claimed_donors:
                    pick = earliest_in_window(donor_l, donor_i, j, fronts[group_key(donor_l, donor_i, j)])
                if pick is not None:
                    claimed_donors.add(donor)
                    remaining.discard(pick)
                    row[flat(l, i, j)] = pick[0] * n_slots + flat(*donor)
                    executed += 1
                    borrowed += 1
                    cycle_busy = True
                else:
                    still_idle.append((l, i, j))
            idle = still_idle
        rows.append(row)
        if cycle_busy:
            busy_cycles += 1
        for g in groups:
            fronts[g] = min(group_earliest(g), fronts[g] + window)

    schedule = None
    if return_schedule:
        schedule = np.array(rows, dtype=np.int64) if rows else np.array([], dtype=np.int64)
    return CompactionResult(
        cycles=cycles,
        busy_cycles=busy_cycles,
        executed_ops=executed,
        borrowed_ops=borrowed,
        schedule=schedule,
    )
