"""Property-based invariants of ``compact_schedule`` over random masks.

These lock the scheduler's contract in for refactors:

* zero borrowing costs exactly ``T`` cycles for *any* mask, and a dense
  mask costs exactly ``T`` for any borrowing distances;
* borrowing never makes a tile slower than dense (``cycles <= T``);
* cycles are bounded below by the work (``ceil(ops / slots)``) and by the
  stream drain rate (``ceil(T / (1 + d1))``);
* growing any single distance is monotone non-increasing up to a one-cycle
  tolerance -- the greedy offset-priority arbiter can lose exactly one
  cycle to an unlucky donor claim, never more (verified over tens of
  thousands of schedules);
* the vectorized kernel -- single tiles and whole batches of tiles --
  agrees with the pure-Python reference oracle, recorded schedules
  included.

Masks are drawn as (shape, density, seed) and expanded with a seeded
generator, so examples are reproducible; with ``hypothesis`` installed the
search is driven by its shrinker (derandomized for CI stability), otherwise
a fixed seeded-random sweep covers the same ground.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from compaction_oracle import compact_schedule_reference
from repro.sim.compaction import compact_schedule, compact_schedule_batch

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the container always has it
    HAVE_HYPOTHESIS = False


def make_mask(t_steps: int, lanes: int, c1: int, c2: int, density: float, seed: int):
    rng = np.random.default_rng(seed)
    return rng.random((t_steps, lanes, c1, c2)) < density


def check_bounds(mask, d1: int, d2: int, d3: int) -> None:
    t_steps = mask.shape[0]
    slots = mask.shape[1] * mask.shape[2] * mask.shape[3]
    ops = int(mask.sum())
    res = compact_schedule(mask, d1, d2, d3)
    assert res.executed_ops == ops
    assert res.cycles <= t_steps, "borrowing must never be slower than dense"
    assert res.cycles >= math.ceil(ops / slots)
    assert res.cycles >= math.ceil(t_steps / (1 + d1))
    if d2 == 0 and d3 == 0:
        assert res.borrowed_ops == 0, "no lane/PE reach means no borrowed ops"
    assert res.busy_cycles <= res.cycles


def check_no_borrowing_is_dense(mask) -> None:
    res = compact_schedule(mask, 0, 0, 0)
    assert res.cycles == mask.shape[0]


def check_dense_mask_costs_t(shape, d1: int, d2: int, d3: int) -> None:
    dense = np.ones(shape, dtype=bool)
    res = compact_schedule(dense, d1, d2, d3)
    assert res.cycles == shape[0]
    assert res.executed_ops == int(dense.sum())


def check_near_monotone(mask, base: tuple[int, int, int]) -> None:
    for axis in range(3):
        distances = list(base)
        previous = None
        for value in range(4):
            distances[axis] = value
            cycles = compact_schedule(mask, *distances).cycles
            if previous is not None:
                assert cycles <= previous + 1, (
                    f"growing d{axis + 1} to {value} regressed {previous} -> "
                    f"{cycles} cycles (more than arbitration jitter)"
                )
            previous = cycles


def assert_same_result(got, want) -> None:
    assert got.cycles == want.cycles
    assert got.busy_cycles == want.busy_cycles
    assert got.executed_ops == want.executed_ops
    assert got.borrowed_ops == want.borrowed_ops
    # The recorded schedules must be bit-identical, not just cycle-equal:
    # downstream dual-sparsity filtering replays them element by element.
    assert got.schedule.shape == want.schedule.shape
    assert got.schedule.dtype == want.schedule.dtype
    assert np.array_equal(got.schedule, want.schedule)


def check_matches_reference(
    mask, d1: int, d2: int, d3: int, front_mode: str = "stream"
) -> None:
    fast = compact_schedule(
        mask, d1, d2, d3, return_schedule=True, front_mode=front_mode
    )
    slow = compact_schedule_reference(
        mask, d1, d2, d3, return_schedule=True, front_mode=front_mode
    )
    assert_same_result(fast, slow)


def check_batch_matches_sequential(
    masks, d1: int, d2: int, d3: int, lane_wrap: bool = True
) -> None:
    """The batch, and each tile as a batch of one, against the oracle run
    tile by tile -- recorded schedules bit for bit, and without recording
    the same counts and no schedule.  A ``T == 0`` tile of the same
    geometry rides at both ends of every batch: alone or batched it runs
    no cycle and, like every tile that never executes, records the 1-D
    empty schedule."""
    empty = np.zeros((0, *masks[0].shape[1:]), dtype=bool)
    masks = [empty, *masks, empty]
    oracle = [
        compact_schedule_reference(
            m, d1, d2, d3, lane_wrap=lane_wrap, return_schedule=True
        )
        for m in masks
    ]
    batched = compact_schedule_batch(
        masks, d1, d2, d3, lane_wrap=lane_wrap, return_schedule=True
    )
    singles = [
        compact_schedule(m, d1, d2, d3, lane_wrap=lane_wrap, return_schedule=True)
        for m in masks
    ]
    unrecorded = compact_schedule_batch(masks, d1, d2, d3, lane_wrap=lane_wrap)
    bare_singles = [
        compact_schedule(m, d1, d2, d3, lane_wrap=lane_wrap) for m in masks
    ]
    assert len(batched) == len(unrecorded) == len(oracle)
    for want, bat, single, bare, bare_single in zip(
        oracle, batched, singles, unrecorded, bare_singles
    ):
        assert_same_result(bat, want)
        assert_same_result(single, want)
        assert bare_single == bare
        assert bare.schedule is None
        assert (bare.cycles, bare.busy_cycles, bare.executed_ops, bare.borrowed_ops) == (
            want.cycles, want.busy_cycles, want.executed_ops, want.borrowed_ops
        )


def closed_form_batch(tiles, dims) -> list[np.ndarray]:
    """The tiles of a ``d2 == d3 == 0`` batch, each ``(T, density, seed)``,
    plus a depth-1 tile and an all-zero tile of the same geometry."""
    lanes, c1, c2 = dims
    masks = [make_mask(t, lanes, c1, c2, density, seed) for t, density, seed in tiles]
    return masks + [
        make_mask(1, lanes, c1, c2, 0.5, len(tiles)),
        np.zeros((3 + len(tiles), lanes, c1, c2), dtype=bool),
    ]


if HAVE_HYPOTHESIS:
    mask_params = st.tuples(
        st.integers(2, 14),       # T
        st.integers(1, 6),        # L
        st.integers(1, 4),        # C1
        st.integers(1, 2),        # C2
        st.floats(0.02, 0.98),    # density
        st.integers(0, 2**31),    # seed
    )
    distance = st.integers(0, 3)
    prop = settings(max_examples=60, deadline=None, derandomize=True)

    class TestHypothesisProperties:
        @prop
        @given(mask_params, distance, distance, distance)
        def test_bounds(self, params, d1, d2, d3):
            check_bounds(make_mask(*params), d1, d2, d3)

        @prop
        @given(mask_params)
        def test_no_borrowing_is_dense(self, params):
            check_no_borrowing_is_dense(make_mask(*params))

        @prop
        @given(st.tuples(st.integers(2, 14), st.integers(1, 6), st.integers(1, 4),
                         st.integers(1, 2)), distance, distance, distance)
        def test_dense_mask_costs_t(self, shape, d1, d2, d3):
            check_dense_mask_costs_t(shape, d1, d2, d3)

        @prop
        @given(mask_params, distance, distance, distance)
        def test_near_monotone(self, params, b1, b2, b3):
            check_near_monotone(make_mask(*params), (b1, b2, b3))

        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(
            st.tuples(st.integers(2, 8), st.integers(1, 4), st.integers(1, 3),
                      st.integers(1, 2), st.floats(0.05, 0.95), st.integers(0, 2**31)),
            distance, distance, distance,
            st.sampled_from(["stream", "unit", "tile"]),
        )
        def test_matches_reference(self, params, d1, d2, d3, front_mode):
            check_matches_reference(make_mask(*params), d1, d2, d3, front_mode)

        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(
            st.lists(
                st.tuples(st.integers(1, 12), st.floats(0.0, 1.0),
                          st.integers(0, 2**31)),
                min_size=1, max_size=6,
            ),
            st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 2)),
            distance, distance, distance,
            st.booleans(),
        )
        def test_batch_matches_sequential(self, tiles, dims, d1, d2, d3, wrap):
            lanes, c1, c2 = dims
            masks = [
                make_mask(t, lanes, c1, c2, density, seed)
                for t, density, seed in tiles
            ]
            check_batch_matches_sequential(masks, d1, d2, d3, lane_wrap=wrap)

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(
            st.lists(
                st.tuples(st.integers(1, 16), st.floats(0.0, 1.0),
                          st.integers(0, 2**31)),
                min_size=1, max_size=6,
            ),
            st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 2)),
            distance,
        )
        def test_closed_form_batch_matches_oracle(self, tiles, dims, d1):
            """Without lane or PE reach the whole batch is one call of the
            closed form; each tile equals the oracle's, with and without
            recorded schedules."""
            check_batch_matches_sequential(closed_form_batch(tiles, dims), d1, 0, 0)


class TestSeededRandomProperties:
    """Seeded-random sweep of the same invariants (runs with or without
    hypothesis, so CI environments missing it keep the coverage)."""

    @pytest.mark.parametrize("trial", range(25))
    def test_invariants(self, trial):
        rng = np.random.default_rng(1000 + trial)
        t_steps = int(rng.integers(2, 14))
        lanes = int(rng.integers(1, 6))
        c1 = int(rng.integers(1, 4))
        c2 = int(rng.integers(1, 3))
        density = float(rng.uniform(0.02, 0.98))
        mask = make_mask(t_steps, lanes, c1, c2, density, seed=trial)
        base = tuple(int(rng.integers(0, 4)) for _ in range(3))
        check_bounds(mask, *base)
        check_no_borrowing_is_dense(mask)
        check_dense_mask_costs_t((t_steps, lanes, c1, c2), *base)
        check_near_monotone(mask, base)

    @pytest.mark.parametrize("trial", range(8))
    def test_matches_reference(self, trial):
        rng = np.random.default_rng(2000 + trial)
        mask = make_mask(
            int(rng.integers(2, 8)), int(rng.integers(1, 4)),
            int(rng.integers(1, 3)), int(rng.integers(1, 2)),
            float(rng.uniform(0.05, 0.95)), seed=trial,
        )
        mode = ("stream", "unit", "tile")[trial % 3]
        check_matches_reference(
            mask, int(rng.integers(0, 3)), int(rng.integers(0, 3)),
            int(rng.integers(0, 3)), front_mode=mode,
        )

    @pytest.mark.parametrize("trial", range(10))
    def test_batch_matches_sequential(self, trial):
        rng = np.random.default_rng(3000 + trial)
        lanes = int(rng.integers(1, 5))
        c1 = int(rng.integers(1, 4))
        c2 = int(rng.integers(1, 3))
        d1, d2, d3 = (int(rng.integers(0, 4)) for _ in range(3))
        wrap = bool(trial % 2)
        masks = []
        for i in range(int(rng.integers(1, 7))):
            t_steps = int(rng.integers(1, 16))
            # Force occasional all-zero tiles: the batch kernel short-cuts
            # them to the pure drain and must still agree with sequential.
            density = 0.0 if i % 4 == 3 else float(rng.uniform(0.0, 1.0))
            masks.append(make_mask(t_steps, lanes, c1, c2, density, seed=i))
        check_batch_matches_sequential(masks, d1, d2, d3, lane_wrap=wrap)

    @pytest.mark.parametrize("trial", range(10))
    def test_closed_form_batch_matches_oracle(self, trial):
        rng = np.random.default_rng(5000 + trial)
        dims = tuple(int(rng.integers(1, high)) for high in (6, 4, 3))
        tiles = [
            (int(rng.integers(1, 17)), float(rng.uniform(0.0, 1.0)), i)
            for i in range(int(rng.integers(1, 7)))
        ]
        check_batch_matches_sequential(
            closed_form_batch(tiles, dims), int(rng.integers(0, 4)), 0, 0
        )

    def test_no_borrowing_fast_path_matches_reference(self):
        # d2 == d3 == 0 takes the closed-form path; pin it to the oracle
        # including the recorded schedule.
        for trial in range(6):
            rng = np.random.default_rng(4000 + trial)
            mask = make_mask(
                int(rng.integers(2, 12)), int(rng.integers(1, 5)),
                int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                float(rng.uniform(0.0, 1.0)), seed=trial,
            )
            check_matches_reference(mask, int(rng.integers(0, 4)), 0, 0)

    def test_batch_empty_list(self):
        assert compact_schedule_batch([], 2, 1, 1) == []
