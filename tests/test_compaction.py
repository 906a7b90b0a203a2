"""Tests for the borrow-scheduling kernel (simulator heart)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compaction_oracle import compact_schedule_reference
from repro.sim.compaction import (
    CompactionResult,
    compact_schedule,
    compact_schedule_batch,
    unpack_schedule,
)


def random_mask(seed, t, l, c1, c2=1, density=0.3):
    rng = np.random.default_rng(seed)
    return rng.random((t, l, c1, c2)) < density


class TestBasicSemantics:
    def test_dense_mask_costs_t_cycles(self):
        mask = np.ones((12, 4, 3), dtype=bool)
        res = compact_schedule(mask, 0, 0, 0)
        assert res.cycles == 12
        assert res.executed_ops == 12 * 4 * 3
        assert res.borrowed_ops == 0

    def test_empty_mask_drains_at_window_rate(self):
        mask = np.zeros((20, 4, 2), dtype=bool)
        res = compact_schedule(mask, 4, 0, 0)
        assert res.cycles == int(np.ceil(20 / 5))
        assert res.executed_ops == 0

    def test_empty_mask_no_lookahead(self):
        mask = np.zeros((20, 4, 2), dtype=bool)
        assert compact_schedule(mask, 0, 0, 0).cycles == 20

    def test_zero_time_steps(self):
        mask = np.zeros((0, 4, 2), dtype=bool)
        assert compact_schedule(mask, 2, 0, 0).cycles == 0

    def test_empty_tiles_are_a_batch_of_one(self):
        """``T == 0`` and zero-slot tiles: no schedule unless recording,
        then the 1-D empty one -- alone, batched, and in every front mode."""
        for shape in ((0, 4, 2), (0, 4, 2, 2), (5, 0, 2), (0, 0, 3)):
            mask = np.zeros(shape, dtype=bool)
            for d1, d2, d3 in ((0, 0, 0), (2, 0, 0), (1, 1, 1)):
                (bare,) = compact_schedule_batch([mask], d1, d2, d3)
                assert bare == CompactionResult(0, 0, 0, 0)
                for mode in ("stream", "unit", "tile"):
                    single = compact_schedule(mask, d1, d2, d3, front_mode=mode)
                    assert single == bare
                    recorded = compact_schedule(
                        mask, d1, d2, d3, return_schedule=True, front_mode=mode
                    )
                    assert recorded.cycles == 0
                    assert recorded.schedule.shape == (0,)
                    assert recorded.schedule.dtype == np.int64

    def test_single_hot_stream_is_work_bound(self):
        mask = np.zeros((30, 4, 1), dtype=bool)
        mask[:, 0, 0] = True  # 30 ops in one stream
        res = compact_schedule(mask, 4, 0, 0)
        assert res.cycles == 30

    def test_ideal_speedup_cap_is_window(self):
        # One op total: cycles is bounded below by T / (1 + d1).
        mask = np.zeros((40, 4, 2), dtype=bool)
        mask[0, 0, 0] = True
        for d1 in (0, 1, 3, 7):
            res = compact_schedule(mask, d1, 0, 0)
            assert res.cycles == int(np.ceil(40 / (1 + d1)))

    def test_all_ops_execute_exactly_once(self):
        mask = random_mask(1, 18, 6, 4, density=0.4)
        res = compact_schedule(mask, 2, 1, 1)
        assert res.executed_ops == int(mask.sum())

    def test_lane_borrowing_balances_hot_lane(self):
        # Lane 0 is dense, others empty: with d2 = 3, three neighbours help.
        mask = np.zeros((24, 4, 1), dtype=bool)
        mask[:, 0, 0] = True
        alone = compact_schedule(mask, 4, 0, 0).cycles
        pooled = compact_schedule(mask, 4, 3, 0).cycles
        assert pooled < alone
        assert pooled >= 24 // 4

    def test_pe_borrowing_is_directional(self):
        # Work in c1=0 can only be taken by lower-index PEs via d3... the
        # donor direction is c + d3, so a hot PE at the *end* has helpers.
        mask = np.zeros((24, 2, 3), dtype=bool)
        mask[:, :, 2] = True
        helped = compact_schedule(mask, 2, 0, 2).cycles
        alone = compact_schedule(mask, 2, 0, 0).cycles
        assert helped < alone

    def test_no_wrap_disables_edge_donor(self):
        mask = np.zeros((16, 2, 1), dtype=bool)
        mask[:, 0, 0] = True  # lane 0 hot; lane 1's donor (wrap) is lane 0
        wrap = compact_schedule(mask, 2, 1, 0, lane_wrap=True).cycles
        nowrap = compact_schedule(mask, 2, 1, 0, lane_wrap=False).cycles
        assert wrap <= nowrap


class TestMonotonicity:
    @pytest.mark.parametrize("param", ["d1", "d2", "d3"])
    def test_more_borrowing_never_hurts(self, param):
        mask = random_mask(7, 20, 8, 4, density=0.25)
        base = dict(d1=1, d2=0, d3=0)
        lo = compact_schedule(mask, **base).cycles
        base[param] = base[param] + 2
        hi = compact_schedule(mask, **base).cycles
        assert hi <= lo

    def test_cycles_bounded_by_dense(self):
        for seed in range(5):
            mask = random_mask(seed, 16, 6, 3, density=0.5)
            res = compact_schedule(mask, 3, 1, 1)
            assert res.cycles <= 16

    def test_cycles_at_least_work_and_window_bounds(self):
        mask = random_mask(3, 25, 5, 4, density=0.3)
        d1 = 3
        res = compact_schedule(mask, d1, 2, 2)
        flat = mask.reshape(25, -1)
        max_stream = int(flat.sum(axis=0).max())
        assert res.cycles >= int(np.ceil(25 / (1 + d1)))
        assert res.cycles >= int(np.ceil(mask.sum() / flat.shape[1]))
        # Without borrowing the hottest stream is also a bound.
        assert compact_schedule(mask, d1, 0, 0).cycles >= max_stream


class TestFrontModes:
    def test_tile_mode_slowest(self):
        mask = random_mask(11, 30, 8, 4, density=0.2)
        stream = compact_schedule(mask, 3, 0, 0, front_mode="stream").cycles
        unit = compact_schedule(mask, 3, 0, 0, front_mode="unit").cycles
        tile = compact_schedule(mask, 3, 0, 0, front_mode="tile").cycles
        assert stream <= unit <= tile

    def test_unknown_mode_rejected(self):
        mask = random_mask(0, 4, 2, 1)
        with pytest.raises(ValueError):
            compact_schedule(mask, 1, front_mode="bogus")
        with pytest.raises(ValueError):
            compact_schedule_reference(mask, 1, front_mode="bogus")

    def test_dense_invariant_under_mode(self):
        mask = np.ones((10, 3, 2), dtype=bool)
        for mode in ("stream", "unit", "tile"):
            assert compact_schedule(mask, 2, front_mode=mode).cycles == 10


class TestScheduleRecording:
    def test_schedule_entries_are_real_ops(self):
        mask = random_mask(5, 12, 4, 3, density=0.4)
        res = compact_schedule(mask, 2, 1, 1, return_schedule=True)
        sched = res.schedule
        executed = sched[sched >= 0]
        assert len(executed) == res.executed_ops
        # Every recorded entry refers to a true op, each exactly once.
        assert len(np.unique(executed)) == len(executed)
        t, l, c1, c2 = unpack_schedule(sched.copy(), mask.shape)
        ok = sched >= 0
        assert mask[t[ok], l[ok], c1[ok], c2[ok]].all()

    def test_unpack_marks_idle(self):
        sched = np.array([[-1, 5]])
        t, l, c1, c2 = unpack_schedule(sched.copy(), (3, 2, 1, 1))
        assert t[0, 0] == -1 and l[0, 0] == -1

    def test_occupancy(self):
        mask = np.ones((4, 2, 1), dtype=bool)
        res = compact_schedule(mask, 0)
        assert res.occupancy == pytest.approx(2.0)
        assert CompactionResult(0, 0, 0, 0).occupancy == 0.0


class TestInputValidation:
    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            compact_schedule(np.ones((4, 4), dtype=bool), 1)

    def test_accepts_3d_and_4d(self):
        m3 = np.ones((4, 2, 2), dtype=bool)
        m4 = m3[:, :, :, np.newaxis]
        assert compact_schedule(m3, 1).cycles == compact_schedule(m4, 1).cycles

    def test_rejects_bad_distances(self):
        """Negative or non-integer distances raise before any scheduling, in
        every front mode; numpy integers are accepted."""
        # A window of 0 would never advance a front: the empty batch shows
        # the check runs before the masks are looked at.
        with pytest.raises(ValueError, match="d1"):
            compact_schedule_batch([], -1, 1, 0)
        mask = np.ones((8, 2, 2), dtype=bool)
        bad = [
            ("d1", (-1, 0, 0)), ("d2", (1, -1, 0)), ("d3", (1, 0, -2)),
            ("d1", (1.0, 0, 0)), ("d2", (2, 0.5, 0)),
        ]
        for name, (d1, d2, d3) in bad:
            for mode in ("stream", "unit", "tile"):
                with pytest.raises(ValueError, match=name):
                    compact_schedule(mask, d1, d2, d3, front_mode=mode)
            with pytest.raises(ValueError, match=name):
                compact_schedule_batch([mask], d1, d2, d3)
        numpy_ints = compact_schedule(mask, np.int64(2), np.int32(1), np.uint8(1))
        assert numpy_ints == compact_schedule(mask, 2, 1, 1)


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(1, 14),
    l=st.integers(1, 6),
    c1=st.integers(1, 4),
    c2=st.integers(1, 3),
    d1=st.integers(0, 4),
    d2=st.integers(0, 3),
    d3=st.integers(0, 2),
    mode=st.sampled_from(["stream", "unit", "tile"]),
    wrap=st.booleans(),
    seed=st.integers(0, 2**31),
    density=st.floats(0.0, 1.0),
)
def test_fast_matches_reference(t, l, c1, c2, d1, d2, d3, mode, wrap, seed, density):
    """The vectorized kernel is cycle-exact against the pure-Python oracle."""
    rng = np.random.default_rng(seed)
    mask = rng.random((t, l, c1, c2)) < density
    fast = compact_schedule(mask, d1, d2, d3, lane_wrap=wrap, front_mode=mode)
    ref = compact_schedule_reference(mask, d1, d2, d3, lane_wrap=wrap, front_mode=mode)
    assert fast.cycles == ref.cycles
    assert fast.executed_ops == ref.executed_ops == int(mask.sum())
    assert fast.borrowed_ops == ref.borrowed_ops
    assert fast.busy_cycles == ref.busy_cycles


@settings(max_examples=40, deadline=None)
@given(
    t=st.integers(1, 20),
    d1=st.integers(0, 5),
    seed=st.integers(0, 2**31),
    density=st.floats(0.05, 0.95),
)
def test_invariants_hold(t, d1, seed, density):
    """Work bound, window bound, and dense ceiling on random tiles."""
    rng = np.random.default_rng(seed)
    mask = rng.random((t, 4, 3, 2)) < density
    res = compact_schedule(mask, d1, 1, 1)
    nnz = int(mask.sum())
    slots = 4 * 3 * 2
    assert res.executed_ops == nnz
    assert res.cycles <= t or nnz == 0 and res.cycles <= t
    assert res.cycles >= int(np.ceil(t / (1 + d1)))
    assert res.cycles >= int(np.ceil(nnz / slots))
