"""Tests for the dual-sparsity seven-step pipeline composition."""

import numpy as np
import pytest

from compaction_oracle import compact_schedule_reference
from repro.config import sparse_ab
from repro.sim.compaction import compact_schedule
from repro.sim.dual import (
    dual_sparse_cycles,
    dual_sparse_cycles_batch,
    filtered_pair_masks,
)


def masks(seed, t=20, lanes=8, m=4, n=6, pa=0.5, pb=0.3):
    rng = np.random.default_rng(seed)
    a = rng.random((t, lanes, m)) < pa
    b = rng.random((t, lanes, n)) < pb
    return a, b


class TestFilteredPairMask:
    def test_pair_count_matches_joint_mask(self):
        a, b = masks(0)
        cfg = sparse_ab(1, 0, 0, 2, 0, 0)
        pair, _ = filtered_pair_masks([(a, b)], cfg)[0]
        # Every effectual pair (A nz AND B nz) appears exactly once.
        joint = (a[:, :, :, None] & b[:, :, None, :]).sum()
        assert pair.sum() == joint

    def test_schedule_length_covers_drain(self):
        a, b = masks(1)
        cfg = sparse_ab(1, 0, 0, 3, 0, 0)
        pair, b_len = filtered_pair_masks([(a, b)], cfg)[0]
        assert pair.shape[0] == b_len
        ref = compact_schedule(b[:, :, :, None], 3, 0, 0, return_schedule=True)
        assert b_len == ref.cycles

    def test_dense_a_keeps_all_scheduled_b(self):
        a = np.ones((16, 4, 2), dtype=bool)
        rng = np.random.default_rng(2)
        b = rng.random((16, 4, 5)) < 0.4
        cfg = sparse_ab(2, 0, 0, 2, 0, 1)
        pair, _ = filtered_pair_masks([(a, b)], cfg)[0]
        assert pair.sum() == b.sum() * a.shape[2]

    def test_shape_mismatch_rejected(self):
        a = np.ones((10, 4, 2), dtype=bool)
        b = np.ones((11, 4, 3), dtype=bool)
        with pytest.raises(ValueError):
            filtered_pair_masks([(a, b)], sparse_ab(1, 0, 0, 1, 0, 0))[0]


class TestDualCycles:
    def test_dense_b_reduces_to_sparse_a(self):
        # Table III: dual sparse on DNN.A downgrades to Sparse.A(da1,0,0).
        rng = np.random.default_rng(3)
        a = rng.random((24, 8, 4)) < 0.5
        b = np.ones((24, 8, 6), dtype=bool)
        cfg = sparse_ab(2, 0, 0, 2, 0, 1)
        dual = dual_sparse_cycles(a, b, cfg)
        # Phase 1 on a dense B is the identity schedule, so the result must
        # equal a plain Sparse.A(2,0,0) compaction of A replicated over n.
        a_rep = np.repeat(a[:, :, :, None], 6, axis=3)
        single = compact_schedule(a_rep, 2, 0, 0)
        assert dual.cycles == single.cycles

    def test_dense_a_at_least_single_b_quality(self):
        # With dense A, the dual pipeline behaves between Sparse.B(db...)
        # and the deeper offline window (the Griffin morph headroom).
        rng = np.random.default_rng(4)
        a = np.ones((32, 8, 4), dtype=bool)
        b = rng.random((32, 8, 8)) < 0.25
        cfg = sparse_ab(2, 0, 0, 2, 0, 1)
        dual = dual_sparse_cycles(a, b, cfg)
        single = compact_schedule(b, 2, 0, 1)
        deep = compact_schedule(b, 8, 0, 1)
        assert dual.cycles <= single.cycles
        assert dual.cycles >= deep.cycles

    def test_executes_every_pair(self):
        a, b = masks(5)
        cfg = sparse_ab(1, 0, 0, 1, 0, 0)
        dual = dual_sparse_cycles(a, b, cfg)
        joint = (a[:, :, :, None] & b[:, :, None, :]).sum()
        assert dual.executed_pairs == joint

    def test_combined_window_cap(self):
        # Combined ideal speedup is bounded by ABUF depth (1+da1)(1+db1).
        a = np.zeros((36, 4, 2), dtype=bool)
        b = np.zeros((36, 4, 3), dtype=bool)
        cfg = sparse_ab(2, 0, 0, 2, 0, 0)
        dual = dual_sparse_cycles(a, b, cfg)
        assert dual.cycles >= int(np.ceil(36 / 9))

    def test_sparser_inputs_never_slower(self):
        rng = np.random.default_rng(6)
        a_dense = rng.random((20, 8, 4)) < 0.9
        a_sparse = a_dense & (rng.random((20, 8, 4)) < 0.5)
        b = rng.random((20, 8, 6)) < 0.3
        cfg = sparse_ab(2, 0, 0, 2, 0, 1)
        dense_res = dual_sparse_cycles(a_dense, b, cfg)
        sparse_res = dual_sparse_cycles(a_sparse, b, cfg)
        assert sparse_res.cycles <= dense_res.cycles

    def test_empty_inputs(self):
        a = np.zeros((10, 4, 2), dtype=bool)
        b = np.zeros((10, 4, 3), dtype=bool)
        cfg = sparse_ab(1, 0, 0, 1, 0, 0)
        dual = dual_sparse_cycles(a, b, cfg)
        assert dual.executed_pairs == 0
        assert dual.cycles >= 1


def oracle_dual(a, b, cfg):
    """The pipeline spelled out element by element on the oracle scheduler:
    B's schedule, the pair mask it induces, then the A-side schedule."""
    lanes, m_dim, n_dim = a.shape[1], a.shape[2], b.shape[2]
    b_res = compact_schedule_reference(
        b[:, :, :, None], *cfg.b.as_tuple(), return_schedule=True
    )
    pair = np.zeros((b_res.cycles, lanes, m_dim, n_dim), dtype=bool)
    for u, row in enumerate(b_res.schedule.reshape(-1, lanes * n_dim)):
        for slot, entry in enumerate(row):
            if entry >= 0:
                t, src = divmod(int(entry), lanes * n_dim)
                lane, n = divmod(slot, n_dim)
                pair[u, lane, :, n] = a[t, src // n_dim, :]
    a_res = compact_schedule_reference(pair, *cfg.a.as_tuple())
    return a_res.cycles, b_res.cycles, a_res.executed_ops, a_res.borrowed_ops


@pytest.mark.parametrize(
    "cfg",
    [sparse_ab(1, 1, 1, 2, 1, 1), sparse_ab(2, 0, 1, 1, 2, 0), sparse_ab(1, 0, 0, 3, 0, 2)],
    ids=lambda c: c.notation,
)
def test_batch_matches_oracle_pipeline(cfg):
    """Pair by pair, over different depths and an all-zero B tile."""
    rng = np.random.default_rng(12)
    pairs = []
    for t, pb in ((9, 0.3), (5, 0.6), (12, 0.0), (7, 0.45)):
        a = rng.random((t, 4, 2)) < 0.4
        pairs.append((a, rng.random((t, 4, 3)) < pb))
    got = dual_sparse_cycles_batch(pairs, cfg)
    assert len({r.b_schedule_len for r in got}) > 1
    for res, (a, b) in zip(got, pairs):
        want = oracle_dual(a, b, cfg)
        assert (res.cycles, res.b_schedule_len, res.executed_pairs, res.borrowed_ops) == want
