"""Value-level equivalence: scheduled sparse execution computes A @ B.

The strongest correctness statement in the reproduction: for every
borrowing configuration, pushing real values through the compacted
schedules produces bit-exact dense-GEMM results -- every effectual product
computed exactly once and routed to the right accumulator.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ArchConfig, sparse_a, sparse_ab, sparse_b
from repro.sim.compaction import compact_schedule, unpack_schedule
from repro.sim.dual import dual_sparse_cycles
from repro.sim.shuffle import rotation_shuffle


# -- value-level executors ------------------------------------------------
#
# The cycle model works on nonzero masks; these push *values* through the
# same schedules, routing every scheduled op by its original coordinates
# (the AMUX/BMUX metadata and partial-sum return paths) and returning the
# schedule statistics next to ``C``.


@dataclass(frozen=True)
class FunctionalResult:
    output: np.ndarray  # C[M, N]
    cycles: int
    executed_ops: int


def dense_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The answer every scheduled execution must reproduce."""
    return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)


def _blocked(values: np.ndarray, k0: int) -> tuple[np.ndarray, np.ndarray]:
    """``[R, K]`` zero-padded along K to ``T * k0``, and its ``[T, L, R]`` mask."""
    rows, k = values.shape
    t_steps = -(-k // k0)
    padded = np.zeros((rows, t_steps * k0), dtype=np.int64)
    padded[:, :k] = values
    return padded, (padded != 0).reshape(rows, t_steps, k0).transpose(1, 2, 0)


def _source_k(t: np.ndarray, lane: np.ndarray, config: ArchConfig) -> np.ndarray:
    """Blocked K index of scheduled ``(t, lane)``, undoing the rotation."""
    k0 = config.geometry.k0
    return t * k0 + ((lane + t) % k0 if config.shuffle else lane)


def _execute_single(a, b, config: ArchConfig, weights: bool) -> FunctionalResult:
    """``C = A @ B`` through the Sparse.B (``weights``) or Sparse.A schedule."""
    k0 = config.geometry.k0
    a_blk, a_mask = _blocked(np.asarray(a), k0)  # [M, K_pad]
    b_blk, b_mask = _blocked(np.asarray(b).T, k0)  # [N, K_pad]
    mask = b_mask if weights else a_mask
    if config.shuffle:
        mask = rotation_shuffle(mask)
    side = config.b if weights else config.a
    res = compact_schedule(mask, *side.as_tuple(), return_schedule=True)
    out = np.zeros((a_blk.shape[0], b_blk.shape[0]), dtype=np.int64)
    sched = res.schedule
    if sched.size:
        t, lane, row, _ = unpack_schedule(sched.copy(), mask.shape + (1,))
        ok = sched >= 0
        for kk, rr in zip(_source_k(t[ok], lane[ok], config), row[ok]):
            if weights:
                out[:, rr] += a_blk[:, kk] * b_blk[rr, kk]
            else:
                out[rr, :] += a_blk[rr, kk] * b_blk[:, kk]
    return FunctionalResult(out, res.cycles, res.executed_ops)


def execute_weight_sparse(a, b, config: ArchConfig) -> FunctionalResult:
    return _execute_single(a, b, config, weights=True)


def execute_activation_sparse(a, b, config: ArchConfig) -> FunctionalResult:
    return _execute_single(a, b, config, weights=False)


def execute_dual_sparse(a, b, config: ArchConfig) -> FunctionalResult:
    """``C = A @ B`` through the dual-sparse pipeline of Fig. 3.

    Phase 1 compresses B offline with provenance; phase 2 arbitrates the
    surviving (A, B) pairs over the compressed steps per PE, and every
    product lands at its *original* output position whichever PE ran it.
    """
    k0 = config.geometry.k0
    a_blk, a_mask = _blocked(np.asarray(a), k0)
    b_blk, b_mask = _blocked(np.asarray(b).T, k0)
    m_dim, n_dim = a_blk.shape[0], b_blk.shape[0]
    if config.shuffle:
        a_mask, b_mask = rotation_shuffle(a_mask), rotation_shuffle(b_mask)
    out = np.zeros((m_dim, n_dim), dtype=np.int64)

    phase1 = compact_schedule(b_mask, *config.b.as_tuple(), return_schedule=True)
    sched1 = phase1.schedule
    if not sched1.size:
        return FunctionalResult(out, phase1.cycles, 0)
    u_steps = sched1.shape[0]
    tb, lb, nb, _ = (
        c.reshape(u_steps, k0, n_dim)
        for c in unpack_schedule(sched1.copy(), b_mask.shape + (1,))
    )
    # A pair survives when the A element at B's original coordinates is
    # nonzero (in the shuffled frame A and B line up).
    occupied = tb >= 0
    paired = a_mask[np.where(occupied, tb, 0), np.where(occupied, lb, 0)]
    pair_mask = (paired & occupied[..., np.newaxis]).transpose(0, 1, 3, 2)
    tail = np.zeros((phase1.cycles - u_steps,) + pair_mask.shape[1:], dtype=bool)
    pair_mask = np.concatenate([pair_mask, tail])  # [U, L, M, N]

    phase2 = compact_schedule(pair_mask, *config.a.as_tuple(), return_schedule=True)
    sched2 = phase2.schedule
    if sched2.size:
        u, lane, row, col = unpack_schedule(sched2.copy(), pair_mask.shape)
        ok = sched2 >= 0
        for uu, ll, mm, nn in zip(u[ok], lane[ok], row[ok], col[ok]):
            kk = _source_k(tb[uu, ll, nn], lb[uu, ll, nn], config)
            n_orig = nb[uu, ll, nn]
            out[mm, n_orig] += a_blk[mm, kk] * b_blk[n_orig, kk]
    return FunctionalResult(out, phase2.cycles, phase2.executed_ops)


def operands(seed, m=4, k=48, n=12, a_density=0.6, b_density=0.3):
    rng = np.random.default_rng(seed)
    a = rng.integers(-8, 8, size=(m, k))
    a[rng.random((m, k)) > a_density] = 0
    b = rng.integers(-8, 8, size=(k, n))
    b[rng.random((k, n)) > b_density] = 0
    return a, b


class TestWeightSparse:
    @pytest.mark.parametrize("db", [(2, 0, 0), (4, 0, 1), (2, 2, 0), (3, 1, 2)])
    def test_matches_dense(self, db):
        a, b = operands(1)
        res = execute_weight_sparse(a, b, sparse_b(*db))
        np.testing.assert_array_equal(res.output, dense_reference(a, b))

    def test_matches_dense_with_shuffle(self):
        a, b = operands(2)
        res = execute_weight_sparse(a, b, sparse_b(4, 0, 1, shuffle=True))
        np.testing.assert_array_equal(res.output, dense_reference(a, b))

    def test_executes_each_nonzero_once(self):
        a, b = operands(3)
        res = execute_weight_sparse(a, b, sparse_b(4, 0, 1))
        assert res.executed_ops == int((b != 0).sum())

    def test_unaligned_k(self):
        a, b = operands(4, k=37)  # not a multiple of K0
        res = execute_weight_sparse(a, b, sparse_b(2, 1, 0))
        np.testing.assert_array_equal(res.output, dense_reference(a, b))


class TestActivationSparse:
    @pytest.mark.parametrize("da", [(1, 0, 0), (2, 1, 0), (2, 1, 1)])
    def test_matches_dense(self, da):
        a, b = operands(5, a_density=0.4, b_density=1.0)
        res = execute_activation_sparse(a, b, sparse_a(*da))
        np.testing.assert_array_equal(res.output, dense_reference(a, b))

    def test_matches_dense_with_shuffle(self):
        a, b = operands(6, a_density=0.4, b_density=1.0)
        res = execute_activation_sparse(a, b, sparse_a(2, 1, 0, shuffle=True))
        np.testing.assert_array_equal(res.output, dense_reference(a, b))


class TestDualSparse:
    @pytest.mark.parametrize(
        "cfg",
        [
            sparse_ab(1, 0, 0, 1, 0, 0),
            sparse_ab(2, 0, 0, 2, 0, 1),
            sparse_ab(2, 0, 0, 2, 0, 1, shuffle=True),
        ],
        ids=lambda c: c.notation,
    )
    def test_matches_dense(self, cfg):
        a, b = operands(7)
        res = execute_dual_sparse(a, b, cfg)
        np.testing.assert_array_equal(res.output, dense_reference(a, b))

    def test_cycles_match_performance_model(self):
        a, b = operands(8)
        cfg = sparse_ab(2, 0, 0, 2, 0, 1)
        k0 = cfg.geometry.k0
        func = execute_dual_sparse(a, b, cfg)
        # Rebuild the same blocked masks the performance model sees.
        t = -(-a.shape[1] // k0)
        a_blk = np.zeros((a.shape[0], t * k0), dtype=np.int64)
        a_blk[:, : a.shape[1]] = a
        b_pad = np.zeros((t * k0, b.shape[1]), dtype=np.int64)
        b_pad[: b.shape[0]] = b
        a_mask = (a_blk != 0).reshape(a.shape[0], t, k0).transpose(1, 2, 0)
        b_mask = (b_pad != 0).reshape(t, k0, b.shape[1])
        perf = dual_sparse_cycles(a_mask, b_mask, cfg)
        assert func.cycles == perf.cycles
        assert func.executed_ops == perf.executed_pairs

    def test_executes_only_effectual_pairs(self):
        a, b = operands(9)
        cfg = sparse_ab(2, 0, 0, 2, 0, 0)
        res = execute_dual_sparse(a, b, cfg)
        pairs = int(((a != 0).T[:, :, None] & (b != 0)[:, None, :]).sum())
        assert res.executed_ops == pairs

    def test_all_zero_operands(self):
        a = np.zeros((4, 32), dtype=np.int64)
        b = np.zeros((32, 8), dtype=np.int64)
        res = execute_dual_sparse(a, b, sparse_ab(1, 0, 0, 1, 0, 0))
        assert (res.output == 0).all()


class TestShuffleFrameConsistency:
    def test_rotation_is_self_inverse_mapping(self):
        # The un-rotation used by the functional path must invert the
        # shuffle: gathering source (l+t)%L then writing back to (l+t)%L
        # restores the original layout.
        rng = np.random.default_rng(10)
        x = rng.integers(0, 100, size=(6, 16, 3))
        shuffled = rotation_shuffle(x)
        t_idx = np.arange(6)[:, None, None]
        l_idx = np.arange(16)[None, :, None]
        restored = np.empty_like(x)
        src = (l_idx + t_idx) % 16
        np.put_along_axis(restored, np.broadcast_to(src, x.shape), shuffled, axis=1)
        np.testing.assert_array_equal(restored, x)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    m=st.integers(1, 6),
    k=st.integers(1, 70),
    n=st.integers(1, 20),
    db1=st.integers(1, 4),
    db2=st.integers(0, 2),
    db3=st.integers(0, 2),
    shuffle=st.booleans(),
    density=st.floats(0.0, 1.0),
)
def test_weight_sparse_equivalence_property(seed, m, k, n, db1, db2, db3, shuffle, density):
    """Scheduled execution equals dense matmul for any shape and config."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-5, 5, size=(m, k))
    b = rng.integers(-5, 5, size=(k, n))
    b[rng.random((k, n)) > density] = 0
    cfg = sparse_b(db1, db2, db3, shuffle=shuffle)
    res = execute_weight_sparse(a, b, cfg)
    np.testing.assert_array_equal(res.output, dense_reference(a, b))
    assert res.executed_ops == int((b != 0).sum())
