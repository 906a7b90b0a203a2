"""Tests for the offline weight-compression artifact (Fig. 3 step 1)."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ArchConfig, sparse_a, sparse_b
from repro.core.overhead import overhead_of
from repro.sim.compaction import compact_schedule, unpack_schedule


@dataclass(frozen=True)
class CompressedWeights:
    """The preprocessed form of one weight tile.

    ``slots[u, l, n]`` holds the original time step of the element executed
    by lane ``l`` of column ``n`` at compressed step ``u`` (-1 when idle);
    ``lane_offset`` / ``col_offset`` are its borrowing displacements
    (``delta2`` / ``delta3``).  ``metadata_bits`` is the per-element width
    the overhead model assigns the architecture.
    """

    shape: tuple[int, int, int]  # original (T, L, N)
    slots: np.ndarray
    lane_offset: np.ndarray
    col_offset: np.ndarray
    metadata_bits: int

    @property
    def steps(self) -> int:
        return self.slots.shape[0]

    @property
    def nonzeros(self) -> int:
        return int((self.slots >= 0).sum())

    @property
    def tree_flag(self) -> np.ndarray:
        """Ops executing in a neighbour PE's multiplier (Fig. 2(b))."""
        return self.col_offset > 0

    @property
    def compression_ratio(self) -> float:
        """Dense 8-bit storage over 8-bit values plus metadata per nonzero."""
        t, l, n = self.shape
        return t * l * n * 8 / (self.nonzeros * (8 + self.metadata_bits))


def preprocess_weights(b_mask: np.ndarray, config: ArchConfig) -> CompressedWeights:
    """Compress a weight tile mask ``[T, L, N]`` for a Sparse.B datapath.

    Preprocessing is a static run of the runtime borrow scheduler,
    re-expressed as the per-slot displacement metadata the hardware stores.
    """
    b_mask = np.asarray(b_mask, dtype=bool)
    if b_mask.ndim != 3:
        raise ValueError(f"weight mask must be [T, L, N], got shape {b_mask.shape}")
    if not config.supports_b_sparsity:
        raise ValueError(f"{config.label} does not preprocess weights")
    t_steps, lanes, n_dim = b_mask.shape
    res = compact_schedule(b_mask, *config.b.as_tuple(), return_schedule=True)
    bits = overhead_of(config).metadata_bits
    if not res.schedule.size:
        idle = np.full((res.cycles, lanes, n_dim), -1, dtype=np.int64)
        return CompressedWeights(b_mask.shape, idle, 0 * idle, 0 * idle, bits)
    slots, src_lane, src_col, _ = (
        c.reshape(-1, lanes, n_dim)
        for c in unpack_schedule(res.schedule.copy(), b_mask.shape + (1,))
    )
    occupied = slots >= 0
    lane_offset = np.where(occupied, (src_lane - np.arange(lanes)[:, None]) % lanes, 0)
    col_offset = np.where(occupied, src_col - np.arange(n_dim), 0)
    return CompressedWeights(b_mask.shape, slots, lane_offset, col_offset, bits)


def expand(compressed: CompressedWeights) -> np.ndarray:
    """The original nonzero mask, rebuilt from the compressed stream."""
    t_steps, lanes, n_dim = compressed.shape
    mask = np.zeros((t_steps, lanes, n_dim), dtype=bool)
    occupied = compressed.slots >= 0
    _, lane, col = np.indices(compressed.slots.shape)
    src_lane = (lane + compressed.lane_offset) % lanes
    src_col = col + compressed.col_offset
    mask[compressed.slots[occupied], src_lane[occupied], src_col[occupied]] = True
    return mask


def mask(seed=0, t=24, lanes=8, n=6, density=0.25):
    rng = np.random.default_rng(seed)
    return rng.random((t, lanes, n)) < density


class TestRoundTrip:
    def test_lossless(self):
        m = mask()
        comp = preprocess_weights(m, sparse_b(4, 0, 1))
        np.testing.assert_array_equal(expand(comp), m)

    def test_lossless_with_lane_borrowing(self):
        m = mask(seed=3)
        comp = preprocess_weights(m, sparse_b(2, 2, 0))
        np.testing.assert_array_equal(expand(comp), m)

    def test_all_zero_tile(self):
        m = np.zeros((10, 4, 2), dtype=bool)
        comp = preprocess_weights(m, sparse_b(4, 0, 0))
        assert comp.nonzeros == 0
        np.testing.assert_array_equal(expand(comp), m)

    def test_dense_tile_is_identity_schedule(self):
        m = np.ones((8, 4, 2), dtype=bool)
        comp = preprocess_weights(m, sparse_b(2, 0, 0))
        assert comp.steps == 8
        assert (comp.lane_offset == 0).all()
        assert (comp.col_offset == 0).all()


class TestStructure:
    def test_steps_match_scheduler(self):
        m = mask(seed=5)
        comp = preprocess_weights(m, sparse_b(4, 0, 1))
        ref = compact_schedule(m, 4, 0, 1, return_schedule=True)
        assert comp.steps == len(ref.schedule)

    def test_offsets_bounded_by_distances(self):
        m = mask(seed=6, density=0.4)
        db2, db3 = 2, 1
        comp = preprocess_weights(m, sparse_b(2, db2, db3))
        occupied = comp.slots >= 0
        assert comp.lane_offset[occupied].max() <= db2
        assert comp.col_offset[occupied].max() <= db3

    def test_tree_flag_only_for_col_borrows(self):
        m = mask(seed=7)
        comp = preprocess_weights(m, sparse_b(2, 0, 2))
        np.testing.assert_array_equal(comp.tree_flag, comp.col_offset > 0)

    def test_metadata_width_matches_overhead_model(self):
        comp = preprocess_weights(mask(), sparse_b(2, 0, 1))
        assert comp.metadata_bits == 3  # Table III

    def test_compression_ratio(self):
        m = mask(density=0.2)
        comp = preprocess_weights(m, sparse_b(4, 0, 0))
        # 20% density with 8+3 bits per kept element vs 8 dense bits.
        expected = 8.0 / (m.mean() * (8 + comp.metadata_bits))
        assert comp.compression_ratio == pytest.approx(expected, rel=0.01)
        assert comp.compression_ratio > 3.0

    def test_rejects_wrong_inputs(self):
        with pytest.raises(ValueError):
            preprocess_weights(np.ones((4, 4), dtype=bool), sparse_b(2, 0, 0))
        with pytest.raises(ValueError):
            preprocess_weights(mask(), sparse_a(2, 0, 0))


@settings(max_examples=30, deadline=None)
@given(
    t=st.integers(1, 16),
    lanes=st.integers(1, 8),
    n=st.integers(1, 6),
    db1=st.integers(1, 4),
    db2=st.integers(0, 2),
    db3=st.integers(0, 2),
    seed=st.integers(0, 2**31),
    density=st.floats(0.0, 1.0),
)
def test_roundtrip_property(t, lanes, n, db1, db2, db3, seed, density):
    """Compression is lossless for every mask and borrowing config."""
    rng = np.random.default_rng(seed)
    m = rng.random((t, lanes, n)) < density
    comp = preprocess_weights(m, sparse_b(db1, db2, db3))
    np.testing.assert_array_equal(expand(comp), m)
    assert comp.nonzeros == int(m.sum())
