"""Tests for the rotation-based load-balancing shuffle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.shuffle import rotation_shuffle


class TestRotationShuffle:
    def test_time_step_zero_is_identity(self):
        rng = np.random.default_rng(0)
        mask = rng.random((5, 8, 3)) < 0.5
        out = rotation_shuffle(mask)
        np.testing.assert_array_equal(out[0], mask[0])

    def test_rotates_by_one_lane_per_step(self):
        mask = np.zeros((3, 4, 1), dtype=bool)
        mask[:, 0, 0] = True  # hot lane 0
        out = rotation_shuffle(mask)
        # Slot l at time t receives source lane (l + t) % L, so the hot
        # lane's element appears at slot (0 - t) % L.
        assert out[0, 0, 0]
        assert out[1, 3, 0]
        assert out[2, 2, 0]

    def test_is_permutation_per_time_step(self):
        rng = np.random.default_rng(1)
        mask = rng.random((7, 16, 4)) < 0.3
        out = rotation_shuffle(mask)
        np.testing.assert_array_equal(out.sum(axis=1), mask.sum(axis=1))

    def test_preserves_total_ops(self):
        rng = np.random.default_rng(2)
        mask = rng.random((9, 16, 2, 3)) < 0.4
        assert rotation_shuffle(mask).sum() == mask.sum()

    def test_spreads_persistent_hot_lane(self):
        mask = np.zeros((16, 16, 1), dtype=bool)
        mask[:, 5, :] = True
        out = rotation_shuffle(mask)
        per_slot = out.sum(axis=0)[:, 0]
        # The 16 hot elements are distributed one per slot.
        np.testing.assert_array_equal(per_slot, np.ones(16, dtype=np.int64))

    def test_pairing_preserved_between_a_and_b(self):
        # Applying the same rotation to both operands keeps (t, k) pairs.
        rng = np.random.default_rng(3)
        a = rng.random((6, 8, 4)) < 0.5
        b = rng.random((6, 8, 5)) < 0.5
        both = a[:, :, :, None] & b[:, :, None, :]
        lhs = rotation_shuffle(a)[:, :, :, None] & rotation_shuffle(b)[:, :, None, :]
        rhs = rotation_shuffle(both)
        np.testing.assert_array_equal(lhs, rhs)

    def test_does_not_modify_input(self):
        mask = np.eye(4, dtype=bool)[None].repeat(3, axis=0)
        copy = mask.copy()
        rotation_shuffle(mask)
        np.testing.assert_array_equal(mask, copy)

    @pytest.mark.parametrize("shape", [
        (5, 16, 4), (16, 16, 3), (1, 16, 4), (64, 16, 32),
        (3, 8, 2, 5), (1, 8, 2, 5), (12, 8, 2, 5),
    ])
    def test_equals_the_take_along_axis_form(self, shape):
        """The gather equals the former ``take_along_axis`` form on 3-D
        and 4-D masks, with ``T < L``, ``T == L``, ``T > L`` and ``T == 1``."""
        mask = np.random.default_rng(sum(shape)).random(shape) < 0.4
        t_steps, lanes = shape[:2]
        source = (np.arange(lanes)[None, :] + np.arange(t_steps)[:, None]) % lanes
        reference = np.take_along_axis(
            mask, source.reshape((t_steps, lanes) + (1,) * (mask.ndim - 2)), axis=1
        )
        out = rotation_shuffle(mask)
        assert out.dtype == mask.dtype
        np.testing.assert_array_equal(out, reference)


@settings(max_examples=30, deadline=None)
@given(
    t=st.integers(1, 12),
    lanes=st.integers(1, 16),
    c=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
def test_shuffle_is_bijective(t, lanes, c, seed):
    rng = np.random.default_rng(seed)
    mask = (rng.random((t, lanes, c)) * 1000).astype(np.int64)  # unique-ish values
    out = rotation_shuffle(mask)
    for step in range(t):
        assert sorted(out[step].ravel()) == sorted(mask[step].ravel())
