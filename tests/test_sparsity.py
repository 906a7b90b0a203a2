"""Tests for the synthetic structured sparsity generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.workloads.sparsity import (
    SparsityProfile,
    act_profile,
    activation_tile_mask,
    channel_factors,
    sample_act_field,
    sample_weight_field,
    smooth_factors,
    weight_profile,
    weight_tile_mask,
)


class TestProfiles:
    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            SparsityProfile(1.5, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            SparsityProfile(-0.1, 0, 0, 0, 0)

    def test_rejects_negative_cv(self):
        with pytest.raises(ValueError):
            SparsityProfile(0.5, -1, 0, 0, 0)

    def test_dense_flag(self):
        assert SparsityProfile(1.0, 0, 0, 0, 0).is_dense
        assert not weight_profile(0.2).is_dense


class TestFactors:
    def test_unit_mean(self):
        rng = np.random.default_rng(0)
        f = channel_factors(rng, 1000, 0.7)
        assert f.mean() == pytest.approx(1.0)

    def test_cv_close_to_requested(self):
        rng = np.random.default_rng(1)
        f = channel_factors(rng, 20000, 0.5)
        assert f.std() == pytest.approx(0.5, rel=0.1)

    def test_zero_cv_is_ones(self):
        rng = np.random.default_rng(2)
        np.testing.assert_array_equal(channel_factors(rng, 10, 0.0), np.ones(10))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            channel_factors(np.random.default_rng(0), 0, 0.5)

    def test_smooth_factors_are_correlated(self):
        rng = np.random.default_rng(3)
        f = smooth_factors(rng, 5000, 0.6)
        raw = channel_factors(np.random.default_rng(3), 5000, 0.6)
        def lag1(x):
            return np.corrcoef(x[:-1], x[1:])[0, 1]
        assert lag1(f) > lag1(raw) + 0.2


def _weight_setup(density=0.2, k=256, n=64, channels=32, seed=0):
    rng = np.random.default_rng(seed)
    profile = weight_profile(density)
    field = sample_weight_field(rng, profile, k, n, channels, k0=16)
    return rng, profile, field


class TestWeightMasks:
    def test_density_close_to_target(self):
        rng, profile, field = _weight_setup(density=0.25, k=1600, n=160, channels=64)
        total = 0
        count = 0
        for ni in range(10):
            mask = weight_tile_mask(
                rng, profile, field, t_steps=100, k0=16,
                k_offset=0, k_total=1600, n_offset=ni * 16, n_tile=16, n_total=160,
            )
            total += mask.sum()
            count += mask.size
        assert total / count == pytest.approx(0.25, rel=0.15)

    def test_edge_positions_zero(self):
        rng, profile, field = _weight_setup(k=100, n=10)
        mask = weight_tile_mask(
            rng, profile, field, t_steps=7, k0=16,
            k_offset=0, k_total=100, n_offset=0, n_tile=16, n_total=10,
        )
        flat_k = np.arange(7 * 16).reshape(7, 16)
        assert not mask[flat_k >= 100].any()
        assert not mask[:, :, 10:].any()

    def test_dense_profile_fills_valid_region(self):
        rng = np.random.default_rng(0)
        profile = SparsityProfile(1.0, 0, 0, 0, 0)
        field = sample_weight_field(rng, profile, 64, 16, 8, k0=16)
        mask = weight_tile_mask(
            rng, profile, field, t_steps=4, k0=16,
            k_offset=0, k_total=64, n_offset=0, n_tile=16, n_total=16,
        )
        assert mask.all()

    def test_lane_factor_creates_persistent_imbalance(self):
        rng, profile, field = _weight_setup(density=0.2, k=3200, n=16, channels=100, seed=5)
        mask = weight_tile_mask(
            rng, profile, field, t_steps=200, k0=16,
            k_offset=0, k_total=3200, n_offset=0, n_tile=16, n_total=16,
        )
        lane_density = mask.mean(axis=(0, 2))
        spread = lane_density.max() / max(lane_density.min(), 1e-9)
        assert spread > 1.5  # calibrated lane_cv must show up

    def test_deterministic_given_rng_state(self):
        def build():
            rng, profile, field = _weight_setup(seed=9)
            return weight_tile_mask(
                rng, profile, field, t_steps=8, k0=16,
                k_offset=0, k_total=256, n_offset=0, n_tile=16, n_total=64,
            )
        np.testing.assert_array_equal(build(), build())


class TestActivationMasks:
    def test_density_close_to_target(self):
        rng = np.random.default_rng(1)
        profile = act_profile(0.5)
        field = sample_act_field(rng, profile, 800, 500, 50, k0=16)
        mask = activation_tile_mask(
            rng, profile, field, t_steps=50, k0=16,
            k_offset=0, k_total=800, m_offset=0, m_tile=400, m_total=500,
        )
        assert mask.mean() == pytest.approx(0.5, rel=0.15)

    def test_edge_rows_zero(self):
        rng = np.random.default_rng(2)
        profile = act_profile(0.9)
        field = sample_act_field(rng, profile, 64, 10, 4, k0=16)
        mask = activation_tile_mask(
            rng, profile, field, t_steps=4, k0=16,
            k_offset=0, k_total=64, m_offset=8, m_tile=4, m_total=10,
        )
        assert not mask[:, :, 2:].any()


#: Independent tiles averaged per example of the density property.
DENSITY_TILES = 32


@settings(max_examples=25, deadline=None)
@given(
    density=st.floats(0.05, 0.95),
    k=st.integers(32, 512),
    n=st.integers(4, 64),
    seed=st.integers(0, 2**31),
)
# One tile of this size holds 128 weights, so its density is a near-binomial
# draw: over seeds 0-999 its mean is 0.0931 (target 0.09375), its std 0.025,
# and 0.3% of single tiles fall below the band (seed 306583: 0.0234).
@example(density=0.09375, k=32, n=4, seed=306583)
def test_weight_mask_density_statistics(density, k, n, seed):
    """Generated density tracks the target across the parameter space.

    The band applies to the mean of ``DENSITY_TILES`` independent tiles
    (fresh field and tile per child seed): a single small tile's sampling
    noise leaves it, while a biased sampler still moves the mean out.
    """
    profile = weight_profile(density)
    t = (k + 15) // 16
    valid = k * min(16, n)
    densities = []
    for child in np.random.SeedSequence(seed).spawn(DENSITY_TILES):
        rng = np.random.default_rng(child)
        field = sample_weight_field(rng, profile, k, n, max(1, k // 9), k0=16)
        mask = weight_tile_mask(
            rng, profile, field, t_steps=t, k0=16,
            k_offset=0, k_total=k, n_offset=0, n_tile=min(16, n), n_total=n,
        )
        densities.append(mask.sum() / valid)
    achieved = float(np.mean(densities))
    # Clipping at 1.0 biases extreme-CV draws; allow a loose band.
    assert 0.3 * density < achieved < min(1.0, 2.5 * density + 0.05)
