"""Synthetic structured sparsity for benchmark tensors.

The simulator needs nonzero *structure*, not values.  Real pruned weights
and ReLU activations are far from i.i.d. Bernoulli; the structure that the
borrowing architectures exploit is *channel level*:

* **per-lane imbalance** (``lane_cv``) -- magnitude pruning keeps very
  different fractions of each input channel / kernel tap, and the Figure 1
  blocking maps those positions onto fixed dot-product-unit lanes, so some
  lanes are persistently denser.  This is the imbalance the rotation
  shuffler and the ``d2`` lane lookaside fix (Fig. 5/6 observations 3-4).
* **per-filter channel structure** (``cross_cv``) -- which channels a
  filter keeps is largely filter-specific, so the density seen by adjacent
  PE columns is independent; that is the imbalance the cross-PE ``d3``
  dimension pools (Fig. 5 observation 2).
* **per-output totals** (``other_cv``) -- whole filters / spatial rows have
  different overall densities, a milder persistent component.
* **local variation** (``local_cv``) -- residual per-element density noise
  absorbed by the ``d1`` lookahead.

All factors are gamma-distributed with unit mean, multiplied, clipped and
Bernoulli-sampled, deterministic in the layer seed.  The default CVs are
calibration constants: EXPERIMENTS.md records how the resulting network
level speedups line up with the paper's Figs. 5-7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Persistent per-lane density CV of pruned weight tensors.
WEIGHT_LANE_CV = 0.45
#: Filter-specific channel-structure CV of pruned weight tensors.
WEIGHT_CROSS_CV = 0.55
#: Per-filter total-density CV of pruned weight tensors.
WEIGHT_N_CV = 0.2
#: Residual local CV of pruned weight tensors.
WEIGHT_LOCAL_CV = 0.2
#: Persistent per-lane density CV of ReLU activation tensors.
ACT_LANE_CV = 0.4
#: Channel-structure CV of ReLU activation tensors (varies per row block).
ACT_CROSS_CV = 0.4
#: Per-row (output-pixel) density CV of ReLU activation tensors.
ACT_M_CV = 0.3
#: Residual local CV of ReLU activation tensors.
ACT_LOCAL_CV = 0.25
#: Densities are clipped to at least this after applying factors.
DENSITY_FLOOR = 0.01


@dataclass(frozen=True)
class SparsityProfile:
    """Statistical description of one operand tensor's sparsity.

    ``density`` is the nonzero fraction; the CVs correspond to the factor
    fields described in the module docstring.  ``cross_cv`` only applies to
    weights (filter-specific channel structure).
    """

    density: float
    lane_cv: float
    cross_cv: float
    other_cv: float
    local_cv: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {self.density}")
        for name in ("lane_cv", "cross_cv", "other_cv", "local_cv"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def is_dense(self) -> bool:
        return self.density >= 1.0


def weight_profile(density: float) -> SparsityProfile:
    """Default profile for a pruned weight tensor."""
    return SparsityProfile(
        density=density,
        lane_cv=WEIGHT_LANE_CV,
        cross_cv=WEIGHT_CROSS_CV,
        other_cv=WEIGHT_N_CV,
        local_cv=WEIGHT_LOCAL_CV,
    )


def act_profile(density: float) -> SparsityProfile:
    """Default profile for a ReLU activation tensor."""
    return SparsityProfile(
        density=density,
        lane_cv=ACT_LANE_CV,
        cross_cv=ACT_CROSS_CV,
        other_cv=ACT_M_CV,
        local_cv=ACT_LOCAL_CV,
    )


def channel_factors(rng: np.random.Generator, count: int, cv: float) -> np.ndarray:
    """Per-channel density multipliers with unit mean and the given CV.

    Gamma-distributed with ``shape = 1 / cv**2`` (gamma CV is
    ``1/sqrt(shape)``), so higher CV concentrates density into fewer
    channels -- the signature of magnitude pruning.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if cv <= 0:
        return np.ones(count)
    shape = 1.0 / (cv * cv)
    factors = rng.gamma(shape, 1.0 / shape, size=count)
    return factors / factors.mean()


def smooth_factors(rng: np.random.Generator, count: int, cv: float, window: int = 4) -> np.ndarray:
    """Spatially-correlated factors (adjacent rows share density)."""
    raw = channel_factors(rng, count, cv)
    if count >= 2 * window:
        kernel = np.ones(window) / window
        raw = np.convolve(raw, kernel, mode="same")
        raw /= raw.mean()
    return raw


@dataclass(frozen=True)
class WeightFactorField:
    """Sampled density-factor fields for one weight tensor ``B[K, N]``.

    The probability of element ``(k, n)`` being nonzero is
    ``density * lane[k % K0] * delta[c(k), n] * nf[n] * local[k]`` with
    ``c(k) = k % channels``: a persistent per-lane factor, a
    filter-specific channel-structure factor, a per-filter total, and
    residual local noise (see the module docstring).
    """

    k0: int
    channels: int
    lane: np.ndarray  # [K0]
    delta: np.ndarray  # [channels, N]
    n_factor: np.ndarray  # [N]
    local: np.ndarray  # [K]

    def probs(self, density: float, k_idx: np.ndarray, n_idx: np.ndarray) -> np.ndarray:
        """Nonzero probabilities for positions ``k_idx x n_idx``."""
        c = k_idx % self.channels
        delta = self.delta[c[..., np.newaxis], n_idx[np.newaxis, np.newaxis, :]]
        kf = (self.lane[k_idx % self.k0] * self.local[k_idx])[..., np.newaxis]
        probs = density * kf * delta * self.n_factor[n_idx]
        return np.clip(probs, DENSITY_FLOOR, 1.0)


def sample_weight_field(
    rng: np.random.Generator,
    profile: SparsityProfile,
    k_total: int,
    n_total: int,
    channels: int,
    k0: int = 16,
) -> WeightFactorField:
    """Draw the factor fields for one weight tensor."""
    channels = max(1, min(channels, k_total))
    lane = channel_factors(rng, k0, profile.lane_cv)
    if profile.cross_cv > 0:
        shape = 1.0 / (profile.cross_cv ** 2)
        delta = rng.gamma(shape, 1.0 / shape, size=(channels, n_total))
        delta /= delta.mean()
    else:
        delta = np.ones((channels, n_total))
    n_factor = channel_factors(rng, n_total, profile.other_cv)
    local = channel_factors(rng, k_total, profile.local_cv)
    return WeightFactorField(
        k0=k0, channels=channels, lane=lane, delta=delta, n_factor=n_factor, local=local
    )


@dataclass(frozen=True)
class ActFactorField:
    """Sampled density-factor fields for one activation tensor ``A[M, K]``.

    The probability of element ``(m, k)`` being nonzero is
    ``density * lane[k % K0] * chan[c(k)] * mf[m] * local[k]``: a
    persistent per-lane factor, a per-channel temporal factor (dead / hot
    feature maps), a spatially-smoothed per-row factor, and local noise.
    """

    k0: int
    channels: int
    lane: np.ndarray  # [K0]
    chan: np.ndarray  # [channels]
    m_factor: np.ndarray  # [M]
    local: np.ndarray  # [K]

    def probs(self, density: float, k_idx: np.ndarray, m_idx: np.ndarray) -> np.ndarray:
        c = k_idx % self.channels
        kf = self.lane[k_idx % self.k0] * self.chan[c] * self.local[k_idx]
        probs = density * kf[..., np.newaxis] * self.m_factor[m_idx]
        return np.clip(probs, DENSITY_FLOOR, 1.0)


def sample_act_field(
    rng: np.random.Generator,
    profile: SparsityProfile,
    k_total: int,
    m_total: int,
    channels: int,
    k0: int = 16,
) -> ActFactorField:
    """Draw the factor fields for one activation tensor."""
    channels = max(1, min(channels, k_total))
    lane = channel_factors(rng, k0, profile.lane_cv)
    chan = channel_factors(rng, channels, profile.cross_cv)
    m_factor = smooth_factors(rng, m_total, profile.other_cv)
    local = channel_factors(rng, k_total, profile.local_cv)
    return ActFactorField(
        k0=k0, channels=channels, lane=lane, chan=chan, m_factor=m_factor, local=local
    )


def _tile_indices(
    offset: int, width: int, total: int
) -> tuple[np.ndarray, np.ndarray]:
    idx = offset + np.arange(width)
    valid = idx < total
    return np.minimum(idx, total - 1), valid


def weight_tile_mask(
    rng: np.random.Generator,
    profile: SparsityProfile,
    field: WeightFactorField,
    t_steps: int,
    k0: int,
    k_offset: int,
    k_total: int,
    n_offset: int,
    n_tile: int,
    n_total: int,
) -> np.ndarray:
    """Generate a weight (B) tile mask ``[T, K0, N_tile]``.

    Positions past the end of K or N (edge tiles) are forced to zero, so
    edge passes naturally model idle lanes/PEs.
    """
    k_idx, k_valid = _tile_indices(k_offset, t_steps * k0, k_total)
    n_idx, n_valid = _tile_indices(n_offset, n_tile, n_total)
    probs = field.probs(profile.density, k_idx.reshape(t_steps, k0), n_idx)
    valid = k_valid.reshape(t_steps, k0)[:, :, np.newaxis] & n_valid[np.newaxis, np.newaxis, :]
    if profile.is_dense:
        return np.broadcast_to(valid, probs.shape).copy()
    mask = rng.random(probs.shape) < probs
    return mask & valid


def activation_tile_mask(
    rng: np.random.Generator,
    profile: SparsityProfile,
    field: ActFactorField,
    t_steps: int,
    k0: int,
    k_offset: int,
    k_total: int,
    m_offset: int,
    m_tile: int,
    m_total: int,
) -> np.ndarray:
    """Generate an activation (A) tile mask ``[T, K0, M_tile]``."""
    k_idx, k_valid = _tile_indices(k_offset, t_steps * k0, k_total)
    m_idx, m_valid = _tile_indices(m_offset, m_tile, m_total)
    probs = field.probs(profile.density, k_idx.reshape(t_steps, k0), m_idx)
    valid = k_valid.reshape(t_steps, k0)[:, :, np.newaxis] & m_valid[np.newaxis, np.newaxis, :]
    if profile.is_dense:
        return np.broadcast_to(valid, probs.shape).copy()
    mask = rng.random(probs.shape) < probs
    return mask & valid
