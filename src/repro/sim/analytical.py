"""Closed-form cycle estimates verifying the simulator (paper Sec. V).

The paper builds "an analytical model, verified by a simulator" around the
borrowing distances.  We reproduce that layering: these closed forms predict
tile cycles from density statistics alone, and the test suite checks the
cycle simulator against them (and vice versa) on randomized tiles.

For a tile of ``T`` time steps with per-slot effectual density ``p`` and
window ``w = 1 + d1``, a slot's drain time is governed by three bounds:

* **window bound** -- the front advances at most ``w`` positions per cycle,
  so ``cycles >= T / w`` (the paper's ideal-speedup cap ``1 + d1``);
* **work bound** -- a slot executes one op per cycle, so
  ``cycles >= nnz_slot``; borrowing over a pool of ``g = (1+d2)(1+d3)``
  neighbours averages this bound over the pool;
* **fluctuation loss** -- when the local density hovers near ``1/w`` the
  slot alternates between starving and saturating; a Gaussian local-density
  model prices that as a smooth-max between the two bounds.

The tile ends when the *slowest* slot drains (shared front), so the model
takes an order-statistics max across the heterogeneous per-slot densities.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import ArchConfig


def _smooth_max(mu: float, floor: float, sigma: float) -> float:
    """``E[max(X, floor)]`` for ``X ~ N(mu, sigma)`` -- the rectified mean."""
    if sigma <= 0.0:
        return max(mu, floor)
    z = (mu - floor) / sigma
    phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return floor + (mu - floor) * cdf + sigma * phi


def analytical_tile_cycles(
    t_steps: int,
    densities: np.ndarray,
    d1: int,
    d2: int = 0,
    d3: int = 0,
    pool_axis_len: int | None = None,
) -> float:
    """Expected cycles to drain one tile.

    Args:
        t_steps: K/K0 time steps in the tile.
        densities: per-slot effectual density, shape ``[L, C]`` (or any 2-D
            layout whose second axis is the ``d3`` pooling axis).
        d1: time lookahead.
        d2: lane pooling distance (first axis).
        d3: PE pooling distance (second axis).
        pool_axis_len: optional override of the ``d3`` axis length.
    """
    if t_steps <= 0:
        return 0.0
    densities = np.atleast_2d(np.asarray(densities, dtype=float))
    window = 1 + d1
    floor_rate = 1.0 / window

    # Borrowing pools a slot's work with its donors: approximate by a
    # moving average over the (d2, d3) neighbourhood (wrap on lanes).
    pooled = densities.copy()
    if d2 > 0:
        acc = np.zeros_like(pooled)
        for off in range(d2 + 1):
            acc += np.roll(densities, -off, axis=0)
        pooled = acc / (d2 + 1)
    if d3 > 0:
        acc = np.zeros_like(pooled)
        width = min(d3 + 1, pooled.shape[1] if pool_axis_len is None else pool_axis_len)
        for off in range(width):
            acc += np.roll(pooled, -off, axis=1)
        pooled = acc / width

    # The tile drains when its slowest stream does: the expected maximum of
    # per-stream work over S_eff effectively-independent pools adds the
    # classic Gumbel tail sqrt(2 p (1-p) ln S / T) to the mean rate.
    g = (1 + d2) * (1 + d3)
    n_slots = densities.size
    s_eff = max(n_slots / g, 2.0)
    variance = np.maximum(pooled * (1.0 - pooled), 0.0)
    tail = np.sqrt(2.0 * variance * math.log(s_eff) / (t_steps * g))
    sigma = np.sqrt(variance / max(window * g, 1))
    rates = np.array(
        [
            _smooth_max(mu, floor_rate, s)
            for mu, s in zip((pooled + tail).ravel(), sigma.ravel())
        ]
    )
    worst = float(rates.max())
    return t_steps * min(max(worst, floor_rate), 1.0)


def analytical_speedup(
    config: ArchConfig,
    weight_density: float | None,
    act_density: float | None,
    t_steps: int = 64,
    k_cv: float = 0.5,
) -> float:
    """Quick network-free speedup estimate for a design point.

    Used by the design-space explorer to pre-rank configurations before the
    cycle simulator refines the survivors.  Densities of ``None`` (or 1.0)
    mean the corresponding side is dense.
    """
    geometry = config.geometry
    w_density = 1.0 if weight_density is None else weight_density
    a_density = 1.0 if act_density is None else act_density
    use_b = config.supports_b_sparsity and w_density < 1.0
    use_a = config.supports_a_sparsity and a_density < 1.0
    if not (use_a or use_b):
        return 1.0

    rng = np.random.default_rng(7)

    def lane_profile(base: float, rows: int, cols: int) -> np.ndarray:
        cv = 0.0 if config.shuffle else k_cv
        if cv <= 0:
            return np.full((rows, cols), base)
        shape = 1.0 / (cv * cv)
        factors = rng.gamma(shape, 1.0 / shape, size=(rows, cols))
        factors /= factors.mean()
        return np.clip(base * factors, 0.01, 1.0)

    if use_b and use_a:
        dens = lane_profile(w_density, geometry.k0, geometry.n0)
        b_cycles = analytical_tile_cycles(t_steps, dens, *config.b.as_tuple())
        joint = a_density  # pair survival on top of B's schedule
        pair = lane_profile(joint, geometry.k0, geometry.m0)
        cycles = analytical_tile_cycles(
            int(round(b_cycles)), pair, *config.a.as_tuple()
        )
        return t_steps / max(cycles, 1e-9)
    if use_b:
        dens = lane_profile(w_density, geometry.k0, geometry.n0)
        cycles = analytical_tile_cycles(t_steps, dens, *config.b.as_tuple())
        return t_steps / max(cycles, 1e-9)
    dens = lane_profile(a_density, geometry.k0, geometry.m0)
    cycles = analytical_tile_cycles(t_steps, dens, *config.a.as_tuple())
    return t_steps / max(cycles, 1e-9)
