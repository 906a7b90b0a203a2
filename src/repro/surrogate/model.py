"""Closed-form analytical surrogate of the cycle-accurate engine.

The surrogate answers the question the exact engine answers -- end-to-end
network cycles of a borrowing configuration on a model category -- in
about a millisecond per config instead of seconds, so a search can
*screen* a whole design space and spend the exact engine only on the
predicted frontier (``fidelity: "multi"``, see ``docs/surrogate.md``).

Per GEMM the prediction is ``base * exp(theta . phi)``, clamped to the
same ``[min_cycles, dense_cycles]`` envelope the engine enforces:

* the **base** term mirrors every deterministic piece of the engine's
  :func:`~repro.sim.engine._simulate_gemm` arithmetic exactly (effective
  sparsity, Sparse.AB downgrades, tile-segment scaling, pipeline drain,
  the floor/cap clamps, the stall models) and replaces only the *sampled*
  mean tile cycles with a closed form: a rectified-Gaussian smooth-max of
  the work bound over the window floor with a Gumbel-style slot-max tail
  (:func:`tile_cycle_estimate`, the paper's "analytical model, verified by
  a simulator": ``benchmarks/test_analytical_verification.py`` checks it
  against the cycle scheduler);
* the **correction** ``exp(theta . phi)`` absorbs what the closed form
  abstracts away (factor-field imbalance, shuffle, borrowing
  interactions): a log-linear basis over borrowing distances x tensor
  density x tile depth, fitted per regime x effective family x workload
  (:class:`~repro.surrogate.store.FamilyConstants`) against the cache's
  exact results (:mod:`repro.surrogate.calibrate`).

Both are array expressions over a workload's GEMM table (:func:`gemm_table`),
one row per sparse GEMM; no RNG is involved.  Dense GEMMs are predicted
exactly, as the engine returns ``dense_cycles`` for them without sampling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.config import ArchConfig, BorrowConfig, ModelCategory
from repro.core.metrics import geometric_mean
from repro.dse.evaluate import (
    DesignEvaluation,
    DesignLike,
    EvalSettings,
    as_design,
)
from repro.gemm.layers import GemmShape
from repro.gemm.tiling import tile_grid
from repro.sim.engine import (
    SimulationOptions,
    _apply_stalls,
    _effective_sparsity,
    _min_cycles,
    _scheduling_config,
)
from repro.surrogate.store import (
    FamilyConstants,
    SurrogateConstants,
    load_constants,
)
from repro.workloads.models import NetworkLayer
from repro.workloads.registry import Workload, WorkloadLike, parse_workload


#: Hard ceiling of the calibration error budget: worst-case per-workload
#: relative network-cycles error across the Table IV workloads x the
#: Fig. 5-7 config grids, enforced per sampling regime by
#: ``repro surrogate check`` and by the error-budget test suite.
#: ``default`` is the declarative specs' production sampling (3 passes,
#: 64 time steps); ``quick`` is the smoke sampling (1 pass, 16 time
#: steps), where a single sampled tile of depth <=16 quantizes exact
#: per-GEMM cycles to ~1/18 granularity -- coarse enough that only the
#: per-workload correction vectors keep the worst case under the bar.
ERROR_BUDGET: dict[str, float] = {"default": 0.05, "quick": 0.05}

#: Ceiling applied to a regime not named above (e.g. a custom corpus).
DEFAULT_ERROR_BUDGET = 0.05


_erf = np.frompyfunc(math.erf, 1, 1)  # numpy has no erf; scipy is not a dependency


def smooth_max(mu: np.ndarray, floor: float, sigma: np.ndarray) -> np.ndarray:
    """E[max(X, floor)] for X ~ N(mu, sigma^2), elementwise (``sigma > 0``)."""
    z = (mu - floor) / sigma
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + _erf(z / math.sqrt(2.0)).astype(np.float64))
    return floor + (mu - floor) * cdf + sigma * pdf


def tile_cycle_estimate(
    t_steps: np.ndarray, density: np.ndarray, side: BorrowConfig, n_slots: int
) -> np.ndarray:
    """Expected compacted cycles of one tile side at constant density.

    ``t_steps`` windows of width ``w = 1 + d1`` advance at the per-window
    maximum over ``n_slots`` slots of the compacted occupancy; grouping
    reach ``g = (1 + d2)(1 + d3)`` pools donors, averaging the slot field
    down to ``n_slots / g`` effective independents.  The mean rate is the
    work bound ``p`` plus a Gumbel-style tail for the slot max
    (``sqrt(2 v ln s_eff / (t g))``), smooth-maxed over the window floor
    ``1/w`` with the Gaussian width of the pooled window occupancy.
    Elementwise over rows whose densities lie strictly inside (0, 1).
    """
    window = 1 + side.d1
    group = (1 + side.d2) * (1 + side.d3)
    floor = 1.0 / window
    eff_slots = max(n_slots / group, 2.0)
    variance = density * (1.0 - density)
    tail = np.sqrt(2.0 * variance * math.log(eff_slots) / (t_steps * group))
    sigma = np.sqrt(variance / max(window * group, 1))
    rate = smooth_max(density + tail, floor, sigma)
    return t_steps * np.minimum(np.maximum(rate, floor), 1.0)


# ---------------------------------------------------------------------------
# Correction feature basis (shared verbatim by fit and predict).
# ---------------------------------------------------------------------------


def _basis_names(density: tuple[str, ...], distance: tuple[str, ...]):
    terms = density + tuple(f"{d}*{p}" for d in distance for p in density)
    terms += ("lseg",)
    return terms + tuple(f"sh:{name}" for name in terms)


_DISTANCE_NAMES = ("lw", "lw2", "l2", "l3", "l22", "l32", "lwl2", "lwl3", "l2l3")

#: The correction basis of each effective family, in feature-column order:
#: a quadratic log-density basis, its tensor product with a quadratic
#: log-distance basis, and the tile-depth term, all duplicated under a
#: shuffle interaction (shuffle rebalances the factor-field lanes and
#: changes every coefficient's meaning, so it gets its own copy).
FEATURE_NAMES: dict[str, tuple[str, ...]] = {
    "b": _basis_names(("1", "lpw", "lpw2"), _DISTANCE_NAMES),
    "a": _basis_names(("1", "lpa", "lpa2"), _DISTANCE_NAMES),
    "ab": _basis_names(
        ("1", "lpw", "lpw2", "lpa", "lpa2"), _DISTANCE_NAMES + ("lwa",)
    ),
}


def _distance_terms(family: str, sched: ArchConfig) -> np.ndarray:
    side = sched.a if family == "a" else sched.b
    lw, l2, l3 = math.log1p(side.d1), math.log1p(side.d2), math.log1p(side.d3)
    terms = [lw, lw * lw, l2, l3, l2 * l2, l3 * l3, lw * l2, lw * l3, l2 * l3]
    if family == "ab":
        terms.append(math.log1p(sched.a.d1))
    return np.array(terms)


def _features(rows: GemmRows, sched: ArchConfig) -> np.ndarray:
    """The correction basis Phi of every row, one column per feature name."""
    dens = rows.density_basis
    cross = dens[:, None, :] * _distance_terms(rows.family, sched)[:, None]
    phi = np.hstack([dens, cross.reshape(len(dens), -1), rows.lseg[:, None]])
    return np.hstack([phi, phi * (1.0 if sched.shuffle else 0.0)])


class GemmRows:
    """Column arrays of one effective family's sparse GEMMs.

    Fixed by the workload, category, options, geometry and datapath
    sparsity support -- not by the borrowing distances -- so one table
    serves a whole design space.  The rows share ``sparsity``'s sides, so
    it picks their scheduling config (the Sparse.AB downgrades).
    """

    def __init__(
        self, family: str, entries: list[tuple], options: SimulationOptions
    ) -> None:
        sparsities, grids, self.layers = zip(*entries)
        self.family, self.sparsity = family, sparsities[0]
        self.gemms = tuple(grid.shape for grid in grids)
        weight = np.array([s.weights.density if s.weights else 1.0 for s in sparsities])
        act = np.array(
            [s.activations.density if s.activations else 1.0 for s in sparsities]
        )
        self.weight_density, self.act_density = weight, act
        t_steps = np.array([grid.t_steps for grid in grids])
        seg_t = np.minimum(t_steps, options.max_t_steps)
        self.seg_t, self.scale_t = seg_t.astype(float), t_steps / seg_t
        self.drain = np.minimum(options.pipeline_drain, seg_t // 4)
        self.work = np.array([g.passes * g.shape.repeats for g in grids])
        self.dense_cycles = np.array([grid.dense_cycles for grid in grids])
        lpw, lpa = np.log(weight), np.log(act)
        logs = {"b": [lpw, lpw * lpw], "a": [lpa, lpa * lpa]}.get(
            family, [lpw, lpw * lpw, lpa, lpa * lpa]
        )
        self.density_basis = np.stack([np.ones_like(weight)] + logs, axis=1)
        self.lseg = np.log(seg_t / 64.0)


def gemm_table(
    pairs: Iterable[tuple[NetworkLayer, GemmShape]], config: ArchConfig,
    category: ModelCategory, options: SimulationOptions,
) -> tuple[tuple[GemmRows, ...], int, int]:
    """Sparse-GEMM rows by family, the dense GEMMs' cycles, all dense cycles
    (``config`` contributes only its geometry and sparsity support)."""
    families: dict[str, list[tuple]] = {}
    exact = total = 0
    for layer, gemm in pairs:
        grid = tile_grid(gemm, config.geometry)
        total += grid.dense_cycles
        sparsity = _effective_sparsity(gemm, layer, config, category)
        if not sparsity.any:
            exact += grid.dense_cycles
        else:
            use_b = sparsity.weights is not None
            use_a = sparsity.activations is not None
            family = "ab" if use_b and use_a else ("b" if use_b else "a")
            families.setdefault(family, []).append((sparsity, grid, layer))
    groups = tuple(
        GemmRows(family, entries, options)
        for family, entries in sorted(families.items())
    )
    return groups, exact, total


def base_cycles(
    rows: GemmRows, config: ArchConfig, category: ModelCategory,
    options: SimulationOptions,
) -> tuple[ArchConfig, np.ndarray, np.ndarray]:
    """Scheduling config, closed-form base cycles and floor of every row."""
    sched = _scheduling_config(config, rows.sparsity)
    k0, n0, m0 = config.geometry.k0, config.geometry.n0, config.geometry.m0
    if rows.family == "a":
        tile = tile_cycle_estimate(rows.seg_t, rows.act_density, sched.a, k0 * m0)
    else:
        tile = tile_cycle_estimate(rows.seg_t, rows.weight_density, sched.b, k0 * n0)
        if rows.family == "ab":
            # Dual-sparse runs the two compaction stages back to back: the
            # B-side schedule sets the surviving depth the A side packs.
            tile = tile_cycle_estimate(tile, rows.act_density, sched.a, k0 * m0)
    cycles = (tile + rows.drain) * rows.scale_t * rows.work
    floor = _min_cycles(rows, sched)  # the engine's floor, per row
    cycles = np.minimum(np.maximum(cycles, floor), rows.dense_cycles)
    if options.include_stalls:
        for i in np.flatnonzero(cycles < rows.dense_cycles):
            dense = int(rows.dense_cycles[i])
            cycles[i] = min(_apply_stalls(
                float(cycles[i]), rows.gemms[i], rows.layers[i], config,
                category, dense, options,
            ), float(dense))
    return sched, cycles, floor


def _correct(base, floor, dense, features: np.ndarray, theta: np.ndarray):
    """``base * exp(Phi @ theta)`` clamped to ``[floor, dense]`` (an
    exponent past float range clamps too: no error, warning or NaN)."""
    with np.errstate(over="ignore", under="ignore"):
        cycles = base * np.exp(features @ theta)
    return np.minimum(np.maximum(cycles, floor), dense)


def _checked_theta(family: str, constants: FamilyConstants) -> np.ndarray:
    """A fitted vector as an array, refused if fitted on another basis."""
    names = FEATURE_NAMES[family]
    if constants.feature_names != names:
        raise ValueError(
            f"surrogate constants for family {family!r} were fitted on a "
            f"different feature basis ({len(constants.feature_names)} features "
            f"vs {len(names)} in this code); refit with 'repro surrogate fit'"
        )
    return np.array(constants.theta)


@dataclass(frozen=True)
class GemmTerms:
    """One sparse GEMM's table row evaluated for one config (a corpus row):
    :func:`base_cycles` and the :data:`FEATURE_NAMES` basis, uncorrected."""

    family: str
    base: float
    min_cycles: float
    dense_cycles: int
    features: tuple[float, ...]


def gemm_terms(
    gemm: GemmShape,
    layer: NetworkLayer,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
) -> GemmTerms | None:
    """Base prediction + correction features of one GEMM (``None`` = dense)."""
    for rows in gemm_table([(layer, gemm)], config, category, options)[0]:
        sched, base, floor = base_cycles(rows, config, category, options)
        return GemmTerms(
            family=rows.family,
            base=float(base[0]),
            min_cycles=float(floor[0]),
            dense_cycles=int(rows.dense_cycles[0]),
            features=tuple(_features(rows, sched)[0].tolist()),
        )
    return None


def corrected_cycles(terms: GemmTerms, constants: FamilyConstants) -> float:
    """Apply a fitted correction to a base prediction, re-clamped."""
    theta = _checked_theta(terms.family, constants)
    return float(_correct(
        terms.base, terms.min_cycles, terms.dense_cycles,
        np.array(terms.features), theta,
    ))


@dataclass(frozen=True)
class SurrogatePrediction:
    """Predicted end-to-end latency (the surrogate's ``NetworkSimResult``)."""

    network: str
    config: str
    category: ModelCategory
    cycles: float
    dense_cycles: int

    @property
    def speedup(self) -> float:
        return self.dense_cycles / self.cycles if self.cycles else 1.0


class SurrogateModel:
    """A calibrated surrogate: fitted constants + the closed form above.

    Predictions are pure float64 arithmetic -- no RNG, no sampling, no
    clock -- so screening decisions are bitwise reproducible.  The GEMM
    table of each (workload fingerprint, category, options, geometry,
    datapath sparsity support) is built once, with each family's checked
    coefficient vector; a config is then a few array expressions over it.
    """

    def __init__(self, constants: SurrogateConstants) -> None:
        self.constants = constants
        self._tables: dict[tuple, tuple] = {}
        regimes = dict(constants.corpus.get("regimes") or {})
        if not regimes:
            raise ValueError(
                "surrogate constants record no calibration regimes; refit "
                "with 'repro surrogate fit'"
            )
        self._regimes = {
            json.dumps(opts, sort_keys=True): name
            for name, opts in regimes.items()
        }

    def regime_for(self, options: SimulationOptions) -> str:
        """The calibration regime matching ``options`` exactly.

        The surrogate is a *calibrated* model: sampled cycle counts depend
        on every sampling knob (passes, segment depth, seed, stalls), so a
        prediction under options the corpus never measured would silently
        carry an unvalidated error.  Refusing is the honest failure mode.
        """
        regime = self._regimes.get(json.dumps(options.to_dict(), sort_keys=True))
        if regime is None:
            raise ValueError(
                f"surrogate is not calibrated for simulation options "
                f"{options.to_dict()}; calibrated regimes: "
                f"{sorted(self._regimes.values())}"
            )
        return regime

    @classmethod
    def load(cls, path=None) -> "SurrogateModel":
        """Load fitted constants (default: the committed golden)."""
        return cls(load_constants(path))

    @classmethod
    def load_default(cls) -> "SurrogateModel":
        return cls.load(None)

    def _table(
        self, workload: Workload, config: ArchConfig, category: ModelCategory,
        options: SimulationOptions,
    ) -> tuple:
        """((rows, theta) per family, dense cycles, exact dense part)."""
        key = (
            workload.fingerprint, category, options, config.geometry,
            config.supports_a_sparsity, config.supports_b_sparsity,
        )
        if key not in self._tables:
            regime = self.regime_for(options)
            pairs = (
                (layer, gemm)
                for layer in workload.network.layers for gemm in layer.spec.gemms()
            )
            groups, exact, total = gemm_table(pairs, config, category, options)
            thetas = (
                _checked_theta(rows.family, self.constants.family(
                    regime, rows.family, workload.fingerprint
                ))
                for rows in groups
            )
            self._tables[key] = (tuple(zip(groups, thetas)), total, exact)
        return self._tables[key]

    def predict_network(
        self,
        network: WorkloadLike,
        config: ArchConfig,
        category: ModelCategory,
        options: SimulationOptions | None = None,
    ) -> SurrogatePrediction:
        """Predicted end-to-end latency (mirrors ``simulate_network``)."""
        workload = parse_workload(network)
        options = options or SimulationOptions()
        groups, dense, exact = self._table(workload, config, category, options)
        cycles = float(exact)
        for rows, theta in groups:
            sched, base, floor = base_cycles(rows, config, category, options)
            cycles += float(_correct(
                base, floor, rows.dense_cycles, _features(rows, sched), theta
            ).sum())
        return SurrogatePrediction(
            network=workload.network.name,
            config=config.label,
            category=category,
            cycles=cycles,
            dense_cycles=dense,
        )

    def category_speedup(
        self,
        config: ArchConfig,
        category: ModelCategory,
        settings: EvalSettings,
    ) -> float:
        """Predicted geomean suite speedup (mirrors ``category_speedup``)."""
        speedups = [
            self.predict_network(
                workload, config, category, settings.options
            ).speedup
            for workload in settings.suite(category)
        ]
        return geometric_mean(speedups)

    def evaluate_design(
        self,
        design: DesignLike,
        categories: tuple[ModelCategory, ...],
        settings: EvalSettings,
    ) -> DesignEvaluation:
        """Predicted score card (mirrors ``dse.evaluate.evaluate_design``).

        Efficiency points go through the *exact* cost model -- power and
        area are closed-form already -- so only the speedup axis is
        surrogate-predicted.
        """
        design = as_design(design)
        points = tuple(
            design.efficiency_point(
                category,
                self.category_speedup(
                    design.config_for(category), category, settings
                ),
            )
            for category in categories
        )
        return DesignEvaluation(label=design.label, points=points)
