"""The array surrogate screen against a scalar per-GEMM oracle.

The surrogate evaluates a config as array expressions over a per-workload
GEMM table (``repro.surrogate.model``).  The oracle below is the scalar
formulation of the same closed form: one ``math``-scalar tile estimate,
one string-named feature tuple and one Python dot product per sparse
GEMM, summed layer by layer.  The array path may reorder float sums (and
numpy's ``exp``/``log`` may differ from ``math``'s in the last bit), so
predictions are held to 1e-12 relative -- far below any score difference
the screen ranks on -- and the screened shortlists must match exactly.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.api import Session
from repro.config import ModelCategory
from repro.core.metrics import geometric_mean
from repro.dse.evaluate import DesignEvaluation, as_design
from repro.gemm.tiling import tile_grid
from repro.search import SearchSpec, SurrogateScreenedSearch
from repro.search.space import paper_space
from repro.sim.engine import effective_sparsity, scheduling_config
from repro.surrogate import REGIME_OPTIONS, SurrogateModel, load_constants
from repro.workloads.registry import BENCHMARKS, parse_workload
from stall_oracle import envelope, min_cycles

REPO = Path(__file__).resolve().parent.parent
EXAMPLE_WORKLOAD = REPO / "examples" / "workloads" / "tinycnn.json"
SEARCH_B = REPO / "examples" / "experiments" / "search_b.json"

TOLERANCE = 1e-12


# ----------------------------------------------------------------------
# The scalar oracle: one GEMM at a time, math scalars throughout.
# ----------------------------------------------------------------------


def _smooth_max(mu, floor, sigma):
    if sigma <= 0.0:
        return max(mu, floor)
    z = (mu - floor) / sigma
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return floor + (mu - floor) * cdf + sigma * pdf


def _tile_cycle_estimate(t_steps, density, d1, d2, d3, n_slots):
    if t_steps <= 0:
        return 0.0
    window = 1 + d1
    group = (1 + d2) * (1 + d3)
    floor = 1.0 / window
    eff_slots = max(n_slots / group, 2.0)
    variance = max(density * (1.0 - density), 0.0)
    tail = math.sqrt(2.0 * variance * math.log(eff_slots) / (t_steps * group))
    sigma = math.sqrt(variance / max(window * group, 1))
    rate = _smooth_max(density + tail, floor, sigma)
    return t_steps * min(max(rate, floor), 1.0)


def _distance_basis(d1, d2, d3):
    lw, l2, l3 = math.log1p(d1), math.log1p(d2), math.log1p(d3)
    return [
        ("lw", lw), ("lw2", lw * lw),
        ("l2", l2), ("l3", l3), ("l22", l2 * l2), ("l32", l3 * l3),
        ("lwl2", lw * l2), ("lwl3", lw * l3), ("l2l3", l2 * l3),
    ]


def _density_basis(tag, density):
    lp = math.log(density)
    return [("1", 1.0), (f"lp{tag}", lp), (f"lp{tag}2", lp * lp)]


def _family_features(family, sched, weight_density, act_density, seg_t):
    if family == "b":
        dist = _distance_basis(sched.b.d1, sched.b.d2, sched.b.d3)
        dens = _density_basis("w", weight_density)
    elif family == "a":
        dist = _distance_basis(sched.a.d1, sched.a.d2, sched.a.d3)
        dens = _density_basis("a", act_density)
    else:
        dist = _distance_basis(sched.b.d1, sched.b.d2, sched.b.d3)
        dist.append(("lwa", math.log1p(sched.a.d1)))
        lpa = math.log(act_density)
        dens = _density_basis("w", weight_density)
        dens.extend([("lpa", lpa), ("lpa2", lpa * lpa)])
    terms = list(dens)
    terms.extend(
        (f"{dn}*{pn}", dv * pv) for dn, dv in dist for pn, pv in dens
    )
    terms.append(("lseg", math.log(seg_t / 64.0)))
    shuffle = 1.0 if sched.shuffle else 0.0
    terms.extend((f"sh:{name}", shuffle * value) for name, value in terms[:])
    return (
        tuple(name for name, _ in terms),
        tuple(value for _, value in terms),
    )


def _oracle_gemm(gemm, layer, config, category, options, constants, regime,
                 workload):
    """Corrected cycles and dense cycles of one GEMM."""
    geometry = config.geometry
    grid = tile_grid(gemm, geometry)
    sparsity = effective_sparsity(gemm, layer, config, category)
    if not sparsity.any:
        return float(grid.dense_cycles), grid.dense_cycles
    sched = scheduling_config(config, sparsity)
    use_b = sparsity.weights is not None
    use_a = sparsity.activations is not None
    weight_density = sparsity.weights.density if use_b else 1.0
    act_density = sparsity.activations.density if use_a else 1.0
    seg_t = min(grid.t_steps, options.max_t_steps)
    scale_t = grid.t_steps / seg_t
    drain = min(options.pipeline_drain, max(0, seg_t // 4))
    k0, n0, m0 = geometry.k0, geometry.n0, geometry.m0
    if use_b and use_a:
        family = "ab"
        tile_b = _tile_cycle_estimate(
            seg_t, weight_density, sched.b.d1, sched.b.d2, sched.b.d3, k0 * n0
        )
        tile = _tile_cycle_estimate(
            tile_b, act_density, sched.a.d1, sched.a.d2, sched.a.d3, k0 * m0
        )
    elif use_b:
        family = "b"
        tile = _tile_cycle_estimate(
            seg_t, weight_density, sched.b.d1, sched.b.d2, sched.b.d3, k0 * n0
        )
    else:
        family = "a"
        tile = _tile_cycle_estimate(
            seg_t, act_density, sched.a.d1, sched.a.d2, sched.a.d3, k0 * m0
        )
    n_passes = grid.m_tiles * grid.n_tiles
    cycles = (tile + drain) * scale_t * n_passes * gemm.repeats
    floor = min_cycles(grid.dense_cycles, sched)
    cycles = envelope(
        cycles, gemm, layer, config, sched, category, grid.dense_cycles, options
    )
    names, values = _family_features(
        family, sched, weight_density, act_density, seg_t
    )
    fam = constants.family(regime, family, workload)
    assert fam.feature_names == names
    exponent = 0.0
    for theta, phi in zip(fam.theta, values):
        exponent += theta * phi
    corrected = cycles * math.exp(exponent)
    corrected = min(max(corrected, floor), float(grid.dense_cycles))
    return corrected, grid.dense_cycles


def oracle_network(workload, config, category, options, constants, regime):
    """(cycles, dense cycles) of one network, summed layer by layer."""
    fingerprint = workload.fingerprint
    cycles = 0.0
    dense = 0
    for layer in workload.network.layers:
        layer_cycles = 0.0
        for gemm in layer.spec.gemms():
            gemm_cycles, gemm_dense = _oracle_gemm(
                gemm, layer, config, category, options, constants, regime,
                fingerprint,
            )
            layer_cycles += gemm_cycles
            dense += gemm_dense
        cycles += layer_cycles
    return cycles, dense


def oracle_predictor(constants, objectives, categories, settings, regime):
    """Config -> score vector, as the screen scores it, through the oracle."""

    def predict(config):
        design = as_design(config)
        points = []
        for category in categories:
            arch = design.config_for(category)
            speedups = []
            for workload in settings.suite(category):
                cycles, dense = oracle_network(
                    workload, arch, category, settings.options, constants,
                    regime,
                )
                speedups.append(dense / cycles if cycles else 1.0)
            points.append(
                design.efficiency_point(category, geometric_mean(speedups))
            )
        return objectives.scores(
            DesignEvaluation(label=design.label, points=tuple(points))
        )

    return predict


# ----------------------------------------------------------------------
# Tests.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return load_constants()


@pytest.fixture(scope="module")
def model(golden):
    return SurrogateModel(golden)


def _workloads():
    workloads = [parse_workload(b.name) for b in BENCHMARKS]
    workloads.append(parse_workload(str(EXAMPLE_WORKLOAD)))
    return workloads


def test_example_workload_takes_the_pooled_fallback(golden):
    fingerprint = parse_workload(str(EXAMPLE_WORKLOAD)).fingerprint
    assert fingerprint not in golden.corpus["workloads"].values()


@pytest.mark.parametrize("regime", ["default", "quick"])
@pytest.mark.parametrize("space_name", ["a", "b", "ab"])
def test_predictions_match_the_scalar_oracle(golden, model, regime,
                                             space_name):
    space = paper_space(space_name)
    options = REGIME_OPTIONS[regime]
    workloads = _workloads()
    worst = 0.0
    for category in (space.default_category(), ModelCategory.DENSE):
        for config in space.configs():
            for workload in workloads:
                predicted = model.predict_network(
                    workload, config, category, options
                )
                cycles, dense = oracle_network(
                    workload, config, category, options, golden, regime
                )
                assert predicted.dense_cycles == dense
                worst = max(worst, abs(predicted.cycles - cycles) / cycles)
    assert worst <= TOLERANCE


def _shortlists(spec, model, golden):
    """The screened shortlist through the model and through the oracle."""
    settings = spec.eval_settings()
    objectives = spec.resolve_objectives()
    categories = objectives.categories
    regime = model.regime_for(settings.options)

    def array_predict(config):
        return objectives.scores(
            model.evaluate_design(config, categories, settings)
        )

    oracle_predict = oracle_predictor(
        golden, objectives, categories, settings, regime
    )
    return [
        [
            config.notation
            for config in SurrogateScreenedSearch(
                spec.space, budget=spec.strategy.budget
            ).bind(predict).ask()
        ]
        for predict in (array_predict, oracle_predict)
    ]


def test_search_b_shortlist_matches_the_oracle(model, golden):
    payload = json.loads(SEARCH_B.read_text())
    payload["strategy"] = {**payload["strategy"], "kind": "surrogate"}
    spec = SearchSpec.coerce(payload)
    screened, oracle = _shortlists(spec, model, golden)
    assert screened == oracle
    assert len(screened) == spec.strategy.budget


#: The perfbench ``search-ab-wide`` search: 672 feasible AB configs.
AB_WIDE = {
    "name": "search-ab-wide",
    "space": {
        "name": "ab-wide",
        "da1": [1, 2, 3],
        "da2": [0, 1, 2],
        "db1": [1, 2, 3, 4, 6],
        "db2": [0, 1, 2, 3],
        "db3": [0, 1, 2, 3],
        "max_amux_fanin": 32,
    },
    "fidelity": "multi",
    "strategy": {"kind": "surrogate", "budget": 8},
    "quick": True,
    "options": {"passes_per_gemm": 1, "max_t_steps": 16, "seed": 7},
}

#: sha256 of the ab-wide screen's 672 score vectors (``float.hex`` per
#: score, as JSON), recorded before the GEMM envelope became one array
#: call and the tables memoized their tile estimates.
AB_WIDE_SCORES_SHA256 = "fce29acdae64dc833a8809dea4206d632c22adf44f0fc49d5b4d83ae7ccd5892"


def test_ab_wide_shortlist_matches_the_oracle(model, golden):
    spec = SearchSpec.coerce(AB_WIDE)
    assert len(spec.space) == 672
    screened, oracle = _shortlists(spec, model, golden)
    assert screened == oracle


def test_ab_wide_scores_are_pinned(golden):
    """Every score the ab-wide screen ranks on is bitwise the recorded one,
    from a cold model (empty table memos) and again from the warm one."""
    spec = SearchSpec.coerce(AB_WIDE)
    settings = spec.eval_settings()
    objectives = spec.resolve_objectives()
    model = SurrogateModel(golden)
    for _ in range(2):
        scored = [
            [float(score).hex() for score in objectives.scores(
                model.evaluate_design(config, objectives.categories, settings)
            )]
            for config in spec.space.configs()
        ]
        assert len(scored) == 672
        digest = hashlib.sha256(json.dumps(scored).encode()).hexdigest()
        assert digest == AB_WIDE_SCORES_SHA256


def test_multi_fidelity_search_scores_each_config_once(tmp_path, monkeypatch):
    """The screen makes exactly one ``evaluate_design`` call per feasible
    config: no config is batched past it or scored twice."""
    payload = json.loads(SEARCH_B.read_text())
    payload["strategy"] = {"kind": "surrogate", "budget": 2}
    spec = SearchSpec.coerce(payload)
    scored = []
    real = SurrogateModel.evaluate_design

    def counted(self, design, categories, settings):
        scored.append(design)
        return real(self, design, categories, settings)

    monkeypatch.setattr(SurrogateModel, "evaluate_design", counted)
    result = Session(workers=1, cache_dir=tmp_path).search(spec)
    assert result.screened == len(spec.space) > 0
    assert sorted(scored, key=str) == sorted(spec.space.configs(), key=str)
