"""Tests for the calibrated analytical surrogate (`repro.surrogate`).

The load-bearing guarantees:

* **error budget** -- the committed golden constants hold every
  (regime, space, workload) cell of the calibration matrix under the
  hard `ERROR_BUDGET` ceiling, and `check_constants` re-derives that from
  the constants document alone (pure arithmetic, no engine, no cache), so
  the golden cannot silently rot; a `SIMULATION_KEY_VERSION` bump, a
  tampered coefficient, a drifted workload, or a changed feature basis
  are all rejected loudly;
* **deterministic calibration** -- the fit is a pure function of the
  corpus content: fitting twice, fitting a shuffled corpus, or building
  the corpus through any worker count produces bitwise-identical
  constants (the corpus is canonically ordered by workload fingerprint,
  so cache-read order cannot leak into the solve);
* **multi-fidelity search** -- the surrogate-screened strategy recovers
  each paper space's Table VI starred point spending <= 10% of the grid
  on exact evaluations, bitwise-deterministically across runs and worker
  counts, and composes with the archive checkpoint/resume machinery.

The end-to-end assertions share one session-scoped persistent cache with
the calibration-corpus build (same options, same networks), so each
(config, network) pair is simulated at most once per test run.
"""

import json
import random
import warnings

import pytest

from repro.api import Session
from repro.config import ModelCategory, parse_notation
from repro.dse.evaluate import EvalSettings
from repro.search import SearchSpec, SurrogateScreenedSearch, paper_space
from repro.search.strategy import STRATEGY_KINDS, build_strategy
from repro.sim.engine import SIMULATION_KEY_VERSION, SimulationOptions
from repro.surrogate import (
    ANY_WORKLOAD,
    Corpus,
    ERROR_BUDGET,
    REGIME_OPTIONS,
    SurrogateConstants,
    SurrogateModel,
    build_corpus,
    check_constants,
    fit_constants,
    load_constants,
    save_constants,
)
from repro.surrogate.model import FEATURE_NAMES, corrected_cycles, gemm_terms
from repro.surrogate.store import FamilyConstants
from repro.workloads.registry import parse_workload

CHEAP = SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=7)

#: Per-space single-benchmark settings (same choices as test_search.py);
#: CHEAP is exactly the golden's calibrated ``quick`` regime.
SPACE_SETTINGS = {
    "b": EvalSettings(quick=True, options=CHEAP, networks=("BERT",)),
    "a": EvalSettings(quick=True, options=CHEAP, networks=("AlexNet",)),
    "ab": EvalSettings(quick=True, options=CHEAP, networks=("MobileNetV2",)),
}

#: Multi-fidelity exact-evaluation budgets: <= 10% of each space's grid
#: (42 / 34 / 72 feasible configs respectively).
BUDGETS = {"b": 4, "a": 3, "ab": 7}


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """One persistent cache for every exact evaluation in this module."""
    return Session(cache_dir=tmp_path_factory.mktemp("surrogate-cache"))


@pytest.fixture(scope="module")
def golden():
    """The committed fitted constants (also version-checks them)."""
    return load_constants()


@pytest.fixture(scope="module")
def model(golden):
    return SurrogateModel(golden)


def _sparse_terms():
    """GemmTerms of a real sparse GEMM (skips any dense leading GEMMs)."""
    workload = parse_workload("BERT")
    config = parse_notation("B(2,2,1,on)")
    for layer in workload.network.layers:
        for gemm in layer.spec.gemms():
            terms = gemm_terms(gemm, layer, config, ModelCategory.B, CHEAP)
            if terms is not None:
                return terms
    raise AssertionError("BERT has no sparse GEMM under DNN.B?")


# ----------------------------------------------------------------------
# The error budget, locked against the committed golden.
# ----------------------------------------------------------------------


class TestErrorBudget:
    def test_golden_covers_the_calibration_matrix(self, golden):
        assert golden.simulation_key_version == SIMULATION_KEY_VERSION
        assert sorted(golden.corpus["regimes"]) == ["default", "quick"]
        assert list(golden.corpus["spaces"]) == ["a", "ab", "b"]
        # Every recorded regime matches the shipped regime definitions.
        for name, payload in golden.corpus["regimes"].items():
            assert payload == REGIME_OPTIONS[name].to_dict()
        # Both regimes report on every (space, workload) pairing.
        per_regime = {}
        for row in golden.report:
            per_regime.setdefault(row["regime"], set()).add(
                (row["space"], row["workload"])
            )
        assert per_regime["default"] == per_regime["quick"]
        assert len(per_regime["default"]) >= 10  # Table IV suite x 3 spaces

    def test_recorded_errors_are_within_budget(self, golden):
        for row in golden.report:
            ceiling = ERROR_BUDGET[row["regime"]]
            assert row["max_error"] <= ceiling, (
                f"{row['regime']}/{row['space']}/{row['workload']} recorded "
                f"{row['max_error']:.2%} > {ceiling:.0%}"
            )
            assert row["mean_error"] <= row["max_error"]

    def test_check_constants_rederives_every_cell(self, golden):
        # Pure arithmetic over the committed document: no engine, no cache.
        lines = check_constants(golden)
        assert len(lines) == len(golden.report)
        assert all(line.endswith("ok") for line in lines)

    def test_tightened_budget_trips_the_check(self, golden):
        one_row = SurrogateConstants(
            simulation_key_version=golden.simulation_key_version,
            families=golden.families,
            corpus=golden.corpus,
            report=(golden.report[0],),
        )
        with pytest.raises(ValueError, match="exceeds the"):
            check_constants(one_row, budget={"default": 1e-12, "quick": 1e-12})

    def test_tampered_constants_are_detected(self, golden):
        tampered = SurrogateConstants(
            simulation_key_version=golden.simulation_key_version,
            families=tuple(
                FamilyConstants(
                    regime=fam.regime,
                    family=fam.family,
                    workload=fam.workload,
                    feature_names=fam.feature_names,
                    theta=(fam.theta[0] + 0.5,) + fam.theta[1:],
                )
                for fam in golden.families
            ),
            corpus=golden.corpus,
            report=(golden.report[0],),
        )
        with pytest.raises(ValueError, match="surrogate error budget check"):
            check_constants(tampered)

    def test_drifted_workload_fingerprint_is_detected(self, golden):
        doctored = SurrogateConstants(
            simulation_key_version=golden.simulation_key_version,
            families=golden.families,
            corpus={
                **dict(golden.corpus),
                "workloads": {
                    **golden.corpus["workloads"],
                    "BERT": "not-the-real-fingerprint",
                },
            },
            report=golden.report,
        )
        with pytest.raises(ValueError, match="changed since the fit"):
            check_constants(doctored)


class TestConstantsPersistence:
    def test_version_bump_invalidates_the_golden(self, tmp_path, golden):
        stale = golden.to_dict()
        stale["simulation_key_version"] = "0.0-stale"
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(stale))
        with pytest.raises(ValueError, match="stale constants"):
            load_constants(path)

    def test_missing_file_names_the_fit_command(self, tmp_path):
        with pytest.raises(ValueError, match="repro surrogate fit"):
            load_constants(tmp_path / "absent.json")

    def test_corrupt_json_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_constants(path)

    def test_unknown_format_version_is_rejected(self, tmp_path, golden):
        data = golden.to_dict()
        data["format_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="format version"):
            load_constants(path)

    def test_save_load_round_trip(self, tmp_path, golden):
        path = save_constants(golden, tmp_path / "copy.json")
        assert load_constants(path).to_dict() == golden.to_dict()


# ----------------------------------------------------------------------
# Model semantics (pure arithmetic; no engine).
# ----------------------------------------------------------------------


class TestModelSemantics:
    def test_regime_matching_is_exact(self, model):
        assert model.regime_for(REGIME_OPTIONS["quick"]) == "quick"
        assert model.regime_for(REGIME_OPTIONS["default"]) == "default"
        off_regime = SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=8)
        with pytest.raises(ValueError, match="not calibrated"):
            model.regime_for(off_regime)

    def test_unseen_workload_falls_back_to_pooled_vector(self, golden):
        fam = golden.family("quick", "b", "no-such-fingerprint")
        assert fam.workload == ANY_WORKLOAD
        with pytest.raises(KeyError, match="no fitted constants"):
            golden.family("quick", "zz")

    def test_calibrated_workload_gets_its_own_vector(self, golden):
        fingerprint = golden.corpus["workloads"]["BERT"]
        assert parse_workload("BERT").fingerprint == fingerprint
        fam = golden.family("quick", "b", fingerprint)
        assert fam.workload == fingerprint

    def test_feature_basis_mismatch_is_refused(self):
        terms = _sparse_terms()
        names = FEATURE_NAMES[terms.family]
        mismatched = FamilyConstants(
            regime="quick",
            family=terms.family,
            workload=ANY_WORKLOAD,
            feature_names=names[:-1],
            theta=(0.0,) * (len(names) - 1),
        )
        with pytest.raises(ValueError, match="different feature basis"):
            corrected_cycles(terms, mismatched)

    def test_feature_basis_mismatch_is_refused_by_the_screen(self, golden):
        renamed = SurrogateConstants(
            simulation_key_version=golden.simulation_key_version,
            families=tuple(
                FamilyConstants(
                    regime=fam.regime,
                    family=fam.family,
                    workload=fam.workload,
                    feature_names=fam.feature_names[:-1] + ("renamed",),
                    theta=fam.theta,
                )
                if fam.family == "b" else fam
                for fam in golden.families
            ),
            corpus=golden.corpus,
            report=golden.report,
        )
        model = SurrogateModel(renamed)
        config = parse_notation("B(2,2,1,on)")
        with pytest.raises(ValueError, match="different feature basis"):
            model.predict_network("BERT", config, ModelCategory.B, CHEAP)
        settings = EvalSettings(quick=True, options=CHEAP, networks=("BERT",))
        with pytest.raises(ValueError, match="different feature basis"):
            model.evaluate_design(config, (ModelCategory.B,), settings)
        # Families the workload never schedules as are not consulted.
        dense = model.predict_network("BERT", config, ModelCategory.DENSE, CHEAP)
        assert dense.cycles == float(dense.dense_cycles)

    def test_correction_respects_the_engine_envelope(self):
        terms = _sparse_terms()
        names = FEATURE_NAMES[terms.family]

        def constants(value):
            return FamilyConstants(
                regime="quick",
                family=terms.family,
                workload=ANY_WORKLOAD,
                feature_names=names,
                theta=(value,) + (0.0,) * (len(names) - 1),
            )

        # An exponent past float range (1e3) clamps like a large one (50):
        # no OverflowError, no NaN, no floating-point warning.
        for theta0 in (50.0, 1e3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                huge = corrected_cycles(terms, constants(theta0))
                tiny = corrected_cycles(terms, constants(-theta0))
            assert huge == float(terms.dense_cycles)
            assert tiny == terms.min_cycles

    def test_dense_category_is_predicted_exactly(self, model):
        prediction = model.predict_network(
            "BERT", parse_notation("B(2,2,1,on)"), ModelCategory.DENSE, CHEAP
        )
        assert prediction.cycles == float(prediction.dense_cycles)
        assert prediction.speedup == 1.0

    def test_prediction_matches_live_engine_within_budget(self, session, model):
        config = parse_notation("B(2,2,1,on)")
        exact = session.simulate("BERT", config, ModelCategory.B, CHEAP)
        predicted = model.predict_network(
            "BERT", config, ModelCategory.B, CHEAP
        )
        assert predicted.dense_cycles == exact.dense_cycles
        error = abs(predicted.cycles - exact.cycles) / exact.cycles
        assert error <= ERROR_BUDGET["quick"]


# ----------------------------------------------------------------------
# Deterministic calibration (live mini-corpus: space b x BERT x quick).
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_corpus(session):
    return build_corpus(
        session, spaces=("b",), networks=("BERT",), regimes={"quick": CHEAP}
    )


class TestCalibrationDeterminism:
    def test_corpus_is_canonically_ordered(self, mini_corpus):
        keys = [row.sort_key for row in mini_corpus.rows]
        assert keys == sorted(keys)
        assert mini_corpus.workloads == {
            "BERT": parse_workload("BERT").fingerprint
        }

    def test_twice_fit_is_bitwise_identical(self, mini_corpus):
        first = fit_constants(mini_corpus)
        second = fit_constants(mini_corpus)
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)

    def test_shuffled_corpus_fits_identically(self, mini_corpus):
        # Cache-read order cannot leak into the constants: the fit
        # canonicalizes row order before any arithmetic.
        rows = list(mini_corpus.rows)
        random.Random(0).shuffle(rows)
        shuffled = Corpus(
            rows=tuple(rows),
            regimes=mini_corpus.regimes,
            spaces=mini_corpus.spaces,
            workloads=mini_corpus.workloads,
        )
        assert fit_constants(shuffled).to_dict() == \
            fit_constants(mini_corpus).to_dict()

    def test_corpus_identical_across_worker_counts(self, session, mini_corpus):
        parallel = Session(cache_dir=session.cache_dir, workers=2)
        rebuilt = build_corpus(
            parallel, spaces=("b",), networks=("BERT",),
            regimes={"quick": CHEAP},
        )
        assert rebuilt.rows == mini_corpus.rows
        assert fit_constants(rebuilt).to_dict() == \
            fit_constants(mini_corpus).to_dict()

    def test_fresh_fit_passes_its_own_check(self, mini_corpus):
        constants = fit_constants(mini_corpus)
        lines = check_constants(constants)
        assert lines and all(line.endswith("ok") for line in lines)

    def test_session_calibrate_round_trips_through_disk(
        self, session, mini_corpus, tmp_path
    ):
        path = tmp_path / "mini.json"
        constants = session.calibrate(
            spaces=("b",), networks=("BERT",), regimes={"quick": CHEAP},
            save=path,
        )
        assert constants.to_dict() == fit_constants(mini_corpus).to_dict()
        assert load_constants(path).to_dict() == constants.to_dict()


# ----------------------------------------------------------------------
# The surrogate-screened strategy (unit; fake predictor).
# ----------------------------------------------------------------------


class TestSurrogateStrategyUnit:
    def test_registered_with_the_strategy_registry(self):
        assert "surrogate" in STRATEGY_KINDS
        strategy = build_strategy("surrogate", paper_space("b"), budget=4)
        assert isinstance(strategy, SurrogateScreenedSearch)
        with pytest.raises(ValueError, match="budget"):
            build_strategy("surrogate", paper_space("b"))

    def test_unbound_strategy_refuses_to_ask(self):
        strategy = SurrogateScreenedSearch(paper_space("b"), budget=2)
        assert not strategy.bound
        with pytest.raises(ValueError, match="not bound to a predictor"):
            strategy.ask()

    def test_shortlist_ranks_by_predicted_scores(self):
        space = paper_space("b")
        target = "B(2,2,1,on)"
        strategy = SurrogateScreenedSearch(space, budget=3).bind(
            lambda c: (2.0, 2.0) if c.notation == target else (1.0, 1.0)
        )
        shortlist = strategy.ask()
        assert len(shortlist) == 3
        assert shortlist[0].notation == target
        assert strategy.screened == len(space)
        assert strategy.ask() == []  # single-shot

    def test_budget_validated(self):
        with pytest.raises(ValueError, match="budget"):
            SurrogateScreenedSearch(paper_space("b"), budget=0)


# ----------------------------------------------------------------------
# SearchSpec fidelity plumbing (pure).
# ----------------------------------------------------------------------


class TestFidelitySpec:
    def test_surrogate_kind_implies_multi(self):
        spec = SearchSpec.from_dict(
            {"space": "b", "strategy": {"kind": "surrogate", "budget": 4}}
        )
        assert spec.fidelity == "multi"
        assert spec.to_dict()["fidelity"] == "multi"

    def test_multi_alone_selects_the_surrogate_strategy(self):
        spec = SearchSpec.from_dict(
            {"space": "b", "fidelity": "multi", "strategy": {"budget": 4}}
        )
        assert spec.strategy.kind == "surrogate"

    def test_round_trip_preserves_fidelity(self):
        spec = SearchSpec.from_dict(
            {"space": "b", "fidelity": "multi", "strategy": {"budget": 4}}
        )
        again = SearchSpec.from_dict(spec.to_dict())
        assert again.fidelity == "multi"
        assert again.strategy.kind == "surrogate"

    def test_exact_spec_does_not_mention_fidelity(self):
        spec = SearchSpec.from_dict({"space": "b"})
        assert spec.fidelity == "exact"
        assert "fidelity" not in spec.to_dict()

    @pytest.mark.parametrize("payload", [
        {"space": "b", "fidelity": "exact",
         "strategy": {"kind": "surrogate", "budget": 4}},
        {"space": "b", "fidelity": "multi",
         "strategy": {"kind": "evolutionary", "budget": 4}},
    ])
    def test_conflicting_fidelity_and_kind_rejected(self, payload):
        with pytest.raises(ValueError, match="conflicts with strategy kind"):
            SearchSpec.from_dict(payload)

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            SearchSpec.from_dict({"space": "b", "fidelity": "turbo"})

    def test_surrogate_strategy_needs_a_budget(self):
        with pytest.raises(ValueError, match="budget"):
            SearchSpec.from_dict(
                {"space": "b", "strategy": {"kind": "surrogate"}}
            )


# ----------------------------------------------------------------------
# Multi-fidelity search end to end (real engine, shared cache).
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["b", "a", "ab"])
class TestMultiFidelityEndToEnd:
    def test_recovers_star_with_a_tenth_of_the_grid(self, session, name):
        space = paper_space(name)
        settings = SPACE_SETTINGS[name]
        budget = BUDGETS[name]
        assert budget <= 0.10 * len(space)

        exhaustive = session.search(space, settings=settings)
        multi = session.search(
            space,
            SurrogateScreenedSearch(space, budget=budget),
            budget=budget, settings=settings,
        )
        assert multi.fidelity == "multi"
        assert multi.screened == len(space)
        assert multi.outcome.evaluated == budget
        assert len(multi.archive) == budget
        # The Table VI star survives the screening: the surrogate spent
        # <= 10% of the grid in exact evaluations and still found it.
        assert multi.optimal().label == exhaustive.optimal().label
        # Archive records are engine truth, not surrogate predictions.
        for record in multi.archive:
            assert record.evaluation == \
                exhaustive.archive.get(record.key).evaluation

    def test_bitwise_deterministic_across_workers(self, session, name):
        space = paper_space(name)
        settings = SPACE_SETTINGS[name]
        budget = BUDGETS[name]

        def run(workers):
            inner = Session(cache_dir=session.cache_dir, workers=workers)
            result = inner.search(
                space,
                SurrogateScreenedSearch(space, budget=budget),
                budget=budget, settings=settings,
            )
            return [(r.key, r.scores, r.evaluation) for r in result.archive]

        assert run(0) == run(2)


class TestMultiFidelityPlumbing:
    def test_checkpoint_resume_completes_the_shortlist(self, session, tmp_path):
        space = paper_space("b")
        settings = SPACE_SETTINGS["b"]
        budget = BUDGETS["b"]
        path = tmp_path / "multi.json"

        reference = session.search(
            space, SurrogateScreenedSearch(space, budget=budget),
            budget=budget, settings=settings,
        )
        # Interrupted run: the loop's budget stops the shortlist halfway.
        partial = session.search(
            space, SurrogateScreenedSearch(space, budget=budget),
            budget=budget // 2, settings=settings, checkpoint=path,
        )
        assert len(partial.archive) == budget // 2
        # Resume finishes the remaining shortlist entries and lands on the
        # same archive as the uninterrupted run, bitwise.
        resumed = session.search(
            space, SurrogateScreenedSearch(space, budget=budget),
            budget=budget, settings=settings, checkpoint=path, resume=True,
        )
        assert resumed.outcome.evaluated == budget - budget // 2
        assert [(r.key, r.scores, r.evaluation) for r in resumed.archive] == \
            [(r.key, r.scores, r.evaluation) for r in reference.archive]

    def test_spec_through_session(self, session):
        result = session.search(
            {
                "name": "multi-mini",
                "space": "b",
                "fidelity": "multi",
                "strategy": {"budget": 3},
                "networks": ["BERT"],
                "options": {"passes_per_gemm": 1, "max_t_steps": 16, "seed": 7},
            }
        )
        assert result.fidelity == "multi"
        assert result.screened == len(paper_space("b"))
        assert len(result.archive) == 3
        payload = result.to_dict()
        assert payload["fidelity"] == "multi"
        assert payload["screened"] == result.screened
        assert payload["evaluations"] == 3

    def test_uncalibrated_options_fail_loudly(self, session):
        space = paper_space("b")
        off_regime = EvalSettings(
            quick=True,
            options=SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=99),
            networks=("BERT",),
        )
        with pytest.raises(ValueError, match="not calibrated"):
            session.search(
                space, SurrogateScreenedSearch(space, budget=2),
                budget=2, settings=off_regime,
            )

    def test_explicit_constants_override_the_golden(self, session, tmp_path):
        # A stale constants file must not silently fall back to the golden.
        stale = load_constants().to_dict()
        stale["simulation_key_version"] = "0.0-stale"
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(stale))
        space = paper_space("b")
        with pytest.raises(ValueError, match="stale constants"):
            session.search(
                space, SurrogateScreenedSearch(space, budget=2),
                budget=2, settings=SPACE_SETTINGS["b"], surrogate=path,
            )
