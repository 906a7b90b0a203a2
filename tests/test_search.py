"""Tests for the guided design-space search subsystem (`repro.search`).

The load-bearing guarantees:

* `SearchSpace` expresses the three paper spaces exactly (element-for-
  element identical to the legacy explorer lists) plus arbitrary
  constrained spaces; mutation/sampling are seeded-deterministic;
* the `ParetoArchive` keeps exact dominance bookkeeping incrementally,
  handles ties/duplicates, and round-trips through its JSON checkpoint;
* the ask/tell loop enforces budgets, answers recorded configs from the
  archive (resume), and is bitwise-deterministic across runs and worker
  counts;
* the exhaustive strategy reproduces the legacy `design_space()` sweep
  results; the seeded evolutionary strategy recovers the Table VI optimal
  point of each paper space while evaluating < 25% of its grid.

The expensive end-to-end assertions share one session-scoped persistent
cache, so each (config, category) pair is simulated at most once per test
run no matter how many strategies walk over it.
"""

import json
import random

import pytest

from repro.api import Session
from repro.config import ModelCategory, sparse_b
from repro.core.metrics import EfficiencyPoint
from repro.dse.evaluate import DesignEvaluation, EvalSettings
from repro.dse.explorer import design_space, space_categories
from repro.dse.report import select_optimal
from repro.runtime.cache import CacheStats
from repro.runtime.runner import SweepOutcome
from repro.runtime.search import run_search_loop
from repro.search import (
    AreaBudget,
    EvolutionarySearch,
    ExhaustiveSearch,
    MaxAmuxFanin,
    Objective,
    ObjectiveSet,
    ParetoArchive,
    Predicate,
    RandomSearch,
    SearchRecord,
    SearchSpace,
    SearchSpec,
    paper_space,
)
from repro.search.strategy import build_strategy
from repro.sim.engine import SimulationOptions

CHEAP = SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=7)

#: Per-space single-benchmark settings: BERT only exercises DNN.B, and
#: MobileNetV2 is by far the cheapest network to simulate dual-sparse.
SPACE_SETTINGS = {
    "b": EvalSettings(quick=True, options=CHEAP, networks=("BERT",)),
    "a": EvalSettings(quick=True, options=CHEAP, networks=("AlexNet",)),
    "ab": EvalSettings(quick=True, options=CHEAP, networks=("MobileNetV2",)),
}

#: Evolutionary budgets: < 25% of each space's exhaustive grid
#: (42 / 34 / 72 feasible configs respectively).
BUDGETS = {"b": 9, "a": 7, "ab": 17}

EVO = dict(population=4, parents=2, children=2)
SEED = 14


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """One persistent cache for every search in this module."""
    return Session(cache_dir=tmp_path_factory.mktemp("search-cache"))


# ----------------------------------------------------------------------
# SearchSpace.
# ----------------------------------------------------------------------


class TestSearchSpace:
    def test_paper_spaces_match_legacy_explorer(self):
        for name in ("a", "b", "ab"):
            assert paper_space(name).configs() == design_space(name)

    def test_grid_vs_feasible_size(self):
        space = paper_space("b")
        assert space.grid_size == 4 * 3 * 3 * 2
        assert len(space) == 42 < space.grid_size

    def test_constraints_compose(self):
        base = SearchSpace(name="x", db1=(2, 4, 6), db3=(0, 1))
        tight = SearchSpace(
            name="x",
            db1=(2, 4, 6),
            db3=(0, 1),
            constraints=(
                MaxAmuxFanin(8),
                AreaBudget(1500.0),
                Predicate(lambda c: c.shuffle, "shuffle required"),
            ),
        )
        assert 0 < len(tight) < len(base)
        for config in tight:
            assert config.shuffle

    def test_contains(self):
        space = paper_space("b")
        assert sparse_b(4, 0, 1, shuffle=True) in space
        assert sparse_b(1, 0, 0) not in space          # domain excludes db1=1
        assert sparse_b(6, 2, 0) not in space          # fan-in infeasible
        assert "B(4,0,1,on)" not in space              # not a config

    def test_enumeration_deduplicates_by_notation(self):
        # The all-dense point's shuffle variants share the notation "Dense"
        # (the design identity everywhere in the subsystem); enumeration
        # must yield it once so len(space) always equals the number of
        # archivable designs.
        space = SearchSpace(name="d", db1=(0, 2))
        notations = [c.notation for c in space]
        assert notations == ["Dense", "B(2,0,0,off)", "B(2,0,0,on)"]
        assert len(space) == len(set(notations)) == 3 < space.grid_size

    def test_default_category(self):
        assert paper_space("b").default_category() is ModelCategory.B
        assert paper_space("a").default_category() is ModelCategory.A
        assert paper_space("ab").default_category() is ModelCategory.AB
        assert SearchSpace().default_category() is ModelCategory.DENSE

    def test_rejects_bad_domains(self):
        with pytest.raises(ValueError, match="empty"):
            SearchSpace(db1=())
        with pytest.raises(ValueError, match="duplicate"):
            SearchSpace(db1=(2, 2))
        with pytest.raises(ValueError, match="non-negative"):
            SearchSpace(db1=(-1,))

    def test_mutation_stays_feasible_and_deterministic(self):
        space = paper_space("ab")
        rng_a, rng_b = random.Random(5), random.Random(5)
        config = space.configs()[10]
        for _ in range(50):
            mutated_a = space.mutate(config, rng_a)
            mutated_b = space.mutate(config, rng_b)
            assert mutated_a == mutated_b
            assert mutated_a in space
            assert mutated_a != config
            config = mutated_a

    def test_sample_deterministic(self):
        space = paper_space("b")
        assert space.sample(random.Random(3), 5) == space.sample(random.Random(3), 5)
        assert space.sample(random.Random(3), 999) == space.configs()

    def test_json_round_trip(self):
        space = SearchSpace(
            name="wide",
            db1=(1, 2, 3),
            db2=(0, 1),
            constraints=(MaxAmuxFanin(8), AreaBudget(2000.0)),
        )
        assert SearchSpace.from_dict(space.to_dict()) == space

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown search-space keys"):
            SearchSpace.from_dict({"db1": [2], "dbx": [1]})

    def test_predicate_constraint_not_serializable(self):
        space = SearchSpace(db1=(2,), constraints=(Predicate(lambda c: True),))
        with pytest.raises(ValueError, match="cannot be serialized"):
            space.to_dict()


# ----------------------------------------------------------------------
# ParetoArchive.
# ----------------------------------------------------------------------


def _record(key, scores, index):
    point = EfficiencyPoint(
        label=key, category=ModelCategory.B.value, speedup=1.0,
        power_mw=100.0, area_um2=1e6,
    )
    return SearchRecord(
        key=key, index=index, scores=tuple(scores),
        evaluation=DesignEvaluation(label=key, points=(point,)),
    )


class TestParetoArchive:
    def archive(self):
        return ParetoArchive(("s", "d"), space="t")

    def test_incremental_dominance(self):
        archive = self.archive()
        archive.add(_record("a", (1.0, 1.0), 0))
        archive.add(_record("b", (2.0, 2.0), 1))     # dominates a
        archive.add(_record("c", (0.5, 3.0), 2))     # incomparable to b
        archive.add(_record("d", (0.4, 2.5), 3))     # dominated by c
        assert [r.key for r in archive.front()] == ["b", "c"]
        assert len(archive) == 4                     # everything stays recorded
        assert archive.on_front("b") and not archive.on_front("d")

    def test_ties_share_the_front(self):
        archive = self.archive()
        archive.add(_record("a", (1.0, 2.0), 0))
        archive.add(_record("b", (1.0, 2.0), 1))     # identical scores
        assert [r.key for r in archive.front()] == ["a", "b"]

    def test_duplicate_keys_are_noops(self):
        archive = self.archive()
        first = archive.add(_record("a", (1.0, 1.0), 0))
        again = archive.add(_record("a", (9.0, 9.0), 1))
        assert again is first and len(archive) == 1

    def test_best_applies_scalar_rule(self):
        archive = self.archive()
        archive.add(_record("balanced", (3.0, 3.0), 0))
        archive.add(_record("skewed", (8.0, 1.0), 1))
        assert archive.best(lambda s: s[0] * s[1]).key == "balanced"
        with pytest.raises(ValueError):
            self.archive().best(sum)

    def test_score_arity_checked(self):
        with pytest.raises(ValueError, match="objectives"):
            self.archive().add(_record("a", (1.0,), 0))

    def test_checkpoint_round_trip(self, tmp_path):
        archive = self.archive()
        archive.add(_record("a", (1.0, 2.0), 0))
        archive.add(_record("b", (2.0, 1.0), 1))
        archive.add(_record("c", (0.1, 0.1), 2))
        path = tmp_path / "arch.json"
        archive.save(path)
        loaded = ParetoArchive.load(path)
        assert loaded.objectives == archive.objectives
        assert loaded.space == archive.space
        assert [r.key for r in loaded.front()] == [r.key for r in archive.front()]
        assert [(r.key, r.scores, r.evaluation) for r in loaded] == [
            (r.key, r.scores, r.evaluation) for r in archive
        ]

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "arch.json"
        payload = self.archive().to_dict()
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            ParetoArchive.load(path)


# ----------------------------------------------------------------------
# The ask/tell loop (strategy-level, no simulation).
# ----------------------------------------------------------------------


def _fake_evaluate(configs):
    """Deterministic synthetic scores: favour db1=2, db2=2, shuffle."""
    evaluations = []
    for config in configs:
        score = 10.0 - abs(config.b.d1 - 2) - abs(config.b.d2 - 2) + config.shuffle
        point = EfficiencyPoint(
            label=config.label, category=ModelCategory.B.value,
            speedup=score, power_mw=100.0, area_um2=1e6,
        )
        evaluations.append(DesignEvaluation(label=config.label, points=(point,)))
    return SweepOutcome(tuple(evaluations), CacheStats(), workers=0, chunks=0)


SPEEDUP_OBJECTIVE = ObjectiveSet((Objective(ModelCategory.B, "speedup"),))


class TestSearchLoop:
    def test_budget_enforced(self):
        space = paper_space("b")
        archive = ParetoArchive(SPEEDUP_OBJECTIVE.names, space="b")
        outcome = run_search_loop(
            RandomSearch(space, budget=30, seed=1, batch_size=4),
            _fake_evaluate, SPEEDUP_OBJECTIVE, archive, budget=6,
        )
        assert len(archive) == 6 == outcome.evaluated

    def test_exhaustive_covers_space_once(self):
        space = paper_space("b")
        archive = ParetoArchive(SPEEDUP_OBJECTIVE.names, space="b")
        outcome = run_search_loop(
            ExhaustiveSearch(space), _fake_evaluate, SPEEDUP_OBJECTIVE, archive
        )
        assert len(archive) == len(space)
        assert outcome.batches == 1 and outcome.reused == 0
        assert [r.key for r in archive] == [c.notation for c in space]

    def test_resume_replays_without_reevaluating(self):
        space = paper_space("b")
        objectives = SPEEDUP_OBJECTIVE

        def strategy():
            return EvolutionarySearch(space, budget=12, seed=3, **EVO)

        full_archive = ParetoArchive(objectives.names, space="b")
        run_search_loop(strategy(), _fake_evaluate, objectives, full_archive,
                        budget=12)

        # Interrupt at 6, checkpoint, then resume to 12: identical archive.
        half_archive = ParetoArchive(objectives.names, space="b")
        run_search_loop(strategy(), _fake_evaluate, objectives, half_archive,
                        budget=6)
        resumed = run_search_loop(strategy(), _fake_evaluate, objectives,
                                  half_archive, budget=12)
        assert resumed.reused >= 6 and resumed.evaluated == 6
        assert [(r.key, r.scores) for r in half_archive] == [
            (r.key, r.scores) for r in full_archive
        ]

    def test_evolutionary_budget_exceeding_space_terminates(self):
        space = SearchSpace(name="tiny", db1=(2, 3), shuffle=(False, True))
        archive = ParetoArchive(SPEEDUP_OBJECTIVE.names, space="tiny")
        run_search_loop(
            EvolutionarySearch(space, budget=50, seed=0, **EVO),
            _fake_evaluate, SPEEDUP_OBJECTIVE, archive, budget=50,
        )
        assert len(archive) == len(space)  # proposed everything, then went silent

    def test_checkpoint_called_per_batch(self):
        space = paper_space("b")
        archive = ParetoArchive(SPEEDUP_OBJECTIVE.names, space="b")
        saves = []
        outcome = run_search_loop(
            RandomSearch(space, budget=8, seed=1, batch_size=4),
            _fake_evaluate, SPEEDUP_OBJECTIVE, archive, budget=8,
            checkpoint=lambda: saves.append(len(archive)),
        )
        assert saves == [4, 8] and outcome.batches == 2

    def test_build_strategy_validates(self):
        space = paper_space("b")
        assert build_strategy("exhaustive", space).name == "exhaustive"
        with pytest.raises(ValueError, match="budget"):
            build_strategy("random", space)
        with pytest.raises(ValueError, match="unknown search strategy"):
            build_strategy("annealing", space, budget=5)


# ----------------------------------------------------------------------
# SearchSpec.
# ----------------------------------------------------------------------


class TestSearchSpec:
    MINI = {
        "name": "mini",
        "space": {"name": "b-mini", "db1": [2, 3], "max_amux_fanin": 8},
        "strategy": {"kind": "random", "seed": 5, "budget": 4},
        "networks": ["BERT"],
        "options": {"passes_per_gemm": 1, "max_t_steps": 16, "seed": 7},
    }

    def test_round_trip(self):
        spec = SearchSpec.from_dict(self.MINI)
        assert SearchSpec.from_dict(spec.to_dict()) == spec

    def test_preset_space(self):
        spec = SearchSpec.from_dict({"space": "ab"})
        assert spec.space == paper_space("ab")
        assert spec.strategy.kind == "exhaustive"  # bare spec = full sweep
        assert spec.resolve_objectives().categories == (
            ModelCategory.AB, ModelCategory.DENSE
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown search keys"):
            SearchSpec.from_dict({"space": "b", "budget": 5})
        with pytest.raises(ValueError, match="unknown strategy keys"):
            SearchSpec.from_dict({"space": "b", "strategy": {"kid": "x"}})
        with pytest.raises(ValueError, match="needs a 'space'"):
            SearchSpec.from_dict({"name": "nope"})

    def test_infeasible_space_fails_fast(self):
        with pytest.raises(ValueError, match="no feasible config"):
            SearchSpec.from_dict(
                {"space": {"db1": [6], "db2": [4], "max_amux_fanin": 8}}
            )

    def test_missing_budget_fails_fast(self):
        with pytest.raises(ValueError, match="budget"):
            SearchSpec.from_dict(
                {"space": "b", "strategy": {"kind": "evolutionary"}}
            )

    def test_checked_in_example_parses(self):
        from pathlib import Path

        spec = SearchSpec.load(
            Path(__file__).resolve().parent.parent
            / "examples" / "experiments" / "search_b.json"
        )
        assert spec.strategy.kind == "evolutionary"
        assert spec.strategy.budget is not None
        assert len(spec.space) >= 10 * spec.strategy.budget
        assert spec.resolve_objectives().names == (
            "DNN.B:tops_per_watt", "DNN.dense:tops_per_watt"
        )


# ----------------------------------------------------------------------
# End to end through the session (real simulations, shared cache).
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["b", "a", "ab"])
class TestSessionSearchEndToEnd:
    def test_exhaustive_matches_legacy_sweep_and_evolutionary_recovers_star(
        self, session, name
    ):
        space = paper_space(name)
        settings = SPACE_SETTINGS[name]
        sparse_cat, dense_cat = space_categories(name)

        exhaustive = session.search(space, settings=settings)
        assert len(exhaustive.archive) == len(space)

        # Identical to the legacy design_space() sweep through evaluate().
        legacy = session.evaluate(design_space(name), (sparse_cat, dense_cat),
                                  settings)
        assert tuple(r.evaluation for r in exhaustive.archive) == \
            legacy.evaluations
        # ... and the product-rule star matches select_optimal.
        star = select_optimal(list(legacy.evaluations), sparse_cat, dense_cat)
        assert exhaustive.optimal().label == star.label

        # The seeded evolutionary strategy recovers the same Table VI
        # optimal point with < 25% of the exhaustive evaluations.
        budget = BUDGETS[name]
        assert budget < 0.25 * len(space)
        evolutionary = session.search(
            space,
            EvolutionarySearch(space, budget=budget, seed=SEED, **EVO),
            budget=budget, settings=settings,
        )
        assert len(evolutionary.archive) == budget
        assert evolutionary.optimal().label == exhaustive.optimal().label

    def test_evolutionary_bitwise_deterministic_across_workers(
        self, session, name, tmp_path
    ):
        space = paper_space(name)
        settings = SPACE_SETTINGS[name]
        budget = BUDGETS[name]

        def run(workers):
            inner = Session(cache_dir=session.cache_dir, workers=workers)
            result = inner.search(
                space,
                EvolutionarySearch(space, budget=budget, seed=SEED, **EVO),
                budget=budget, settings=settings,
            )
            return [(r.key, r.scores, r.evaluation) for r in result.archive]

        serial = run(0)
        parallel = run(2)
        assert serial == parallel


class TestSessionSearchPlumbing:
    def test_checkpoint_resume_through_session(self, session, tmp_path):
        space = paper_space("b")
        settings = SPACE_SETTINGS["b"]
        path = tmp_path / "b.json"

        def strategy():
            return EvolutionarySearch(space, budget=BUDGETS["b"], seed=SEED, **EVO)

        first = session.search(space, strategy(), budget=BUDGETS["b"],
                               settings=settings, checkpoint=path)
        assert path.is_file()

        resumed = session.search(space, strategy(), budget=BUDGETS["b"],
                                 settings=settings, checkpoint=path, resume=True)
        assert resumed.outcome.evaluated == 0
        assert [(r.key, r.scores) for r in resumed.archive] == [
            (r.key, r.scores) for r in first.archive
        ]
        assert resumed.optimal().label == first.optimal().label

    def test_resume_without_checkpoint_is_an_error(self, session):
        with pytest.raises(ValueError, match="checkpoint"):
            session.search(paper_space("b"), settings=SPACE_SETTINGS["b"],
                           resume=True)

    def test_resume_rejects_mismatched_checkpoint(self, session, tmp_path):
        path = tmp_path / "wrong.json"
        ParetoArchive(("other:metric",), space="b").save(path)
        with pytest.raises(ValueError, match="objectives"):
            session.search(paper_space("b"), settings=SPACE_SETTINGS["b"],
                           checkpoint=path, resume=True)
        ParetoArchive(
            ("DNN.B:tops_per_watt", "DNN.dense:tops_per_watt"), space="zz"
        ).save(path)
        with pytest.raises(ValueError, match="space"):
            session.search(paper_space("b"), settings=SPACE_SETTINGS["b"],
                           checkpoint=path, resume=True)

    def test_spec_through_session(self, session):
        result = session.search(
            {
                "name": "spec-mini",
                "space": {"name": "b-mini", "db1": [2, 3], "db3": [0, 1],
                          "max_amux_fanin": 8},
                "strategy": {"kind": "random", "seed": 5, "budget": 4},
                "networks": ["BERT"],
                "options": {"passes_per_gemm": 1, "max_t_steps": 16, "seed": 7},
            }
        )
        assert len(result.archive) == 4
        assert result.name == "spec-mini"
        payload = result.to_dict()
        assert payload["evaluations"] == 4
        assert payload["optimal"]["key"] == result.optimal().key
        assert len(payload["front"]) == len(result.front())
