"""Tests for the unified session/experiment API (`repro.api`).

The load-bearing guarantees:

* `parse_design` parses configs, Griffin, starred points, and baseline
  names uniformly (case-insensitive);
* two sessions with different cache directories are fully isolated (no
  bleed-through in either direction), even in one process: each owns its
  in-process memos, and writes and counts its own store;
* designs that differ only by label share the session's layer memo, and
  a pool worker keeps its memos across the chunks it runs;
* each call's `cache_stats` is exactly its own activity -- under forced
  overlap on one shared session, and across worker processes -- and
  `session.stats` is their sum;
* `session.evaluate` is bitwise-identical between the serial and the
  parallel path for a mixed design list (config + Griffin + baseline);
* a pool session answers warm designs in-process (no runner chunk, at
  most two key-function calls per network hit) and sends only the rest
  to the pool, with results and per-tier stats equal to the serial loop;
* nothing is installed engine-wide: the store travels with each call.

(The `evaluate_arch` / `evaluate_griffin` shims and their identity tests
were removed in v2.0 at the end of their deprecation cycle.)
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Session
from repro.baselines import baseline
from repro.config import (
    GRIFFIN,
    SPARSE_A_STAR,
    SPARSE_B_STAR,
    ModelCategory,
    sparse_b,
)
from repro.dse.evaluate import (
    BaselineDesign,
    ConfigDesign,
    Design,
    EvalSettings,
    GriffinDesign,
    as_design,
    evaluate_design,
    parse_design,
)
from repro.obs import trace as obs_trace
from repro.runtime.cache import CacheStats, PersistentLayerCache
from repro.sim import engine
from repro.sim.engine import SimulationOptions
from test_runtime_cache import layer_keys, write_row

CHEAP = SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=7)
SETTINGS = EvalSettings(quick=True, options=CHEAP, networks=("BERT",))
CATS = (ModelCategory.B, ModelCategory.DENSE)
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestParseDesign:
    def test_notation(self):
        design = parse_design("B(4,0,1,on)")
        assert isinstance(design, ConfigDesign)
        assert design.label == "B(4,0,1,on)"

    def test_dense_and_baseline_aliases(self):
        assert parse_design("Dense").label == "Baseline"
        assert parse_design("baseline").label == "Baseline"

    def test_griffin_any_case(self):
        for name in ("Griffin", "griffin", "GRIFFIN"):
            design = parse_design(name)
            assert isinstance(design, GriffinDesign)
            assert design.config_for(ModelCategory.B) == GRIFFIN.conf_b

    def test_starred_points(self):
        assert parse_design("Sparse.B*").config == SPARSE_B_STAR
        assert parse_design("b*").config == SPARSE_B_STAR
        assert parse_design("sparse.a*").config == SPARSE_A_STAR

    def test_baseline_names(self):
        for name in ("SparTen", "tensordash", "BitTactical", "Cnvlutin",
                     "cambricon-x"):
            design = parse_design(name)
            assert isinstance(design, BaselineDesign)
        assert parse_design("sparten").label == "SparTen"

    def test_unknown_design_lists_choices(self):
        with pytest.raises(ValueError, match="Griffin"):
            parse_design("NoSuchDesign")

    def test_all_parsed_designs_satisfy_protocol(self):
        for name in ("Dense", "Griffin", "Sparse.B*", "SparTen", "B(2,0,0)"):
            assert isinstance(parse_design(name), Design)


class TestAsDesign:
    def test_coercions(self):
        config = sparse_b(2, 0, 0)
        assert as_design(config) == ConfigDesign(config)
        assert as_design(GRIFFIN) == GriffinDesign(GRIFFIN)
        assert as_design(baseline("SparTen")) == BaselineDesign(baseline("SparTen"))
        assert isinstance(as_design("Griffin"), GriffinDesign)

    def test_design_passes_through(self):
        design = ConfigDesign(sparse_b(2, 0, 0))
        assert as_design(design) is design

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_design(42)


class TestSessionEvaluate:
    def test_empty(self):
        outcome = Session(use_cache=False).evaluate([], CATS, SETTINGS)
        assert outcome.evaluations == ()

    def test_parallel_equals_serial_mixed_designs(self, tmp_path):
        designs = [sparse_b(2, 0, 0), "Griffin", "SparTen", "Sparse.B*"]
        serial = Session(workers=0, cache_dir=tmp_path / "s").evaluate(
            designs, CATS, SETTINGS
        )
        parallel = Session(workers=2, cache_dir=tmp_path / "p").evaluate(
            designs, CATS, SETTINGS
        )
        assert parallel.evaluations == serial.evaluations
        assert [e.label for e in serial.evaluations] == [
            "B(2,0,0,off)", "Griffin", "SparTen", "Sparse.B*"
        ]

    def test_cache_isolation_between_sessions(self, tmp_path):
        config = sparse_b(2, 0, 1)
        one = Session(cache_dir=tmp_path / "one")
        two = Session(cache_dir=tmp_path / "two")

        first = one.evaluate([config], (ModelCategory.B,), SETTINGS)
        assert first.cache_stats.puts > 0
        assert one.stats.puts == first.cache_stats.puts

        # A different cache dir must not see session one's entries.
        second = two.evaluate([config], (ModelCategory.B,), SETTINGS)
        assert second.cache_stats.hits == 0
        assert second.cache_stats.puts > 0
        assert second.evaluations == first.evaluations

        # ... and warms up independently.
        warm = two.evaluate([config], (ModelCategory.B,), SETTINGS)
        assert warm.cache_stats.hit_rate == 1.0
        assert two.stats.hits == warm.cache_stats.hits

    def test_second_session_writes_and_counts_its_own_store(self, tmp_path):
        """No memo clearing between the sessions: each session owns its
        memos, so the second session's store gets every layer entry the
        first one got, and its own lookups."""
        config = sparse_b(2, 0, 1)
        first = Session(cache_dir=tmp_path / "one").evaluate(
            [config], (ModelCategory.B,), SETTINGS
        )
        second = Session(cache_dir=tmp_path / "two").evaluate(
            [config], (ModelCategory.B,), SETTINGS
        )
        assert second.evaluations == first.evaluations
        assert second.cache_stats.layer_lookups > 0
        assert second.cache_stats == first.cache_stats
        one = PersistentLayerCache(tmp_path / "one")
        two = PersistentLayerCache(tmp_path / "two")
        assert len(two) == len(one)
        assert layer_keys(tmp_path / "two") == layer_keys(tmp_path / "one")

    def test_fresh_session_is_cold_without_any_clear_call(self, tmp_path):
        """A second session in the same process, after a first one warmed
        its memos, draws every sampled-pass set again and counts the same
        cache activity: nothing carries over between sessions."""
        designs = ["Sparse.B*", "Griffin"]
        runs = []
        for name in ("one", "two"):
            tracer = obs_trace.Tracer()
            with obs_trace.tracing(tracer):
                outcome = Session(cache_dir=tmp_path / name).evaluate(
                    designs, CATS, SETTINGS
                )
            misses = [
                span for span in tracer.export()
                if span["name"] == "engine.sample_passes"
                and span["attrs"]["memo"] == "miss"
            ]
            runs.append((outcome, len(misses)))
        (first, first_draws), (second, second_draws) = runs
        assert second.evaluations == first.evaluations
        assert second.cache_stats == first.cache_stats
        assert second.cache_stats.memo_hits > 0
        assert second_draws == first_draws > 0

    def test_label_twins_share_one_memo_entry_and_read_no_layer(self, tmp_path):
        """Two designs that differ only by display name simulate once: the
        twin's layers come from the session's memo, not from the store."""
        config = sparse_b(2, 0, 1)
        twin = replace(config, name="Twin")
        alone = Session(cache_dir=tmp_path / "alone").evaluate(
            [config], (ModelCategory.B,), SETTINGS
        )
        both = Session(cache_dir=tmp_path / "both").evaluate(
            [config, twin], (ModelCategory.B,), SETTINGS
        )
        stats = both.cache_stats
        assert both.evaluations[1].speedup(ModelCategory.B) == (
            both.evaluations[0].speedup(ModelCategory.B)
        )
        assert stats.hits == 0
        assert (stats.layer_misses, stats.layer_puts) == (
            alone.cache_stats.layer_misses, alone.cache_stats.layer_puts
        )
        twin_layers = len(SETTINGS.suite(ModelCategory.B)[0].network.layers)
        assert stats.memo_hits == alone.cache_stats.memo_hits + twin_layers
        # The network tier is keyed on the label: the twin has its own entry.
        assert stats.network_puts == 2 * alone.cache_stats.network_puts

    def test_pool_worker_draws_each_pass_set_once(self, tmp_path):
        """One chunk per design on two workers: each worker process keeps
        its memos across the chunks it runs, so no sampled-pass set is
        drawn twice in one process (counted from ``memo="miss"`` spans)."""
        spec = ExperimentSpec.load(EXAMPLES / "experiments" / "fig8.json")
        settings = replace(SETTINGS, options=spec.options)
        tracer = obs_trace.Tracer()
        with obs_trace.tracing(tracer):
            outcome = Session(workers=2, cache_dir=tmp_path, chunk_size=1).evaluate(
                spec.resolve_designs(), CATS, settings
            )
        assert outcome.chunks == len(spec.designs)
        spans = tracer.export()
        by_id = {span["id"]: span for span in spans}

        def worker_pid(span):
            while span["name"] != "runner.chunk":
                span = by_id[span["parent"]]
            return span["attrs"]["pid"]

        draws = [
            (worker_pid(span), span["attrs"]["gemm"], span["attrs"]["seed"],
             span["attrs"]["weights"])
            for span in spans
            if span["name"] == "engine.sample_passes" and span["attrs"]["memo"] == "miss"
        ]
        assert draws and len(draws) == len(set(draws))
        assert any(
            span["attrs"]["memo"] == "hit"
            for span in spans if span["name"] == "engine.sample_passes"
        )

    def test_overlapping_calls_count_exactly_their_own_activity(
        self, tmp_path, monkeypatch
    ):
        """Two threads on one shared session, each held at a barrier inside
        its first layer simulation until the other is in flight too: each
        call's cache_stats equal the same call run alone, and the session
        totals are their sum."""
        designs = [sparse_b(2, 0, 0), sparse_b(4, 0, 1)]
        alone = []
        for index, design in enumerate(designs):
            outcome = Session(cache_dir=tmp_path / f"alone{index}").evaluate(
                [design], (ModelCategory.B,), SETTINGS
            )
            alone.append(outcome.cache_stats)

        barrier = threading.Barrier(2, timeout=30.0)
        held_threads = set()
        simulate_layer = engine.simulate_layer

        def held(*args, **kwargs):
            if threading.get_ident() not in held_threads:
                held_threads.add(threading.get_ident())
                barrier.wait()
            return simulate_layer(*args, **kwargs)

        monkeypatch.setattr(engine, "simulate_layer", held)
        session = Session(cache_dir=tmp_path / "shared")
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(session.evaluate, [design], (ModelCategory.B,), SETTINGS)
                for design in designs
            ]
            overlapped = [future.result(timeout=120).cache_stats for future in futures]
        assert len(held_threads) == 2
        assert overlapped == alone
        total = CacheStats()
        for stats in overlapped:
            total.merge(stats)
        assert session.stats == total

    def test_session_totals_lose_no_update_under_thread_stress(
        self, tmp_path
    ):
        """Many threads (more than cores) fold warm network-tier hits into
        one session's totals with a short switch interval: the totals are
        exactly the sum of the per-call counts."""
        session = Session(cache_dir=tmp_path)
        designs = [sparse_b(2, 0, 0), sparse_b(4, 0, 1)]
        session.evaluate(designs, (ModelCategory.B,), SETTINGS)  # warm the store
        before = session.stats
        calls_per_thread = 12

        def hammer(index):
            design = designs[index % len(designs)]
            return [
                session.evaluate([design], (ModelCategory.B,), SETTINGS).cache_stats
                for _ in range(calls_per_thread)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(hammer, index) for index in range(8)]
                per_call = [s for f in futures for s in f.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert len(per_call) == 8 * calls_per_thread
        assert all(s == CacheStats(hits=1, network_hits=1) for s in per_call)
        total = before
        for stats in per_call:
            total.merge(stats)
        assert session.stats == total

    def test_parallel_call_stats_equal_serial(self, tmp_path):
        """Designs with disjoint layer keys: every worker chunk counts its
        own handle, and the summed per-call stats match the serial loop."""
        designs = [sparse_b(2, 0, 0), sparse_b(4, 0, 1), sparse_b(2, 1, 0)]
        serial = Session(workers=0, cache_dir=tmp_path / "s").evaluate(
            designs, (ModelCategory.B,), SETTINGS
        )
        parallel = Session(workers=2, cache_dir=tmp_path / "p").evaluate(
            designs, (ModelCategory.B,), SETTINGS
        )
        assert parallel.evaluations == serial.evaluations
        assert parallel.cache_stats.puts > 0
        assert parallel.cache_stats == serial.cache_stats

    def test_warm_parallel_fig8_answers_in_session(
        self, tmp_path, monkeypatch
    ):
        """A warm fig8 on a pool session: at most two key-function calls per
        network hit (one key, one memoized fingerprint) and no runner chunk."""
        spec = ExperimentSpec.load(EXAMPLES / "experiments" / "fig8.json")
        designs, categories = spec.resolve_designs(), spec.resolve_categories()
        settings = EvalSettings(quick=True, options=CHEAP, networks=("BERT", "AlexNet"))
        Session(cache_dir=tmp_path).evaluate(designs, categories, settings)
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("simulation_key", "network_key", "network_fingerprint"):
            monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))
        session = Session(workers=2, cache_dir=tmp_path)
        warm = session.evaluate(designs, categories, settings)
        assert warm.chunks == 0 and session._runner is None
        assert warm.cache_stats.misses == 0
        networks = sum(len(settings.suite(category)) for category in categories)
        assert warm.cache_stats.network_hits == len(designs) * networks
        assert "simulation_key" not in calls
        assert len(calls) <= 2 * warm.cache_stats.network_hits

    def test_mixed_warm_and_cold_designs_equal_serial(self, tmp_path):
        """Warm, partly warm (one category cached), broken (a corrupt entry
        after a hit) and cold designs: a pool session answers the warm one
        in-process and sends the rest to the pool, with evaluations,
        per-tier stats and progress ticks equal to the serial loop's."""
        warm, partial = sparse_b(2, 0, 0), sparse_b(4, 0, 1)
        broken, cold = sparse_b(2, 1, 0), sparse_b(1, 0, 0)
        bert = SETTINGS.suite(ModelCategory.DENSE)[0].network
        outcomes, ticks = {}, {}
        for workers in (1, 2):
            root = tmp_path / f"w{workers}"
            Session(cache_dir=root).evaluate([warm, broken], CATS, SETTINGS)
            Session(cache_dir=root).evaluate([partial], (ModelCategory.B,), SETTINGS)
            write_row(root, "networks",
                      engine.network_key(bert, broken, ModelCategory.DENSE, CHEAP),
                      "{ truncated")
            ticks[workers] = []
            outcomes[workers] = Session(workers=workers, cache_dir=root).evaluate(
                [cold, warm, partial, broken], CATS, SETTINGS,
                progress=lambda done, total, _t=ticks[workers]: _t.append((done, total)),
            )
        serial, parallel = outcomes[1], outcomes[2]
        assert parallel.evaluations == serial.evaluations
        assert parallel.cache_stats == serial.cache_stats
        assert serial.cache_stats.network_errors == 1
        assert parallel.chunks >= 1
        assert ticks[2][0] == (1, 4) and ticks[2][-1] == ticks[1][-1] == (4, 4)

    def test_session_stats_accumulate_across_calls(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.evaluate([sparse_b(2, 0, 0)], (ModelCategory.B,), SETTINGS)
        session.evaluate([sparse_b(2, 0, 0)], (ModelCategory.B,), SETTINGS)
        assert session.stats.puts > 0 and session.stats.hits > 0

    def test_overlapping_serial_calls_count_stats_exactly_once(
        self, tmp_path
    ):
        """Concurrent serial evaluations on one session: the session totals
        are the sum of the calls' own counts, nothing counted twice.  A
        barrier in the progress callbacks holds both calls until each has
        finished evaluating."""
        session = Session(cache_dir=tmp_path)
        barrier = threading.Barrier(2, timeout=30.0)

        def rendezvous(done, total):
            barrier.wait()

        designs = [sparse_b(2, 0, 0), sparse_b(2, 1, 0)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(
                    session.evaluate, [design], (ModelCategory.B,),
                    SETTINGS, None, rendezvous,
                )
                for design in designs
            ]
            for future in futures:
                future.result(timeout=120)
        total = CacheStats()
        for future in futures:
            total.merge(future.result().cache_stats)
        assert session.stats.puts > 0
        assert session.stats == total

    def test_simulate_through_cache(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        result = session.simulate("BERT", "Griffin", ModelCategory.B, CHEAP)
        assert result.speedup > 1.0
        assert session.stats.puts > 0
        again = session.simulate("BERT", "Griffin", ModelCategory.B, CHEAP)
        assert again == result
        assert session.stats.hits > 0

    def test_use_cache_false_touches_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = Session(use_cache=False)
        assert session.cache_dir is None
        outcome = session.evaluate([sparse_b(2, 0, 0)], (ModelCategory.B,), SETTINGS)
        assert outcome.cache_stats.lookups == 0
        assert len(PersistentLayerCache(tmp_path)) == 0

    def test_context_manager_closes_the_pool(self, tmp_path):
        with Session(workers=2, cache_dir=tmp_path, keep_pool=True) as session:
            session._ensure_runner()._ensure_pool()
            assert session._runner is not None
        assert session._runner is None

    def test_rejects_negative_workers_and_bad_mode(self):
        with pytest.raises(ValueError):
            Session(workers=-1)
        with pytest.raises(ValueError):
            Session(use_cache="sometimes")


class TestInheritMode:
    def test_inherit_mode_is_gone(self):
        """The v3.0 removal: with the store passed to the engine on every
        call there is no engine-wide cache to install or inherit."""
        import repro
        import repro.api

        with pytest.raises(ValueError):
            Session(use_cache="inherit")
        assert not hasattr(repro.api, "INHERIT")
        for name in ("set_persistent_cache", "get_persistent_cache",
                     "persistent_cache", "_persistent_cache"):
            assert not hasattr(engine, name)
            assert not hasattr(repro, name)

    def test_shims_are_gone(self):
        """The v2.0 removal: the deprecated per-family entry points no
        longer exist anywhere in the public API."""
        import repro
        import repro.dse
        import repro.dse.evaluate as evaluate_module

        for namespace in (repro, repro.dse, evaluate_module):
            assert not hasattr(namespace, "evaluate_arch")
            assert not hasattr(namespace, "evaluate_griffin")
        assert not hasattr(repro, "default_session")


class TestExperimentSpec:
    MINI = {
        "name": "mini",
        "designs": ["Dense", "B(2,0,0)"],
        "categories": ["DNN.B"],
        "networks": ["BERT"],
        "options": {"passes_per_gemm": 1, "max_t_steps": 16, "seed": 7},
    }

    def test_round_trip(self):
        spec = ExperimentSpec.from_dict(self.MINI)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(json.dumps(spec.to_dict())) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment keys"):
            ExperimentSpec.from_dict({"designs": ["Dense"], "archs": []})
        with pytest.raises(ValueError, match="unknown simulation options"):
            ExperimentSpec.from_dict({"designs": ["Dense"], "options": {"x": 1}})

    def test_needs_designs_or_space(self):
        with pytest.raises(ValueError, match="designs"):
            ExperimentSpec.from_dict({"name": "empty"})

    def test_bad_design_name_fails_fast(self):
        with pytest.raises(ValueError, match="unrecognized design"):
            ExperimentSpec.from_dict({"designs": ["NoSuchDesign"]})

    def test_space_expansion_and_default_categories(self):
        spec = ExperimentSpec.from_dict({"name": "fig5", "space": "b"})
        designs = spec.resolve_designs()
        assert len(designs) > 10
        assert spec.resolve_categories() == (ModelCategory.B, ModelCategory.DENSE)

    def test_default_categories_without_space(self):
        spec = ExperimentSpec.from_dict({"designs": ["Dense"]})
        assert spec.resolve_categories() == (
            ModelCategory.DENSE, ModelCategory.B, ModelCategory.A, ModelCategory.AB
        )

    def test_quick_override_forces_smoke_sampling(self):
        spec = ExperimentSpec.from_dict(self.MINI)
        settings = spec.eval_settings(quick=True)
        assert settings.options.passes_per_gemm == 1
        assert settings.options.max_t_steps == 16
        assert settings.options.seed == 7

    def test_quick_false_forces_full_suite(self):
        spec = ExperimentSpec.from_dict(self.MINI)
        settings = spec.eval_settings(quick=False)
        assert settings.quick is False
        assert settings.options == spec.options
        assert spec.eval_settings(quick=None).quick is True

    def test_run_through_session(self, tmp_path):
        spec = ExperimentSpec.from_dict(self.MINI)
        session = Session(cache_dir=tmp_path)
        result = session.run(spec)
        assert [e.label for e in result.evaluations] == ["Baseline", "B(2,0,0,off)"]
        assert result.cache_stats.puts > 0
        rows = result.rows()
        assert rows[0]["Config"] == "Baseline" and "B speedup" in rows[0]
        assert "mini" in result.table()
        payload = result.to_dict()
        assert payload["experiment"] == "mini"
        assert payload["categories"] == ["DNN.B"]

        # Identical result through the raw evaluation path, served from a
        # handle on the session's store.
        store = PersistentLayerCache(session.cache_dir)
        direct = evaluate_design(
            sparse_b(2, 0, 0), (ModelCategory.B,), spec.eval_settings(), cache=store
        )
        assert direct == result.evaluations[1]
        assert store.stats.hits > 0 and store.stats.misses == 0

    def test_run_accepts_dict_and_path(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(self.MINI))
        session = Session(cache_dir=tmp_path / "cache")
        by_path = session.run(path)
        by_dict = session.run(self.MINI)
        assert by_path.evaluations == by_dict.evaluations


class TestFig8Spec:
    def test_checked_in_spec_parses_and_covers_the_comparison(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiments" / "fig8.json")
        labels = [design.label for design in spec.resolve_designs()]
        assert labels == [
            "Baseline", "Sparse.B*", "Sparse.A*", "Sparse.AB*", "Griffin",
            "BitTactical", "TensorDash", "SparTen",
        ]
        assert spec.resolve_categories() == (
            ModelCategory.DENSE, ModelCategory.B, ModelCategory.A, ModelCategory.AB
        )

    def test_checked_in_fig5_spec_expands_the_space(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiments" / "fig5_sparse_b.json")
        assert spec.space == "b"
        assert len(spec.resolve_designs()) == 42
