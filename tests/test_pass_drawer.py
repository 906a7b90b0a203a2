"""Tests for the background pass drawer of the in-process path.

A ``Session(workers<=1)`` runs its cold designs as network tasks in the
calling process (``repro.runtime.runner.evaluate_in_process``) while one
``repro.sim.engine.PassDrawer`` thread draws the sampled-pass sets the
tasks will miss.  The load-bearing guarantees:

* an exception in one draw reaches the caller unchanged;
* no drawer thread outlives its call, whether the call returns or
  raises (a progress callback raising mid-loop included);
* a drawer draws nothing before the call's first passes-memo miss, so a
  call whose layers all come from the layer tier draws nothing;
* leaving a drawer stops it after the draw in progress, and every future
  it was given settles: drawn, failed or cancelled;
* results equal those of draws made on the calling thread.
"""

import pickle
import threading
from concurrent.futures import CancelledError
from dataclasses import replace

import pytest

from repro.api import Session
from repro.config import ModelCategory
from repro.dse.evaluate import EvalSettings, parse_design
from repro.sim import engine
from repro.sim.engine import EvalContext, PassDrawer, SimulationOptions, pending_pass_keys

CHEAP = SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=7)
SETTINGS = EvalSettings(quick=True, options=CHEAP, networks=("BERT",))
DESIGNS = ["Sparse.B*", "Griffin", "SparTen"]
CATS = (ModelCategory.B, ModelCategory.DENSE)


def drawer_threads():
    return [thread for thread in threading.enumerate() if thread.name == "pass-drawer"]


def bert_keys():
    network = SETTINGS.suite(ModelCategory.B)[0].network
    runs = [(parse_design(name).config_for(category), category)
            for name in DESIGNS for category in CATS]
    return pending_pass_keys(network, runs, CHEAP, EvalContext())


class TestInProcessDrawer:
    def test_results_equal_draws_on_the_calling_thread(self, tmp_path, monkeypatch):
        drawn = Session(workers=1, cache_dir=tmp_path / "drawer").evaluate(
            DESIGNS, CATS, SETTINGS
        )
        assert not drawer_threads()
        monkeypatch.setattr(PassDrawer, "take", lambda self, key: None)
        inline = Session(workers=1, cache_dir=tmp_path / "inline").evaluate(
            DESIGNS, CATS, SETTINGS
        )
        assert drawn.evaluations == inline.evaluations
        assert drawn.cache_stats == inline.cache_stats

    def test_draw_error_reaches_the_caller_unchanged(self, tmp_path, monkeypatch):
        real = engine._sampled_passes
        calls, errors = [], []

        def failing_second(*key):
            calls.append(threading.current_thread().name)
            if len(calls) == 2:
                errors.append(RuntimeError("the second draw failed"))
                raise errors[0]
            return real(*key)

        monkeypatch.setattr(engine, "_sampled_passes", failing_second)
        with pytest.raises(RuntimeError) as raised:
            Session(workers=1, cache_dir=tmp_path).evaluate(DESIGNS, CATS, SETTINGS)
        assert raised.value is errors[0]
        assert calls[1] == "pass-drawer"
        assert not drawer_threads()

    def test_progress_error_mid_loop_stops_the_drawer(self, tmp_path):
        class Stop(Exception):
            pass

        def progress(done, total):
            raise Stop(done)

        with pytest.raises(Stop):
            Session(workers=1, cache_dir=tmp_path).evaluate(
                DESIGNS, CATS, SETTINGS, progress=progress
            )
        assert not drawer_threads()


class TestPassDrawer:
    def test_draws_from_the_first_miss_and_stops_after_the_draw_in_progress(
        self, monkeypatch
    ):
        keys = bert_keys()
        assert len(keys) >= 2
        started, release = threading.Event(), threading.Event()
        calls = []

        def blocking(*key):
            calls.append(key)
            started.set()
            release.wait(30)
            return {"drawn": key}

        monkeypatch.setattr(engine, "_sampled_passes", blocking)
        with PassDrawer(keys) as drawer:
            assert not started.wait(0.2)  # nothing drawn before the call misses
            assert drawer.take(("a key it was not given",)) is None
            assert started.wait(30)
            # Released only after leaving has raised the cancel flag.
            threading.Timer(0.2, release.set).start()
        assert calls == keys[:1]
        assert not drawer_threads()
        assert drawer.take(keys[0]) == {"drawn": keys[0]}
        for key in keys[1:]:
            with pytest.raises(CancelledError):
                drawer.take(key)

    def test_take_answers_each_given_key_once(self):
        keys = bert_keys()
        with PassDrawer(keys[:1]) as drawer:
            assert drawer.take(keys[1]) is None
            drawn = drawer.take(keys[0])
            assert pickle.dumps(drawn) == pickle.dumps(engine._sampled_passes(*keys[0]))
            assert drawer.take(keys[0]) is None

    def test_a_call_that_misses_no_pass_set_draws_nothing(self, tmp_path, monkeypatch):
        """Label twins of stored designs miss the network tier but read
        every layer from the layer tier: the drawer, given their keys,
        waits for a passes-memo miss that never comes."""
        Session(workers=1, cache_dir=tmp_path).evaluate(DESIGNS, CATS, SETTINGS)
        draws = []
        real = engine._sampled_passes
        monkeypatch.setattr(engine, "_sampled_passes",
                            lambda *key: draws.append(key) or real(*key))
        twins = [replace(parse_design(name).config_for(ModelCategory.B), name=f"{name} twin")
                 for name in DESIGNS]
        outcome = Session(workers=1, cache_dir=tmp_path).evaluate(
            twins, (ModelCategory.B,), SETTINGS
        )
        assert outcome.cache_stats.network_misses > 0 and outcome.cache_stats.layer_misses == 0
        assert draws == []
