"""Invariant tests for the sweep runtime's process-pool path.

The load-bearing guarantees:

* a full ``sparse_b_space`` sweep through ``Session(workers=N).evaluate``
  is bitwise-identical to the serial loop for any worker count (same
  seeds -- every evaluation is an independent deterministic function of
  its design point);
* a second invocation against the same cache directory is served almost
  entirely from the persistent cache (>= 90% hit rate).

The serial side of each comparison is the in-process loop of
:meth:`repro.api.Session.evaluate` (``workers <= 1``); the parallel side
is the same call with ``workers > 1``, which fans the network tasks out
over a process pool (:func:`repro.runtime.runner.evaluate_in_pool`).

The suite is restricted to BERT (the cheapest Table IV benchmark: two
unique encoder layers) so the *full* 42-point configuration space stays
affordable; the invariants do not depend on which network is simulated.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Session
from repro.config import SPARSE_B_STAR, ModelCategory, sparse_b
from repro.dse.evaluate import EvalSettings, as_design
from repro.dse.explorer import design_space, sparse_b_space
from repro.runtime.cache import PersistentLayerCache
from repro.runtime.runner import chunk_indices, content_groups, network_tasks
from repro.sim.engine import SimulationOptions

CHEAP = SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=5)
SETTINGS = EvalSettings(quick=True, options=CHEAP, networks=("BERT",))
CATEGORIES = (ModelCategory.B, ModelCategory.DENSE)
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestLifecycle:
    def test_close_without_waiting_is_nonblocking_and_idempotent(self):
        session = Session(workers=2, use_cache=False, keep_pool=True)
        session._ensure_pool()
        session.close(wait=False)  # the bounded-shutdown straggler path
        session.close()  # idempotent across modes
        assert session._pool is None


class TestChunking:
    def test_partition_is_exact_and_ordered(self):
        chunks = chunk_indices(10, 3)
        assert chunks == [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9,)]
        assert [i for chunk in chunks for i in chunk] == list(range(10))

    def test_deterministic(self):
        assert chunk_indices(42, 5) == chunk_indices(42, 5)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            chunk_indices(5, 0)

    def test_default_tasks_one_per_network_sliced_to_fill_workers(self):
        # As many networks as workers, or more: one task per network.
        assert network_tasks(8, 3, 2) == [(n, tuple(range(8))) for n in range(3)]
        # Fewer: each network's designs cut into ceil(workers / networks).
        assert network_tasks(42, 1, 4) == [
            (0, tuple(range(s, min(s + 11, 42)))) for s in (0, 11, 22, 33)
        ]
        assert network_tasks(5, 2, 5) == [
            (n, chunk) for n in range(2) for chunk in ((0, 1), (2, 3), (4,))
        ]
        assert network_tasks(1, 1, 8) == [(0, (0,))]
        assert network_tasks(0, 3, 4) == network_tasks(4, 0, 4) == []
        assert network_tasks(42, 3, 4) == network_tasks(42, 3, 4)

    def test_slices_take_whole_groups(self):
        # Designs 0, 3 and 4 share a config on some category, as fig8's
        # Baseline, Sparse.AB* and Griffin do: one slice holds all three.
        groups = [0, 1, 2, 0, 0, 5, 6, 7]
        assert network_tasks(8, 1, 2, groups=groups) == [
            (0, (0, 1, 3, 4)), (0, (2, 5, 6, 7))
        ]
        assert network_tasks(5, 1, 2, groups=range(5)) == network_tasks(5, 1, 2)
        assert chunk_indices(4, 1, [0, 1, 0, 1]) == [(0, 2), (1, 3)]

    def test_content_groups_join_designs_that_share_a_config(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiments" / "fig8.json")
        designs = spec.resolve_designs()
        # Griffin runs Baseline's config on DNN.dense and Sparse.AB*'s on
        # DNN.AB; the rest share none.
        assert content_groups(designs, spec.resolve_categories()) == [
            0, 1, 2, 0, 0, 5, 6, 7
        ]
        twin = replace(SPARSE_B_STAR, name="twin")
        assert content_groups(
            [as_design(c) for c in (sparse_b(2, 0, 0), SPARSE_B_STAR, twin)],
            (ModelCategory.B,),
        ) == [0, 1, 1]


class TestRunnerBasics:
    def test_empty_sweep(self):
        """No designs on a pool session: nothing is sent to a pool."""
        session = Session(workers=2, use_cache=False, keep_pool=True)
        outcome = session.evaluate([], CATEGORIES)
        assert outcome.evaluations == () and len(outcome) == 0
        assert outcome.chunks == 0 and session._pool is None

    def test_progress_reported_serially(self, tmp_path):
        seen = []
        session = Session(
            workers=0, cache_dir=tmp_path, progress=lambda d, t: seen.append((d, t))
        )
        configs = sparse_b_space()[:3]
        session.evaluate(configs, (ModelCategory.B,), SETTINGS)
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestParallelEqualsSerial:
    """The tentpole invariant, over the full Fig. 5 configuration space."""

    @pytest.fixture(scope="class")
    def serial_outcome(self):
        session = Session(workers=0, use_cache=False)
        return session.evaluate(design_space("b"), CATEGORIES, SETTINGS)

    def test_full_space_is_covered(self, serial_outcome):
        configs = design_space("b")
        assert len(configs) == len(serial_outcome)
        assert [e.label for e in serial_outcome.evaluations] == [
            c.label for c in configs
        ]

    def test_workers_4_bitwise_identical_then_90pct_cached(
        self, serial_outcome, tmp_path
    ):
        configs = design_space("b")
        progress = []
        first = Session(
            workers=4, cache_dir=tmp_path, progress=lambda d, t: progress.append((d, t))
        ).evaluate(configs, CATEGORIES, SETTINGS)
        assert first.evaluations == serial_outcome.evaluations
        assert first.workers == 4 and first.chunks > 1
        assert progress[-1] == (len(configs), len(configs))
        assert first.cache_stats.puts > 0

        # Second invocation, a fresh session on the same cache dir: >= 90%
        # persistent-cache hits.
        second = Session(workers=4, cache_dir=tmp_path).evaluate(
            configs, CATEGORIES, SETTINGS
        )
        assert second.evaluations == serial_outcome.evaluations
        assert second.cache_stats.lookups > 0
        assert second.cache_stats.hit_rate >= 0.9

    def test_odd_worker_count_identical(self, serial_outcome, tmp_path):
        configs = design_space("b")
        outcome = Session(workers=3, cache_dir=tmp_path).evaluate(
            configs, CATEGORIES, SETTINGS
        )
        assert outcome.evaluations == serial_outcome.evaluations

    def test_serial_with_cache_identical(self, serial_outcome, tmp_path):
        configs = design_space("b")
        outcome = Session(workers=1, cache_dir=tmp_path).evaluate(
            configs, CATEGORIES, SETTINGS
        )
        assert outcome.evaluations == serial_outcome.evaluations
        # Everything was computed once and written through to disk.
        assert outcome.cache_stats.puts == outcome.cache_stats.misses > 0


class TestNoCache:
    def test_use_cache_false_serial_writes_nothing(self, tmp_path,
                                                   monkeypatch):
        """A use_cache=False session neither reads nor writes any store,
        not even the default one."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        outcome = Session(workers=0, use_cache=False).evaluate(
            sparse_b_space()[:2], (ModelCategory.B,), SETTINGS
        )
        assert outcome.cache_stats.lookups == 0
        assert len(PersistentLayerCache(tmp_path)) == 0, "nothing may be written"

    def test_use_cache_false_parallel_workers_write_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        outcome = Session(workers=2, use_cache=False).evaluate(
            sparse_b_space()[:4], (ModelCategory.B,), SETTINGS
        )
        assert outcome.cache_stats.lookups == 0
        assert len(PersistentLayerCache(tmp_path)) == 0, "workers must write nothing"


class TestCrossProcessReuse:
    def test_serial_then_parallel_reuses_serial_results(self, tmp_path):
        configs = sparse_b_space()[:6]
        serial = Session(workers=0, cache_dir=tmp_path).evaluate(
            configs, (ModelCategory.B,), SETTINGS
        )
        assert serial.cache_stats.puts > 0

        parallel = Session(workers=2, cache_dir=tmp_path).evaluate(
            configs, (ModelCategory.B,), SETTINGS
        )
        assert parallel.evaluations == serial.evaluations
        assert parallel.cache_stats.misses == 0
        assert parallel.cache_stats.hit_rate == 1.0

        # Renamed twins miss the network tier, which is keyed on the
        # label, so they run in the pool: its worker processes read every
        # layer the serial run wrote and simulate none.
        twins = [replace(config, name=f"twin-{i}") for i, config in enumerate(configs)]
        pooled = Session(workers=2, cache_dir=tmp_path).evaluate(
            twins, (ModelCategory.B,), SETTINGS
        )
        assert pooled.chunks > 0
        assert pooled.cache_stats.layer_misses == 0 < pooled.cache_stats.layer_hits
        assert [e.speedup(ModelCategory.B) for e in pooled.evaluations] == [
            e.speedup(ModelCategory.B) for e in serial.evaluations
        ]
