"""Tests for the persistent layer-result cache and its engine hooks."""

import json
import multiprocessing
import shutil
import sqlite3
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest

from repro.api import Session
from repro.config import ModelCategory, sparse_b
from repro.dse.evaluate import EvalSettings
from repro.gemm.layers import GemmShape
from repro.runtime.cache import (
    DB_NAME,
    CacheStats,
    PersistentLayerCache,
    _connect,
    default_cache_dir,
    result_from_dict,
    result_to_dict,
)
from repro.sim.engine import SimulationOptions, simulate_layer, simulation_key
from repro.workloads.models import NetworkLayer, RawGemmSpec

OPTIONS = SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=11)
CONFIG = sparse_b(4, 0, 1, shuffle=True)


def small_layer(name: str = "block") -> NetworkLayer:
    return NetworkLayer(
        spec=RawGemmSpec(name=name, shapes=(GemmShape(m=64, k=256, n=64),)),
        weight_density=0.25,
        act_density=1.0,
    )


def read_row(root, table: str, key: str) -> str | None:
    """One payload of the store at ``root``, read straight through sqlite3."""
    with closing(sqlite3.connect(root / DB_NAME)) as db:
        row = db.execute(f"SELECT payload FROM {table} WHERE key = ?", (key,)).fetchone()
    return None if row is None else row[0]


def count_rows(root, table: str) -> int:
    with closing(sqlite3.connect(root / DB_NAME)) as db:
        return db.execute(f"SELECT count(*) FROM {table}").fetchone()[0]


def layer_keys(root) -> list[str]:
    with closing(sqlite3.connect(root / DB_NAME)) as db:
        return [key for (key,) in db.execute("SELECT key FROM layers ORDER BY key")]


def write_row(root, table: str, key: str, payload: str) -> None:
    """Overwrite one payload of the store at ``root`` through sqlite3."""
    with closing(sqlite3.connect(root / DB_NAME)) as db, db:
        db.execute(f"UPDATE {table} SET payload = ? WHERE key = ?", (payload, key))
        assert db.total_changes == 1


def key_of(layer: NetworkLayer) -> str:
    return simulation_key(
        tuple(layer.spec.gemms()), layer.weight_density, layer.act_density,
        CONFIG, ModelCategory.B, OPTIONS,
    )


class TestSimulationKey:
    def test_stable_across_processes_means_stable_repr(self):
        layer = small_layer()
        assert key_of(layer) == key_of(layer)

    def test_ignores_display_name(self):
        named = sparse_b(4, 0, 1, shuffle=True, name="Sparse.B*")
        layer = small_layer()
        gemms = tuple(layer.spec.gemms())
        k1 = simulation_key(gemms, 0.25, 1.0, CONFIG, ModelCategory.B, OPTIONS)
        k2 = simulation_key(gemms, 0.25, 1.0, named, ModelCategory.B, OPTIONS)
        assert k1 == k2

    def test_sensitive_to_every_simulation_input(self):
        layer = small_layer()
        gemms = tuple(layer.spec.gemms())
        base = simulation_key(gemms, 0.25, 1.0, CONFIG, ModelCategory.B, OPTIONS)
        assert base != simulation_key(gemms, 0.3, 1.0, CONFIG, ModelCategory.B, OPTIONS)
        assert base != simulation_key(
            gemms, 0.25, 1.0, sparse_b(4, 0, 2, shuffle=True), ModelCategory.B, OPTIONS
        )
        assert base != simulation_key(
            gemms, 0.25, 1.0, CONFIG, ModelCategory.DENSE, OPTIONS
        )
        assert base != simulation_key(
            gemms, 0.25, 1.0, CONFIG, ModelCategory.B,
            SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=12),
        )


class TestSerialization:
    def test_round_trip_is_exact(self):
        result = simulate_layer(small_layer(), CONFIG, ModelCategory.B, OPTIONS)
        assert result_from_dict(result_to_dict(result)) == result

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            result_from_dict({"v": 999})


class TestDefaultCacheDir:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_falls_back_to_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "repro"


class TestPersistentRoundTrip:
    def test_recompute_from_disk_is_identical(self, tmp_path):
        layer = small_layer()
        writer = PersistentLayerCache(tmp_path)
        first = simulate_layer(layer, CONFIG, ModelCategory.B, OPTIONS, cache=writer)
        assert writer.stats.misses == 1 and writer.stats.puts == 1
        assert len(writer) == 1

        # New process simulated by a fresh cache object (and a direct
        # call's throwaway memo).
        reader = PersistentLayerCache(tmp_path)
        second = simulate_layer(layer, CONFIG, ModelCategory.B, OPTIONS, cache=reader)
        assert reader.stats == CacheStats(hits=1, misses=0, puts=0, errors=0)
        assert second == first  # bitwise: floats survive the JSON round trip

    def test_corrupt_entry_recomputes_gracefully(self, tmp_path):
        layer = small_layer()
        cache = PersistentLayerCache(tmp_path)
        first = simulate_layer(layer, CONFIG, ModelCategory.B, OPTIONS, cache=cache)

        key = key_of(layer)
        assert read_row(tmp_path, "layers", key) is not None
        write_row(tmp_path, "layers", key, "{ this is not json")

        fresh = PersistentLayerCache(tmp_path)
        second = simulate_layer(layer, CONFIG, ModelCategory.B, OPTIONS, cache=fresh)
        assert second == first
        assert fresh.stats.errors == 1 and fresh.stats.misses == 1
        assert fresh.stats.puts == 1  # the repaired entry went back to disk
        assert json.loads(read_row(tmp_path, "layers", key))["dense_cycles"] == first.dense_cycles

    def test_wrong_schema_version_is_a_miss(self, tmp_path):
        layer = small_layer()
        cache = PersistentLayerCache(tmp_path)
        first = simulate_layer(layer, CONFIG, ModelCategory.B, OPTIONS, cache=cache)
        key = key_of(layer)
        stale = json.loads(read_row(tmp_path, "layers", key))
        stale["v"] = 999
        write_row(tmp_path, "layers", key, json.dumps(stale))

        fresh = PersistentLayerCache(tmp_path)
        assert simulate_layer(layer, CONFIG, ModelCategory.B, OPTIONS, cache=fresh) == first
        assert fresh.stats.errors == 1

    def test_clear_removes_entries(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        simulate_layer(small_layer(), CONFIG, ModelCategory.B, OPTIONS, cache=cache)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_stats_merge_and_hit_rate(self):
        stats = CacheStats(hits=9, misses=1)
        stats.merge(CacheStats(hits=1, misses=0, puts=2))
        assert stats.hits == 10 and stats.lookups == 11
        assert stats.hit_rate == pytest.approx(10 / 11)
        assert CacheStats().hit_rate == 0.0


SETTINGS = EvalSettings(quick=True, options=OPTIONS, networks=("BERT",))


def evaluate_in_child(root, designs, barrier, results) -> None:
    """Child process: one session call on the shared store, started on cue."""
    barrier.wait()
    outcome = Session(cache_dir=root).evaluate(designs, (ModelCategory.B,), SETTINGS)
    results.put((designs, outcome.evaluations, outcome.cache_stats.as_dict()))


class TestSqliteStore:
    def test_handles_on_one_store_share_a_connection(self, tmp_path):
        one, two = PersistentLayerCache(tmp_path), PersistentLayerCache(tmp_path)
        simulate_layer(small_layer(), CONFIG, ModelCategory.B, OPTIONS, cache=one)
        assert _connect(one.db_path) is _connect(two.db_path)
        assert len(two) == 1 and two.stats == CacheStats()

    def test_forked_child_never_uses_an_inherited_connection(self, tmp_path):
        parent = _connect(tmp_path / DB_NAME)
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        child = context.Process(
            target=lambda: results.put(_connect(tmp_path / DB_NAME) is parent)
        )
        child.start()
        reused = results.get(timeout=60)
        child.join(timeout=30)
        assert child.exitcode == 0 and reused is False
        assert _connect(tmp_path / DB_NAME) is parent

    def test_deleted_store_reads_as_empty_in_the_same_process(self, tmp_path):
        cache = PersistentLayerCache(tmp_path / "store")
        simulate_layer(small_layer(), CONFIG, ModelCategory.B, OPTIONS, cache=cache)
        shutil.rmtree(tmp_path / "store")
        fresh = PersistentLayerCache(tmp_path / "store")
        simulate_layer(small_layer(), CONFIG, ModelCategory.B, OPTIONS, cache=fresh)
        assert fresh.stats == CacheStats(misses=1, puts=1)
        assert len(fresh) == 1

    def test_two_processes_writing_one_store_lose_no_entries(self, tmp_path):
        """Two sessions in two processes fill one store at once, sharing a
        design: every entry lands, and each call counts exactly its own
        activity (each miss written back, lookups as in a serial run)."""
        shared = sparse_b(2, 0, 0)
        batches = [[shared, sparse_b(2, 1, 0)], [shared, sparse_b(4, 0, 1)]]
        reference = {}
        for index, designs in enumerate(batches):
            session = Session(cache_dir=tmp_path / f"serial{index}")
            reference[index] = session.evaluate(designs, (ModelCategory.B,), SETTINGS)
        expected_keys = sorted(
            set(layer_keys(tmp_path / "serial0")) | set(layer_keys(tmp_path / "serial1"))
        )

        # The parent holds a connection to the store as the children fork.
        _connect(tmp_path / "shared" / DB_NAME)
        context = multiprocessing.get_context("fork")
        barrier, results = context.Barrier(2), context.Queue()
        children = [
            context.Process(
                target=evaluate_in_child,
                args=(tmp_path / "shared", designs, barrier, results),
            )
            for designs in batches
        ]
        for child in children:
            child.start()
        outcomes = [results.get(timeout=120) for _ in children]
        for child in children:
            child.join(timeout=30)
            assert child.exitcode == 0
        for designs, evaluations, counts in outcomes:
            serial = reference[batches.index(designs)]
            stats = CacheStats.from_dict(counts)
            assert evaluations == serial.evaluations
            assert stats.lookups == serial.cache_stats.lookups
            assert stats.puts == stats.misses and stats.errors == 0
        assert layer_keys(tmp_path / "shared") == expected_keys
        assert count_rows(tmp_path / "shared", "networks") == 3

    def test_threads_writing_one_store_lose_no_entries(self, tmp_path):
        """Eight threads, each on its own connection, write and read back
        interleaved keys of one store with a short switch interval."""
        result = simulate_layer(small_layer(), CONFIG, ModelCategory.B, OPTIONS)
        handles = [PersistentLayerCache(tmp_path) for _ in range(8)]

        def work(index: int) -> None:
            for n in range(25):
                handles[index].put(f"{n:03d}-{index}", result)
                assert handles[index].get(f"{n:03d}-{index}") == result

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(work, i) for i in range(8)]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert len(PersistentLayerCache(tmp_path)) == 8 * 25
        for handle in handles:
            assert handle.stats == CacheStats(hits=25, puts=25)

    def test_put_waits_while_a_new_store_switches_to_wal(self, tmp_path):
        """A store still in rollback mode, another connection mid-write: the
        handle's first connection waits for the switch to WAL (which
        sqlite fails at once rather than on the busy timeout), so the put
        lands and the get after it hits."""
        result = simulate_layer(small_layer(), CONFIG, ModelCategory.B, OPTIONS)
        handle = PersistentLayerCache(tmp_path)
        holder = sqlite3.connect(handle.db_path, isolation_level=None,
                                 check_same_thread=False)
        with closing(holder):
            holder.execute("BEGIN IMMEDIATE")
            writer = threading.Thread(target=handle.put, args=("key", result))
            writer.start()
            time.sleep(0.2)
            holder.execute("COMMIT")
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert handle.stats == CacheStats(puts=1)
        assert handle.get("key") == result

    def test_uncreatable_root_still_evaluates_with_puts_as_errors(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("a regular file, not a directory")
        reference = Session(cache_dir=tmp_path / "ok").evaluate(
            [CONFIG], (ModelCategory.B,), SETTINGS
        )
        outcome = Session(cache_dir=blocker / "cache").evaluate(
            [CONFIG], (ModelCategory.B,), SETTINGS
        )
        assert outcome.evaluations == reference.evaluations
        stats = outcome.cache_stats
        assert stats.hits == stats.puts == 0
        assert stats.misses == reference.cache_stats.misses
        assert stats.errors == reference.cache_stats.puts > 0
        assert len(PersistentLayerCache(blocker / "cache")) == 0

    def test_non_sqlite_file_is_misses_and_errors_never_an_exception(self, tmp_path):
        (tmp_path / DB_NAME).write_text("not a database " * 100)
        reference = Session(cache_dir=tmp_path / "ok").evaluate(
            [CONFIG], (ModelCategory.B,), SETTINGS
        )
        cache = PersistentLayerCache(tmp_path)
        outcome = Session(cache_dir=tmp_path).evaluate(
            [CONFIG], (ModelCategory.B,), SETTINGS
        )
        assert outcome.evaluations == reference.evaluations
        assert outcome.cache_stats.misses == reference.cache_stats.misses
        assert outcome.cache_stats.errors == reference.cache_stats.puts > 0
        assert outcome.cache_stats.hits == outcome.cache_stats.puts == 0
        assert len(cache) == 0 and cache.clear() == 0
