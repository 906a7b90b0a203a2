"""Tests for the persistent layer-result cache and its engine hooks."""

import json

import pytest

from repro.config import ModelCategory, sparse_b
from repro.gemm.layers import GemmShape
from repro.runtime.cache import (
    CacheStats,
    PersistentLayerCache,
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

        path = cache.path_for(key_of(layer))
        assert path.is_file()
        path.write_text("{ this is not json")

        fresh = PersistentLayerCache(tmp_path)
        second = simulate_layer(layer, CONFIG, ModelCategory.B, OPTIONS, cache=fresh)
        assert second == first
        assert fresh.stats.errors == 1 and fresh.stats.misses == 1
        assert fresh.stats.puts == 1  # the repaired entry went back to disk
        assert json.loads(path.read_text())["dense_cycles"] == first.dense_cycles

    def test_wrong_schema_version_is_a_miss(self, tmp_path):
        layer = small_layer()
        cache = PersistentLayerCache(tmp_path)
        first = simulate_layer(layer, CONFIG, ModelCategory.B, OPTIONS, cache=cache)
        path = cache.path_for(key_of(layer))
        stale = json.loads(path.read_text())
        stale["v"] = 999
        path.write_text(json.dumps(stale))

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
