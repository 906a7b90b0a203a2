"""Tests for the network-granularity cache tier.

The load-bearing guarantees:

* a warm ``simulate_network`` resolves from the network tier in one read --
  zero layer-tier lookups, zero layer simulations -- and is bitwise equal
  to the cold result;
* a corrupt network entry falls back to the layer tier (and repairs
  itself), a corrupt layer entry underneath falls back to simulation;
* the unified :class:`CacheStats` tier accounting is consistent (layer
  share + network share == totals, through merge/snapshot/delta and the
  worker-chunk dict round trip);
* ``network_key`` covers exactly the result's inputs and display metadata,
  in one hash over the memoized workload fingerprint (equal networks built
  apart share a key);
* a network-tier hit decodes its layers lazily, equal to the eager ones;
  an entry in the older one-document layout, or cut before its layer
  line, is an error at read time: recomputed and rewritten;
* parallel sweeps with the network tier enabled stay bitwise-identical to
  the serial loop, warm or cold.
"""

import json
import pickle
import sqlite3
from contextlib import closing
from dataclasses import replace

import pytest

from repro.api import Session
from repro.config import GRIFFIN, BorrowConfig, ModelCategory, sparse_b
from repro.dse.evaluate import EvalSettings
from repro.runtime.cache import (
    DB_NAME,
    NETWORK_ENTRY_VERSION,
    CacheStats,
    NetworkTierProbe,
    PersistentLayerCache,
    ProbeMiss,
    network_result_from_dict,
    network_result_from_text,
    network_result_to_dict,
)
from repro.sim import engine
from repro.sim.engine import SimulationOptions, network_key, simulate_network
from repro.workloads.models import Network, network_fingerprint
from repro.workloads.registry import benchmark
from test_runtime_cache import count_rows, read_row, write_row

OPTIONS = SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=11)
CONFIG = sparse_b(4, 0, 1, shuffle=True)
SETTINGS = EvalSettings(quick=True, options=OPTIONS, networks=("BERT",))
NETWORK = benchmark("BERT").network


def key_of(network=NETWORK, config=CONFIG, category=ModelCategory.B,
           options=OPTIONS):
    return network_key(network, config, category, options)


def network_head(root) -> str:
    """The first line of the stored payload under ``key_of()``: its scalars."""
    return read_row(root, "networks", key_of()).partition("\n")[0]


class TestNetworkKey:
    def test_deterministic(self):
        assert key_of() == key_of()

    def test_sensitive_to_every_input(self):
        base = key_of()
        assert base != key_of(network=benchmark("AlexNet").network)
        assert base != key_of(config=sparse_b(4, 0, 2, shuffle=True))
        assert base != key_of(category=ModelCategory.DENSE)
        assert base != key_of(
            options=SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=12)
        )

    def test_sensitive_to_display_label(self):
        """Unlike layer keys, network keys cover the config label: the
        cached NetworkSimResult stores it, so it must round-trip."""
        named = sparse_b(4, 0, 1, shuffle=True, name="Sparse.B*")
        assert key_of() != key_of(config=named)

    def test_griffin_morphs_get_distinct_keys(self):
        conf_b = GRIFFIN.config_for(ModelCategory.B)
        conf_ab = GRIFFIN.config_for(ModelCategory.AB)
        assert key_of(config=conf_b) != key_of(config=conf_ab)

    def test_sensitive_to_every_config_and_option_field(self):
        """Each field moves the key on its own (the label held fixed)."""
        named = replace(CONFIG, name="Fixed")
        base = key_of(config=named)
        geometry = CONFIG.geometry
        configs = [
            replace(named, a=BorrowConfig(1, 0, 0)),
            replace(named, b=BorrowConfig(4, 1, 1)),
            replace(named, shuffle=False),
            *(
                replace(named, geometry=replace(geometry, **{name: value}))
                for name, value in (
                    ("k0", 8), ("n0", 8), ("m0", 8),
                    ("frequency_mhz", geometry.frequency_mhz * 2),
                    ("precision_bits", 16),
                )
            ),
        ]
        options = [
            replace(OPTIONS, **{name: value})
            for name, value in (
                ("passes_per_gemm", 2), ("max_t_steps", 32), ("seed", 12),
                ("pipeline_drain", 3), ("include_stalls", False),
                ("include_dram", True),
            )
        ]
        keys = [key_of(config=c) for c in configs] + [
            key_of(config=named, options=o) for o in options
        ]
        assert base not in keys and len(set(keys)) == len(keys)

    def test_sensitive_to_simulation_key_version(self, monkeypatch):
        base = key_of()
        monkeypatch.setattr(engine, "SIMULATION_KEY_VERSION", "layer-sim-test")
        assert key_of() != base

    def test_equal_networks_built_apart_share_a_key(self):
        rebuilt = Network(NETWORK.name, tuple(replace(layer) for layer in NETWORK.layers))
        assert rebuilt == NETWORK and rebuilt is not NETWORK
        assert key_of(network=rebuilt) == key_of()
        assert rebuilt.fingerprint == network_fingerprint(NETWORK)

    def test_fingerprint_is_memoized_on_the_network(self):
        network = replace(NETWORK)
        assert "fingerprint" not in vars(network)
        first = network_fingerprint(network)
        assert vars(network)["fingerprint"] == first == network_fingerprint(network)


class TestSerialization:
    def test_round_trip_is_exact(self):
        result = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS)
        assert network_result_from_dict(network_result_to_dict(result)) == result

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            network_result_from_dict({"v": 999})

    def test_layers_decode_lazily_and_equal_the_eager_ones(self):
        result = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS)
        entry = network_result_to_dict(result)
        assert list(entry)[-1] == "layers" and isinstance(entry["layers"], str)
        lazy = network_result_from_dict(json.loads(json.dumps(entry)))
        assert "layers" not in vars(lazy)
        assert lazy.speedup == result.speedup
        assert "layers" not in vars(lazy), "scalars never decode the layers"
        shipped = pickle.loads(pickle.dumps(lazy))
        assert lazy.layers == result.layers
        assert "layers" in vars(lazy) and "_decode" not in vars(lazy)
        assert shipped == result and hash(shipped) == hash(result)
        assert pickle.loads(pickle.dumps(lazy)) == result


class TestNetworkTierRoundTrip:
    def test_warm_run_is_one_read_zero_layer_lookups(self, tmp_path):
        writer = PersistentLayerCache(tmp_path)
        first = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=writer)
        # Cold: network miss, layer misses, both tiers written through.
        assert writer.stats.network_misses == 1
        assert writer.stats.network_puts == 1
        assert writer.stats.layer_misses == writer.stats.layer_puts > 0

        # New process simulated by a fresh cache object (and a direct
        # call's throwaway memo).
        reader = PersistentLayerCache(tmp_path)
        second = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=reader)
        assert second == first  # floats survive the JSON round trip exactly
        assert reader.stats.network_hits == 1
        assert reader.stats.layer_lookups == 0, "whole network in one read"
        assert reader.stats.hits == 1 and reader.stats.misses == 0

    def test_display_names_round_trip(self, tmp_path):
        named = sparse_b(4, 0, 1, shuffle=True, name="Sparse.B*")
        cache = PersistentLayerCache(tmp_path)
        first = simulate_network(NETWORK, named, ModelCategory.B, OPTIONS, cache=cache)

        fresh = PersistentLayerCache(tmp_path)
        second = simulate_network(NETWORK, named, ModelCategory.B, OPTIONS, cache=fresh)
        assert fresh.stats.network_hits == 1
        assert second.config == "Sparse.B*"
        assert second.network == first.network == NETWORK.name
        assert [l.name for l in second.layers] == [l.name for l in first.layers]


class TestCorruptionFallback:
    def test_corrupt_network_entry_falls_back_to_layer_tier(
        self, tmp_path
    ):
        cache = PersistentLayerCache(tmp_path)
        first = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=cache)

        assert read_row(tmp_path, "networks", key_of()) is not None
        write_row(tmp_path, "networks", key_of(), "{ this is not json")

        fresh = PersistentLayerCache(tmp_path)
        second = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=fresh)
        assert second == first
        # The network tier erred and missed; the layer tier answered; the
        # repaired network entry went back to disk.
        assert fresh.stats.network_errors == 1
        assert fresh.stats.network_misses == 1
        assert fresh.stats.layer_hits > 0 and fresh.stats.layer_misses == 0
        assert fresh.stats.network_puts == 1
        assert json.loads(network_head(tmp_path))["network"] == NETWORK.name

    def test_both_tiers_corrupt_recomputes_from_scratch(
        self, tmp_path
    ):
        cache = PersistentLayerCache(tmp_path)
        first = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=cache)

        with closing(sqlite3.connect(tmp_path / DB_NAME)) as db, db:
            for table in ("networks", "layers"):
                db.execute(f"UPDATE {table} SET payload = 'garbage'")

        fresh = PersistentLayerCache(tmp_path)
        second = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=fresh)
        assert second == first
        assert fresh.stats.network_errors == 1
        assert fresh.stats.layer_errors > 0
        assert fresh.stats.hits == 0

    def test_wrong_network_schema_version_is_a_miss(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        first = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=cache)
        head, _, layers = read_row(tmp_path, "networks", key_of()).partition("\n")
        stale = json.loads(head)
        stale["v"] = 999
        write_row(tmp_path, "networks", key_of(), f"{json.dumps(stale)}\n{layers}")

        fresh = PersistentLayerCache(tmp_path)
        assert simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=fresh) == first
        assert fresh.stats.network_errors == 1


class TestEntryMigration:
    def test_v2_row_is_an_error_recomputed_and_rewritten_as_v3(self, tmp_path):
        """A row in the one-document v2 layout (layers as an embedded
        string) left by an older version: the probe leaves it alone, a
        read counts one network error and rewrites it as v3."""
        cache = PersistentLayerCache(tmp_path)
        first = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=cache)
        assert NETWORK_ENTRY_VERSION == 3
        v2 = json.dumps(dict(network_result_to_dict(first), v=2), separators=(",", ":"))
        assert "\n" not in v2
        write_row(tmp_path, "networks", key_of(), v2)

        probe = NetworkTierProbe(tmp_path)
        with pytest.raises(ProbeMiss):
            probe.get_network(key_of())
        assert read_row(tmp_path, "networks", key_of()) == v2, "left in place"
        assert probe.stats == CacheStats()

        fresh = PersistentLayerCache(tmp_path)
        assert simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=fresh) == first
        assert fresh.stats.network_errors == 1 and fresh.stats.network_puts == 1
        assert fresh.stats.layer_hits > 0 and fresh.stats.layer_misses == 0
        assert json.loads(network_head(tmp_path))["v"] == 3
        assert network_result_from_text(read_row(tmp_path, "networks", key_of())) == first

        again = PersistentLayerCache(tmp_path)
        assert simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=again) == first
        assert again.stats == CacheStats(hits=1, network_hits=1)

    def test_row_cut_before_its_layer_line_is_an_error(self, tmp_path):
        """A v3 first line alone decodes its scalars but has no layers:
        rejected at read time, not when ``.layers`` is first touched."""
        cache = PersistentLayerCache(tmp_path)
        first = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=cache)
        write_row(tmp_path, "networks", key_of(), network_head(tmp_path))

        fresh = PersistentLayerCache(tmp_path)
        second = simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=fresh)
        assert second == first and second.layers == first.layers
        assert fresh.stats.network_errors == 1 and fresh.stats.network_puts == 1


class TestCrossTierStats:
    def test_tier_shares_sum_to_totals(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=cache)
        simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=cache)

        s = cache.stats
        assert s.layer_hits + s.network_hits == s.hits
        assert s.layer_misses + s.network_misses == s.misses
        assert s.layer_puts + s.network_puts == s.puts
        assert s.layer_errors + s.network_errors == s.errors
        assert s.layer_lookups + s.network_lookups == s.lookups

    def test_merge_snapshot_delta_dict_preserve_tier_breakdown(self):
        stats = CacheStats(hits=10, misses=2, puts=2, errors=1,
                           network_hits=4, network_misses=1,
                           network_puts=1, network_errors=1)
        snap = stats.snapshot()
        stats.merge(CacheStats(hits=3, misses=0, puts=0, errors=0,
                               network_hits=3))
        assert snap == CacheStats(hits=10, misses=2, puts=2, errors=1,
                                  network_hits=4, network_misses=1,
                                  network_puts=1, network_errors=1)
        assert CacheStats.from_dict(stats.as_dict()) == stats
        assert stats.layer_hits == 6 and stats.network_hits == 7

    def test_old_style_dict_defaults_network_fields_to_zero(self):
        stats = CacheStats.from_dict({"hits": 5, "misses": 1, "puts": 1})
        assert stats.network_hits == 0 and stats.layer_hits == 5

    def test_session_outcome_carries_tier_breakdown(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        cold = session.evaluate([CONFIG], (ModelCategory.B,), SETTINGS)
        assert cold.cache_stats.network_puts > 0
        assert cold.cache_stats.layer_puts > 0

        warm = session.evaluate([CONFIG], (ModelCategory.B,), SETTINGS)
        assert warm.cache_stats.network_hits > 0
        assert warm.cache_stats.layer_lookups == 0
        assert warm.cache_stats.hit_rate == 1.0
        assert session.stats.network_hits == warm.cache_stats.network_hits

    def test_clear_and_len_cover_both_tiers(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        simulate_network(NETWORK, CONFIG, ModelCategory.B, OPTIONS, cache=cache)
        layer_entries = count_rows(tmp_path, "layers")
        network_entries = count_rows(tmp_path, "networks")
        assert network_entries == 1 and layer_entries > 0
        assert len(cache) == layer_entries + network_entries
        assert cache.clear() == layer_entries + network_entries
        assert len(cache) == 0


class TestParallelEqualsSerialWithNetworkTier:
    def test_parallel_equals_serial_cold_and_warm(self, tmp_path):
        designs = [sparse_b(2, 0, 0), "Griffin", sparse_b(4, 0, 1, shuffle=True)]
        cats = (ModelCategory.B, ModelCategory.DENSE)
        serial = Session(workers=0, cache_dir=tmp_path / "s").evaluate(
            designs, cats, SETTINGS
        )
        parallel_cold = Session(workers=2, cache_dir=tmp_path / "p").evaluate(
            designs, cats, SETTINGS
        )
        assert parallel_cold.evaluations == serial.evaluations
        assert parallel_cold.cache_stats.network_puts > 0

        # Warm parallel run: answered entirely from the network tier, in
        # worker processes, still bitwise-identical.
        parallel_warm = Session(workers=2, cache_dir=tmp_path / "p").evaluate(
            designs, cats, SETTINGS
        )
        assert parallel_warm.evaluations == serial.evaluations
        assert parallel_warm.cache_stats.network_hits > 0
        assert parallel_warm.cache_stats.misses == 0
        assert parallel_warm.cache_stats.layer_lookups == 0
