"""Tests for the first-class Workload API.

The load-bearing guarantees:

* the six Table IV presets are **bitwise-identical** to the pre-redesign
  factories: per-layer density assignments (locked by content-fingerprint
  goldens captured on the pre-redesign code) and end-to-end simulated
  cycles both match exactly;
* a workload's content fingerprint is stable across processes, and any
  layer or density edit produces a new fingerprint (hence a network-tier
  cache miss);
* `WorkloadSpec.to_dict` / `from_dict` round-trip exactly (identity);
* `parse_workload` resolves registry names, `name:override` tokens and
  WorkloadSpec JSON paths uniformly, with closest-match suggestions;
* a custom (non-Table-IV) network defined purely as a WorkloadSpec JSON
  runs through `Session.evaluate` / `Session.search` / `repro run`
  unmodified, with a warm repeat served from the network cache tier.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Session
from repro.cli import main
from repro.config import SPARSE_AB_STAR, ModelCategory
from repro.dse.evaluate import EvalSettings
from repro.sim import engine
from repro.sim.engine import SimulationOptions, simulate_network
from repro.workloads import (
    BENCHMARKS,
    WORKLOADS,
    AnalyticalSparsity,
    ExplicitSparsity,
    NetworkLayer,
    UniformSparsity,
    Workload,
    WorkloadRegistry,
    WorkloadSpec,
    benchmark,
    network_fingerprint,
    parse_workload,
    register_sparsity_profile,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
TINYCNN = REPO_ROOT / "examples" / "workloads" / "tinycnn.json"
PYRAMID = REPO_ROOT / "examples" / "workloads" / "pyramid_hier.json"
#: kernel 7 on a 4x4 input with no padding: a conv with no output pixels.
BAD_CONV = REPO_ROOT / "tests" / "data" / "bad_conv_spec.json"
#: an attention layer with zero heads.
BAD_ATTENTION = REPO_ROOT / "tests" / "data" / "bad_attention_spec.json"

CHEAP = SimulationOptions(passes_per_gemm=1, max_t_steps=16)

SPEC_DICT = {
    "name": "TestNet",
    "layers": [
        {"type": "conv2d", "name": "conv1", "in_channels": 3,
         "out_channels": 16, "kernel": 3, "input_hw": 16, "stride": 1,
         "padding": 1, "groups": 1},
        {"type": "linear", "name": "fc", "in_features": 1024,
         "out_features": 10, "batch": 1},
        {"type": "attention", "name": "attn", "hidden": 64, "heads": 2,
         "seq_len": 16},
        {"type": "feedforward", "name": "ffn", "hidden": 64,
         "intermediate": 256, "seq_len": 16},
        {"type": "gemm", "name": "raw",
         "shapes": [{"m": 16, "k": 32, "n": 8},
                    {"m": 16, "k": 32, "n": 8, "repeats": 2,
                     "weight_is_dynamic": True, "channels": 8}]},
    ],
    "sparsity": {"profile": "analytical",
                 "weight_sparsity": 0.6, "act_sparsity": 0.3},
}


# ----------------------------------------------------------------------
# Table IV bitwise regression (goldens captured on the pre-redesign code).
# ----------------------------------------------------------------------

#: Per-preset goldens recorded with the pre-redesign factory functions:
#: the content digest of every layer (name, GEMM shapes, density reprs)
#: and the end-to-end cycles of one cheap simulation on Sparse.AB*.
TABLE_IV_GOLDEN = {
    "AlexNet": {
        "digest": "6340dcb3efee8dc17b8feb41dbc769172faaf34c7c87b22572bc7085e3891fce",
        "category": ModelCategory.AB,
        "cycles": 425490.2237350593,
        "dense_cycles": 877500,
        "macs": 714188480,
    },
    "GoogleNet": {
        "digest": "7ac10b532da73f18a9449ba9d07700465536aedc1910ad560cf01ae5748c8ac4",
        "category": ModelCategory.AB,
        "cycles": 895269.1926206605,
        "dense_cycles": 1567847,
        "macs": 1582671872,
    },
    "ResNet50": {
        "digest": "85b5835764e609907ae6a49c02a09d162b384debbee03d84cd5af4de88170d09",
        "category": ModelCategory.AB,
        "cycles": 2178960.4694666755,
        "dense_cycles": 4051840,
        "macs": 4089184256,
    },
    "InceptionV3": {
        "digest": "f36a2a683f48df9730b7235f20cf618376aba62a9c18f97fff985b7c12d8b5ac",
        "category": ModelCategory.AB,
        "cycles": 2886225.084396898,
        "dense_cycles": 5617434,
        "macs": 5713216096,
    },
    "MobileNetV2": {
        "digest": "468e2ae2bc467a7d1067a4773190ebe171db39243e538b857b4afdea478a6bfb",
        "category": ModelCategory.AB,
        "cycles": 784946.0059371262,
        "dense_cycles": 874848,
        "macs": 300774272,
    },
    "BERT": {
        "digest": "b00da9d21a77f7756f3cef847dc54d135850e94b5794848501dae4317438b5ce",
        "category": ModelCategory.B,
        "cycles": 3422868.533804289,
        "dense_cycles": 5382192,
        "macs": 5511317760,
    },
}


class TestTableIVRegression:
    def test_covers_every_preset(self):
        assert sorted(TABLE_IV_GOLDEN) == sorted(b.name for b in BENCHMARKS)

    @pytest.mark.parametrize("info", BENCHMARKS, ids=lambda b: b.name)
    def test_topology_and_densities_bitwise(self, info):
        # The fingerprint hashes every layer's name, GEMM shapes, and exact
        # density reprs -- equality means the redesigned registry builds
        # byte-for-byte the same networks the pre-redesign factories did.
        golden = TABLE_IV_GOLDEN[info.name]
        assert info.fingerprint == golden["digest"]
        assert info.network.macs == golden["macs"]

    @pytest.mark.parametrize("info", BENCHMARKS, ids=lambda b: b.name)
    def test_simulated_cycles_bitwise(self, info):
        golden = TABLE_IV_GOLDEN[info.name]
        result = simulate_network(
            info.network, SPARSE_AB_STAR, golden["category"], CHEAP
        )
        assert result.cycles == golden["cycles"]
        assert result.dense_cycles == golden["dense_cycles"]


# ----------------------------------------------------------------------
# Fingerprints.
# ----------------------------------------------------------------------

class TestFingerprint:
    def test_pure_function_of_spec(self):
        spec = WorkloadSpec.from_dict(SPEC_DICT)
        assert spec.build().fingerprint == spec.build().fingerprint
        again = WorkloadSpec.from_dict(json.loads(json.dumps(SPEC_DICT)))
        assert again.build().fingerprint == spec.build().fingerprint

    def test_stable_across_processes(self):
        # The acceptance bar: same WorkloadSpec JSON -> identical
        # fingerprint in a fresh interpreter.
        code = (
            "from repro.workloads import WorkloadSpec; "
            f"print(WorkloadSpec.load({str(TINYCNN)!r}).build().fingerprint)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == WorkloadSpec.load(TINYCNN).build().fingerprint

    def test_layer_edit_changes_fingerprint(self):
        base = WorkloadSpec.from_dict(SPEC_DICT).build().fingerprint
        edited = json.loads(json.dumps(SPEC_DICT))
        edited["layers"][0]["out_channels"] = 17
        assert WorkloadSpec.from_dict(edited).build().fingerprint != base

    def test_density_edit_changes_fingerprint(self):
        base = WorkloadSpec.from_dict(SPEC_DICT).build().fingerprint
        edited = json.loads(json.dumps(SPEC_DICT))
        edited["sparsity"]["weight_sparsity"] = 0.61
        assert WorkloadSpec.from_dict(edited).build().fingerprint != base

    def test_layer_name_edit_changes_fingerprint(self):
        base = WorkloadSpec.from_dict(SPEC_DICT).build().fingerprint
        edited = json.loads(json.dumps(SPEC_DICT))
        edited["layers"][1]["name"] = "fc_renamed"
        assert WorkloadSpec.from_dict(edited).build().fingerprint != base

    def test_fingerprint_edit_means_network_key_miss(self):
        # The cache consequence: a density edit re-keys the network tier
        # even though name, config, category and options are unchanged.
        spec = WorkloadSpec.from_dict(SPEC_DICT)
        edited = json.loads(json.dumps(SPEC_DICT))
        edited["sparsity"]["act_sparsity"] = 0.31
        key = engine.network_key(
            spec.build().network, SPARSE_AB_STAR, ModelCategory.B, CHEAP
        )
        key2 = engine.network_key(
            WorkloadSpec.from_dict(edited).build().network,
            SPARSE_AB_STAR, ModelCategory.B, CHEAP,
        )
        assert key != key2

    def test_network_fingerprint_matches_workload_property(self):
        workload = parse_workload("AlexNet")
        assert network_fingerprint(workload.network) == workload.fingerprint


# ----------------------------------------------------------------------
# WorkloadSpec round-trip and validation.
# ----------------------------------------------------------------------

class TestWorkloadSpec:
    def test_round_trip_identity_inline(self):
        spec = WorkloadSpec.from_dict(SPEC_DICT)
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("path", [TINYCNN, PYRAMID], ids=lambda p: p.stem)
    def test_round_trip_identity_examples(self, path):
        spec = WorkloadSpec.load(path)
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec
        # And the serialized form itself is a fixed point.
        assert WorkloadSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown workload keys"):
            WorkloadSpec.from_dict({**SPEC_DICT, "bogus": 1})

    def test_unknown_layer_type_rejected(self):
        bad = json.loads(json.dumps(SPEC_DICT))
        bad["layers"][0]["type"] = "conv3d"
        with pytest.raises(ValueError, match="unknown layer type"):
            WorkloadSpec.from_dict(bad)

    def test_unknown_layer_key_rejected(self):
        bad = json.loads(json.dumps(SPEC_DICT))
        bad["layers"][0]["kernel_size"] = 3
        with pytest.raises(ValueError, match="unknown conv2d keys"):
            WorkloadSpec.from_dict(bad)

    def test_duplicate_layer_names_rejected(self):
        bad = json.loads(json.dumps(SPEC_DICT))
        bad["layers"][1]["name"] = "conv1"
        with pytest.raises(ValueError, match="duplicate layer name"):
            WorkloadSpec.from_dict(bad)

    def test_conv_padding_defaults_to_same(self):
        spec = WorkloadSpec.from_dict({
            "name": "P",
            "layers": [{"type": "conv2d", "name": "c", "in_channels": 4,
                        "out_channels": 4, "kernel": 5, "input_hw": 8}],
        })
        assert spec.layers[0].padding == 2

    def test_unknown_profile_suggests_closest(self):
        bad = json.loads(json.dumps(SPEC_DICT))
        bad["sparsity"] = {"profile": "analitycal"}
        with pytest.raises(ValueError, match="did you mean 'analytical'"):
            WorkloadSpec.from_dict(bad)

    def test_uniform_profile(self):
        spec = replace(
            WorkloadSpec.from_dict(SPEC_DICT),
            sparsity=UniformSparsity(weight_density=0.5, act_density=0.25),
        )
        net = spec.build().network
        assert all(l.weight_density == 0.5 for l in net.layers)
        assert all(l.act_density == 0.25 for l in net.layers)
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_explicit_profile_requires_full_coverage(self):
        with pytest.raises(ValueError, match="missing entries"):
            replace(
                WorkloadSpec.from_dict(SPEC_DICT),
                sparsity=ExplicitSparsity((("conv1", 0.5, 1.0),)),
            ).build()

    def test_explicit_profile_rejects_unmatched_names(self):
        bad = json.loads(json.dumps(SPEC_DICT))
        bad["sparsity"] = {
            "profile": "explicit",
            "layers": {"conv_one": {"weight_density": 0.5},
                       "*": {"weight_density": 0.3}},
        }
        with pytest.raises(ValueError, match="do not exist"):
            WorkloadSpec.from_dict(bad)

    def test_explicit_profile_star_default(self):
        spec = replace(
            WorkloadSpec.from_dict(SPEC_DICT),
            sparsity=ExplicitSparsity(
                (("conv1", 0.9, 1.0), ("*", 0.3, 0.5))
            ),
        )
        net = spec.build().network
        assert net.layers[0].weight_density == 0.9
        assert net.layers[1].weight_density == 0.3
        assert net.layers[1].act_density == 0.5

    def test_analytical_matches_preset_solver(self):
        # The default profile is exactly the Table IV solver: building
        # AlexNet's topology through a spec yields AlexNet's densities.
        from repro.workloads import alexnet, layer_content

        preset = alexnet()
        spec = WorkloadSpec(
            name=preset.name,
            layers=tuple(l.spec for l in preset.layers),
            sparsity=AnalyticalSparsity(0.89, 0.53),
        )
        built = spec.build().network
        assert [layer_content(l) for l in built.layers] == [
            layer_content(l) for l in preset.layers
        ]
        assert built.fingerprint == preset.fingerprint

    def test_custom_profile_registration(self):
        class Halving:
            def assign(self, specs):
                return tuple(
                    NetworkLayer(spec=s, weight_density=max(0.05, 0.8 * 0.5 ** i),
                                 act_density=1.0)
                    for i, s in enumerate(specs)
                )

            def to_dict(self):
                return {"profile": "halving-test"}

        register_sparsity_profile("halving-test", lambda data: Halving(),
                                  replace=True)
        spec = WorkloadSpec.from_dict(
            {**SPEC_DICT, "sparsity": {"profile": "halving-test"}}
        )
        assert spec.build().network.layers[1].weight_density == 0.4


# ----------------------------------------------------------------------
# parse_workload and the registry.
# ----------------------------------------------------------------------

class TestParseWorkload:
    def test_names_case_insensitive(self):
        assert parse_workload("resnet50") is benchmark("ResNet50")

    def test_workload_object_passthrough(self):
        workload = benchmark("BERT")
        assert parse_workload(workload) is workload

    def test_network_object_wrapped(self):
        net = benchmark("AlexNet").network
        workload = parse_workload(net)
        assert workload.network is net
        assert workload.act_sparsity == pytest.approx(0.53, abs=0.05)

    def test_path_token(self):
        workload = parse_workload(str(TINYCNN))
        assert workload.name == "TinyCNN"
        assert ModelCategory.AB in workload.categories()

    def test_missing_path_token(self):
        with pytest.raises(ValueError, match="does not exist"):
            parse_workload("no/such/workload.json")

    def test_sparsity_override_token(self):
        workload = parse_workload("BERT:weight_sparsity=0.9")
        assert workload.name == "BERT:weight_sparsity=0.9"
        assert workload.weight_sparsity == pytest.approx(0.9, abs=1e-6)
        # The base registry entry is untouched.
        assert benchmark("BERT").weight_sparsity == 0.82

    def test_density_and_name_override_token(self):
        workload = parse_workload("AlexNet:weight_density=0.5,name=half-alex")
        assert workload.name == "half-alex"
        assert all(
            l.weight_density == 0.5 for l in workload.network.layers
        )

    def test_path_with_override_token(self):
        workload = parse_workload(f"{TINYCNN}:act_density=0.2")
        assert all(l.act_density == 0.2 for l in workload.network.layers)

    def test_unknown_name_suggests_closest(self):
        with pytest.raises(ValueError, match="did you mean ResNet50"):
            parse_workload("ResNet5")

    def test_unknown_override_key_suggests_closest(self):
        with pytest.raises(ValueError, match="did you mean 'weight_sparsity'"):
            parse_workload("BERT:weight_sparsty=0.9")

    def test_benchmark_unknown_name_suggests_closest(self):
        with pytest.raises(KeyError, match="did you mean MobileNetV2"):
            benchmark("MobileNet")

    def test_registry_register_round_trip(self):
        registry = WorkloadRegistry()
        workload = WorkloadSpec.from_dict(SPEC_DICT).build()
        registry.register(workload)
        assert registry.get("testnet") is workload
        assert "TestNet" in registry and len(registry) == 1
        with pytest.raises(ValueError, match="already registered"):
            registry.register(workload)
        registry.register(workload, replace=True)
        registry.unregister("TestNet")
        assert len(registry) == 0

    def test_global_registry_register(self):
        workload = WorkloadSpec.from_dict(SPEC_DICT).build()
        WORKLOADS.register(workload)
        try:
            assert parse_workload("TestNet") is workload
        finally:
            WORKLOADS.unregister("TestNet")
        # Presets are unaffected and suite_for still counts only Table IV.
        from repro.workloads import suite_for

        assert len(suite_for(ModelCategory.B)) == 6

    def test_benchmark_info_network_memoized(self):
        info = benchmark("GoogleNet")
        assert info.network is info.network

    def test_presets_are_workloads(self):
        assert all(isinstance(info, Workload) for info in BENCHMARKS)


# ----------------------------------------------------------------------
# End to end: custom workloads through the session, search, and CLI.
# ----------------------------------------------------------------------

class TestEndToEnd:
    CATS = (ModelCategory.B, ModelCategory.DENSE)

    def test_evaluate_networks_kwarg_warm_network_tier(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        cold = session.evaluate(
            ["Dense", "Sparse.B*"], self.CATS,
            EvalSettings(quick=True, options=CHEAP),
            networks=(str(TINYCNN),),
        )
        assert cold.cache_stats.network_misses > 0
        warm = session.evaluate(
            ["Dense", "Sparse.B*"], self.CATS,
            EvalSettings(quick=True, options=CHEAP),
            networks=(str(TINYCNN),),
        )
        assert warm.cache_stats.network_hits > 0
        assert warm.cache_stats.layer_hits == warm.cache_stats.layer_misses == 0
        for a, b in zip(cold.evaluations, warm.evaluations):
            assert a == b

    def test_parallel_equals_serial_with_workload_objects(self, tmp_path):
        # Workload objects pickle into worker processes.
        workload = parse_workload(str(PYRAMID))
        settings = EvalSettings(quick=True, options=CHEAP)
        serial = Session(workers=0, cache_dir=tmp_path / "s").evaluate(
            ["Dense", "Sparse.B*"], self.CATS, settings, networks=(workload,)
        )
        parallel = Session(workers=2, cache_dir=tmp_path / "p").evaluate(
            ["Dense", "Sparse.B*"], self.CATS, settings, networks=(workload,)
        )
        assert serial.evaluations == parallel.evaluations

    def test_search_on_custom_workload_warm_network_tier(self, tmp_path):
        spec = {
            "name": "custom-search",
            "space": {"db1": [1, 2], "db2": [0, 1], "db3": [0]},
            "strategy": {"kind": "exhaustive"},
            "networks": [str(TINYCNN)],
            "quick": True,
            "options": {"passes_per_gemm": 1, "max_t_steps": 16},
        }
        session = Session(cache_dir=tmp_path / "cache")
        cold = session.search(spec)
        assert len(cold.archive) == cold.grid_size > 0
        warm = session.search(spec)
        assert warm.optimal().label == cold.optimal().label
        assert warm.cache_stats.network_hits > 0
        assert warm.cache_stats.layer_hits == warm.cache_stats.layer_misses == 0

    def test_experiment_spec_anchors_relative_workload_paths(self, tmp_path):
        spec = ExperimentSpec.load(
            REPO_ROOT / "examples" / "experiments" / "custom_tinycnn.json"
        )
        (resolved,) = spec.resolve_networks()
        assert resolved.name == "TinyCNN"
        # The anchored token is an existing path, independent of the cwd.
        (token,) = spec.networks
        assert Path(token.partition(":")[0]).exists()

    def test_experiment_spec_rejects_unknown_workload(self):
        with pytest.raises(ValueError, match="did you mean"):
            ExperimentSpec.from_dict(
                {"name": "x", "designs": ["Dense"], "networks": ["ResNet5"]}
            )

    def test_cli_simulate_spec_path(self, tmp_path, capsys):
        code = main([
            "simulate", "--arch", "B(2,0,0)", "--network", str(TINYCNN),
            "--category", "DNN.B", "--passes", "1", "--max-t", "16",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TinyCNN" in out and "speedup" in out

    def test_cli_workloads_list(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("AlexNet", "ResNet50", "BERT"):
            assert name in out
        assert "Fingerprint" in out

    def test_cli_workloads_validate(self, capsys):
        assert main(["workloads", "validate", str(TINYCNN), str(PYRAMID)]) == 0
        out = capsys.readouterr().out
        assert "all 2 spec(s) valid" in out

    def test_cli_workloads_validate_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "bad", "layers": []}))
        assert main(["workloads", "validate", str(bad)]) == 2
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"name": "b", "layers": ["conv1"]},
            {"name": "b", "layers": [{"type": "gemm", "name": "g",
                                      "shapes": ["not-a-dict"]}]},
            {"name": "b", "layers": [{"type": "conv2d", "name": "c",
                                      "in_channels": None, "out_channels": 4,
                                      "kernel": 3, "input_hw": 8}]},
            {"name": "b",
             "layers": [{"type": "linear", "name": "fc",
                         "in_features": 8, "out_features": 2}],
             "sparsity": {"profile": "explicit", "layers": {"fc": 5}}},
            {"name": "b",
             "layers": [{"type": "linear", "name": "fc",
                         "in_features": 8, "out_features": 2}],
             "sparsity": ["uniform"]},
            ["not", "an", "object"],
            json.loads(BAD_CONV.read_text()),
            *(
                {"name": "b",
                 "layers": [{"type": "conv2d", "name": "c", "in_channels": 3,
                             "out_channels": 4, "kernel": 3, "input_hw": 8,
                             **geometry}]}
                for geometry in ({"stride": 0}, {"stride": -1},
                                 {"kernel": 0}, {"padding": -1})
            ),
            json.loads(BAD_ATTENTION.read_text()),
            *(
                {"name": "t", "layers": [dict(layer, name="l")]}
                for layer in (
                    {"type": "attention", "hidden": 100, "heads": 12, "seq_len": 16},
                    {"type": "attention", "hidden": 0, "heads": 2, "seq_len": 16},
                    {"type": "attention", "hidden": 64, "heads": 2, "seq_len": 0},
                    {"type": "feedforward", "hidden": 64, "intermediate": 0,
                     "seq_len": 16},
                    {"type": "feedforward", "hidden": -64, "intermediate": 256,
                     "seq_len": 16},
                )
            ),
        ],
        ids=["str-layer", "str-gemm-shape", "null-dim", "int-density-pair",
             "list-sparsity", "array-spec", "conv-empty-output",
             "conv-stride-0", "conv-stride-neg", "conv-kernel-0",
             "conv-padding-neg", "attention-heads-0",
             "attention-hidden-not-divisible", "attention-hidden-0",
             "attention-seq-len-0", "feedforward-intermediate-0",
             "feedforward-hidden-neg"],
    )
    def test_cli_workloads_validate_malformed_shapes(self, tmp_path, capsys,
                                                     payload):
        # Malformed spec *shapes* must report FAIL + exit 2, never a
        # traceback: validation is the tool's whole job.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["workloads", "validate", str(bad)]) == 2
        assert "FAIL" in capsys.readouterr().err

    def test_spec_path_resolution_is_memoized(self, tmp_path):
        # The suite re-resolves tokens per evaluation; same file content
        # must return the same Workload instance (file reads + density
        # solver run once), while an edit is a cache miss.
        first = parse_workload(str(TINYCNN))
        assert parse_workload(str(TINYCNN)) is first
        copied = tmp_path / "tinycnn.json"
        copied.write_text(TINYCNN.read_text())
        edited = parse_workload(str(copied))
        assert edited is not first
        spec = json.loads(copied.read_text())
        spec["sparsity"]["weight_sparsity"] = 0.9
        copied.write_text(json.dumps(spec))
        assert parse_workload(str(copied)) is not edited

    def test_cli_workloads_fingerprint(self, capsys):
        assert main(["workloads", "fingerprint", "ResNet50", str(TINYCNN)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("ResNet50")
        assert lines[0].split()[0] == TABLE_IV_GOLDEN["ResNet50"]["digest"]
