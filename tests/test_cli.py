"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

MINI_SPEC = {
    "name": "mini",
    "designs": ["Dense", "B(2,0,0)"],
    "categories": ["DNN.B"],
    "networks": ["BERT"],
    "options": {"passes_per_gemm": 1, "max_t_steps": 16, "seed": 7},
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--arch", "B(4,0,1,on)", "--network", "AlexNet",
             "--category", "DNN.B"]
        )
        assert args.network == "AlexNet"
        assert args.category.value == "DNN.B"

    def test_rejects_unknown_network(self, capsys):
        # Workload tokens are free-form (names, overrides, spec paths), so
        # rejection happens at resolve time -- with a closest-match hint.
        assert main(["simulate", "--arch", "Dense", "--network", "ResNet5"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'ResNet5'" in err
        assert "did you mean ResNet50" in err

    def test_rejects_unknown_category(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--arch", "Dense", "--network", "BERT",
                 "--category", "DNN.X"]
            )

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2", "--compute-threads", "3"]
        )
        assert args.port == 0
        assert args.workers == 2
        assert args.compute_threads == 3
        assert args.host == "127.0.0.1"


class TestErrorReporting:
    def test_human_errors_keep_stable_prefix(self, capsys):
        assert main(["cost", "--arch", "NoSuchDesign"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unrecognized design" in err

    def test_json_errors_emit_the_envelope(self, capsys):
        assert main(["--json-errors", "cost", "--arch", "NoSuchDesign"]) == 2
        envelope = json.loads(capsys.readouterr().err)
        assert envelope["error"]["v"] == 1
        assert envelope["error"]["kind"] == "invalid-request"
        assert "unrecognized design" in envelope["error"]["message"]


#: One bad input per CLI verb: (argv, expected envelope kind, message
#: fragment).  Every verb must fail through the shared ``repro.errors``
#: envelope -- exit code 2, machine-readable kind, actionable message --
#: so automation wrapping any subcommand can rely on one error shape.
VERB_BAD_INPUTS = [
    ("cost", ["cost", "--arch", "NoSuchDesign"],
     "invalid-request", "unrecognized design"),
    ("simulate", ["simulate", "--arch", "Dense", "--network", "ResNet5"],
     "invalid-request", "unknown workload"),
    ("compare", ["compare", "--category", "DNN.B", "--arch", "NoSuchDesign"],
     "invalid-request", "unrecognized design"),
    ("run", ["run", "/no/such/spec.json"],
     "io-error", "No such file"),
    ("sweep", ["sweep", "--space", "b", "--quick", "--limit", "1",
               "--network", "NoSuchNet99"],
     "invalid-request", "unknown workload"),
    ("search", ["search", "/no/such/spec.json"],
     "io-error", "No such file"),
    ("workloads", ["workloads", "fingerprint", "NoSuchNet99"],
     "invalid-request", "unknown workload"),
    ("surrogate-fit", ["surrogate", "fit", "--network", "NoSuchNet99"],
     "invalid-request", "no calibration workloads"),
    ("surrogate-check",
     ["surrogate", "check", "--constants", "/no/such/constants.json"],
     "invalid-request", "repro surrogate fit"),
    # 203.0.113.0/24 is TEST-NET-3: never assigned, so the bind fails
    # immediately and the server never starts serving.
    ("serve", ["serve", "--host", "203.0.113.7", "--port", "0"],
     "io-error", "bind"),
    ("lint", ["lint", "--rule", "NOPE999"],
     "invalid-request", "unknown lint rule"),
]


class TestJsonErrorsAcrossVerbs:
    @pytest.mark.parametrize(
        "verb,argv,kind,fragment",
        VERB_BAD_INPUTS,
        ids=[case[0] for case in VERB_BAD_INPUTS],
    )
    def test_every_verb_fails_through_the_envelope(
        self, capsys, verb, argv, kind, fragment
    ):
        assert main(["--json-errors", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # the envelope is the only output
        envelope = json.loads(captured.err)
        assert envelope["error"]["v"] == 1
        assert envelope["error"]["kind"] == kind
        assert fragment in envelope["error"]["message"]

    @pytest.mark.parametrize(
        "verb,argv,kind,fragment",
        VERB_BAD_INPUTS,
        ids=[case[0] for case in VERB_BAD_INPUTS],
    )
    def test_human_mode_keeps_the_stable_prefix(
        self, capsys, verb, argv, kind, fragment
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert fragment in err


class TestCommands:
    def test_cost_command(self, capsys):
        assert main(["cost", "--arch", "B(4,0,1,on)"]) == 0
        out = capsys.readouterr().out
        assert "B(4,0,1,on)" in out and "mW" in out and "SRAM" in out

    def test_cost_griffin(self, capsys):
        assert main(["cost", "--arch", "Griffin"]) == 0
        assert "Griffin" in capsys.readouterr().out

    def test_simulate_command(self, capsys):
        code = main(
            ["simulate", "--arch", "B(4,0,0,on)", "--network", "AlexNet",
             "--category", "DNN.B", "--passes", "2", "--max-t", "32", "--layers"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "conv1" in out

    def test_compare_command(self, capsys):
        code = main(
            ["compare", "--category", "DNN.B", "--arch", "Dense",
             "--arch", "B(2,0,0,on)", "--passes", "2", "--max-t", "32"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TOPS/W" in out and "Baseline" in out


class TestUnifiedDesignParsing:
    """Every verb accepts Griffin, starred points, and baseline names."""

    def test_cost_baseline_name(self, capsys):
        assert main(["cost", "--arch", "sparten"]) == 0
        assert "SparTen" in capsys.readouterr().out

    def test_cost_starred_point(self, capsys):
        assert main(["cost", "--arch", "Sparse.B*"]) == 0
        assert "Sparse.B*" in capsys.readouterr().out

    def test_simulate_griffin_morphs(self, capsys, tmp_path):
        argv = [
            "simulate", "--arch", "griffin", "--network", "BERT",
            "--category", "DNN.B", "--passes", "1", "--max-t", "16",
            "--cache-dir", str(tmp_path), "--cache-stats",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Griffin [B(8,0,1,on)]" in cold
        assert "persistent cache: 0 hits" in cold

        # The repeated CLI call is served from the persistent cache.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm and "100.0% hit rate" in warm
        assert warm.split("persistent cache")[0] == cold.split("persistent cache")[0]

    def test_compare_accepts_baseline_names(self, capsys, tmp_path):
        code = main(
            ["compare", "--category", "DNN.B", "--arch", "Dense",
             "--arch", "SparTen", "--arch", "Griffin",
             "--passes", "1", "--max-t", "16",
             "--cache-dir", str(tmp_path), "--cache-stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SparTen" in out and "Griffin" in out
        assert "persistent cache:" in out

    def test_unknown_design_is_an_error(self, capsys):
        assert main(["cost", "--arch", "NoSuchDesign"]) == 2
        assert "unrecognized design" in capsys.readouterr().err


class TestRunCommand:
    def test_run_experiment_cold_then_warm(self, capsys, tmp_path):
        spec_path = tmp_path / "mini.json"
        spec_path.write_text(json.dumps(MINI_SPEC))
        argv = ["run", str(spec_path), "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "mini" in cold and "Baseline" in cold and "B(2,0,0,off)" in cold
        assert "persistent cache: 0 hits" in cold

        assert main(argv + ["--json", str(tmp_path / "out.json")]) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm and "100.0% hit rate" in warm
        assert warm.split("persistent cache")[0] == cold.split("persistent cache")[0]

        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["experiment"] == "mini"
        assert len(payload["rows"]) == 2
        assert payload["cache"]["hits"] > 0

    def test_run_missing_file(self, capsys):
        assert main(["run", "/no/such/spec.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_invalid_spec(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"designs": ["NoSuchDesign"]}))
        assert main(["run", str(bad)]) == 2
        assert "unrecognized design" in capsys.readouterr().err


class TestSweepCommand:
    def test_rejects_unknown_space(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--space", "c"])

    def test_quick_sweep_cold_then_warm(self, capsys, tmp_path):
        argv = [
            "sweep", "--space", "b", "--quick", "--limit", "4",
            "--network", "BERT", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Fig. 5 Sparse.B sweep: 4 design points" in cold
        assert "optimal point" in cold
        assert "persistent cache: 0 hits" in cold

        assert main(argv + ["--json", str(tmp_path / "fig5.json")]) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm and "100.0% hit rate" in warm
        # Identical efficiency numbers on the warm, cache-served path.
        assert warm.split("optimal point")[0] == cold.split("optimal point")[0]

        import json

        payload = json.loads((tmp_path / "fig5.json").read_text())
        assert payload["space"] == "b" and len(payload["rows"]) == 4
        assert payload["cache"]["hits"] > 0

    def test_no_cache_flag(self, capsys, tmp_path):
        code = main(
            ["sweep", "--space", "b", "--quick", "--limit", "2",
             "--network", "BERT", "--no-cache"]
        )
        assert code == 0
        assert "persistent cache: disabled" in capsys.readouterr().out


SEARCH_SPEC = {
    "name": "cli-mini",
    "space": {"name": "b-mini", "db1": [2, 3], "db3": [0, 1],
              "max_amux_fanin": 8},
    "strategy": {"kind": "evolutionary", "seed": 3, "budget": 5,
                 "population": 3, "parents": 2, "children": 2},
    "networks": ["BERT"],
    "options": {"passes_per_gemm": 1, "max_t_steps": 16, "seed": 7},
}


class TestSearchCommand:
    def test_needs_spec_or_space(self, capsys):
        assert main(["search"]) == 2
        assert "--space" in capsys.readouterr().err

    def test_flag_strategy_needs_budget(self, capsys):
        assert main(["search", "--space", "b"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_spec_search_with_checkpoint_resume_and_json(
        self, capsys, tmp_path
    ):
        spec_path = tmp_path / "search.json"
        spec_path.write_text(json.dumps(SEARCH_SPEC))
        checkpoint = tmp_path / "front.json"
        argv = [
            "search", str(spec_path), "--cache-dir", str(tmp_path / "cache"),
            "--checkpoint", str(checkpoint),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "optimal point" in cold
        assert "evaluated 5 of 8 feasible configs" in cold
        assert checkpoint.is_file()

        # Resume: everything replayed from the checkpoint, same optimum.
        assert main(argv + ["--resume", "--json", str(tmp_path / "out.json")]) == 0
        resumed = capsys.readouterr().out
        assert "in 0 batches" in resumed
        assert resumed.split("optimal point")[1].splitlines()[0] == \
            cold.split("optimal point")[1].splitlines()[0]

        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["search"] == "cli-mini"
        assert payload["evaluations"] == 5 and payload["grid_size"] == 8
        assert payload["optimal"]["label"] == \
            cold.split("optimal point")[1].splitlines()[0].split(": ")[1]

    def test_strategy_override_keeps_spec_tuning(self, capsys, tmp_path):
        """--strategy random must inherit the spec's budget/seed, not
        reset them to flag defaults."""
        spec_path = tmp_path / "search.json"
        spec_path.write_text(json.dumps(SEARCH_SPEC))
        code = main(
            ["search", str(spec_path), "--strategy", "random",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "random sample (seed 3)" in out        # spec's seed survives
        assert "evaluated 5 of 8 feasible configs" in out  # spec's budget too

    def test_resume_without_checkpoint_is_an_error(self, capsys, tmp_path):
        spec_path = tmp_path / "search.json"
        spec_path.write_text(json.dumps(SEARCH_SPEC))
        assert main(["search", str(spec_path), "--resume",
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_fidelity_multi_conflicts_with_exact_strategy_flag(self, capsys):
        assert main(["search", "--space", "b", "--fidelity", "multi",
                     "--strategy", "evolutionary", "--budget", "4"]) == 2
        assert "conflicts with --strategy" in capsys.readouterr().err

    def test_fidelity_exact_rejects_a_surrogate_spec(self, capsys, tmp_path):
        spec_path = tmp_path / "multi.json"
        spec_path.write_text(json.dumps(
            {"space": "b", "fidelity": "multi", "strategy": {"budget": 4}}
        ))
        assert main(["search", str(spec_path), "--fidelity", "exact"]) == 2
        assert "add --strategy" in capsys.readouterr().err

    def test_exhaustive_override_matches_sweep_selection(
        self, capsys, tmp_path
    ):
        spec_path = tmp_path / "search.json"
        spec_path.write_text(json.dumps(SEARCH_SPEC))
        code = main(
            ["search", str(spec_path), "--strategy", "exhaustive",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "evaluated 8 of 8 feasible configs (100.0%)" in out
        assert "optimal point" in out


class TestSurrogateCommand:
    def test_fit_check_and_multifidelity_search(
        self, capsys, tmp_path
    ):
        """The full CLI loop: fit constants from this cache, verify the
        error budget offline, then spend them in a multi-fidelity search."""
        cache = str(tmp_path / "cache")
        constants = tmp_path / "constants.json"
        assert main(
            ["surrogate", "fit", "--space", "b", "--network", "BERT",
             "--regime", "quick", "--out", str(constants),
             "--cache-dir", cache]
        ) == 0
        out = capsys.readouterr().out
        assert "quick" in out and "BERT" in out
        assert f"wrote fitted surrogate constants to {constants}" in out
        assert constants.is_file()

        # Offline budget verification: no cache flags, no simulation.
        assert main(["surrogate", "check", "--constants", str(constants)]) == 0
        out = capsys.readouterr().out
        assert "surrogate error budget: OK" in out
        assert " ok" in out

        spec_path = tmp_path / "multi.json"
        spec_path.write_text(json.dumps({
            "name": "cli-multi",
            "space": "b",
            "fidelity": "multi",
            "strategy": {"budget": 4},
            "networks": ["BERT"],
            "options": {"passes_per_gemm": 1, "max_t_steps": 16, "seed": 7},
        }))
        assert main(
            ["search", str(spec_path), "--surrogate", str(constants),
             "--cache-dir", cache]
        ) == 0
        out = capsys.readouterr().out
        assert "evaluated 4 of 42 feasible configs" in out
        assert ("surrogate screened 42 configs; 4 exact evaluations "
                "confirmed the shortlist") in out
        assert "optimal point" in out


class TestObservability:
    """``--trace`` / ``--metrics`` flags and the ``trace`` verb."""

    def run_spec(self, tmp_path) -> str:
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(MINI_SPEC))
        return str(path)

    def test_trace_flag_writes_jsonl_and_keeps_stdout_identical(
        self, tmp_path, capsys
    ):
        spec = self.run_spec(tmp_path)
        cache = str(tmp_path / "cache")
        assert main(["run", spec, "--cache-dir", cache]) == 0  # cold warm-up
        capsys.readouterr()
        assert main(["run", spec, "--cache-dir", cache]) == 0
        plain = capsys.readouterr().out
        trace_path = tmp_path / "run.trace.jsonl"
        assert main(
            ["run", spec, "--cache-dir", cache, "--trace", str(trace_path)]
        ) == 0
        captured = capsys.readouterr()
        # Tracing must not perturb what the command prints.
        assert captured.out == plain
        assert "wrote trace" in captured.err
        lines = trace_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["trace"] == "repro-trace-v1"
        assert header["command"] == "run"
        assert header["spans"] == len(lines) - 1 > 0
        names = {json.loads(line)["name"] for line in lines[1:]}
        assert "session.run" in names
        assert "cache.network.get" in names

    def test_trace_summarize_and_chrome_export_round_trip(
        self, tmp_path, capsys
    ):
        spec = self.run_spec(tmp_path)
        cache = str(tmp_path / "cache")
        trace_path = tmp_path / "t.jsonl"
        assert main(
            ["run", spec, "--cache-dir", cache, "--trace", str(trace_path)]
        ) == 0
        assert main(["run", spec, "--cache-dir", cache,
                     "--trace", str(trace_path)]) == 0  # warm rewrite
        capsys.readouterr()

        assert main(["trace", "summarize", str(trace_path)]) == 0
        summary = capsys.readouterr().out
        assert "trace summary" in summary
        # Warm run: whole networks from the network tier, no layer lookups.
        assert "cache spans: network 2h/0m, layer 0h/0m" in summary
        assert "critical path:" in summary

        out_path = tmp_path / "t.chrome.json"
        assert main(["trace", "export", str(trace_path), "--chrome",
                     "--out", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert document["traceEvents"]
        # The Chrome document feeds back through summarize unchanged.
        assert main(["trace", "summarize", str(out_path)]) == 0
        assert "cache spans: network 2h/0m, layer 0h/0m" in capsys.readouterr().out

    def test_trace_export_requires_a_format(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text('{"trace": "repro-trace-v1", "v": 1}\n')
        assert main(["trace", "export", str(trace_path)]) == 2
        assert "--chrome" in capsys.readouterr().err

    def test_metrics_flag_dumps_prometheus_text(self, tmp_path, capsys):
        spec = self.run_spec(tmp_path)
        assert main(
            ["run", spec, "--cache-dir", str(tmp_path / "cache"), "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_cache_events_total counter" in out
        assert 'repro_cache_events_total{tier="network",event="puts"} 2' in out
        assert 'repro_cli_run{fact="design_points"} 2' in out

    def test_traced_failure_envelope_carries_the_trace_id(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "fail.jsonl"
        assert main(
            ["--json-errors", "run", str(tmp_path / "missing.json"),
             "--trace", str(trace_path)]
        ) == 2
        captured = capsys.readouterr()
        envelope = json.loads(captured.err.split("wrote trace")[0])
        header = json.loads(trace_path.read_text().splitlines()[0])
        assert envelope["error"]["trace_id"] == header["trace_id"]
