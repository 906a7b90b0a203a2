"""Unit tests for ``tools/bench_gate.py`` on synthetic ledgers.

The gate's judging must be trustworthy without running the benchmark:
these tests build small in-memory ledgers and exercise every verdict --
end-to-end bounds, counts, per-layer ratios to the rest of the traced
wall, the floor share, the host rule, incorrect runs and missing
workloads or metrics.  The last class is the tier-1 smoke over
``benchmarks/history/``: the committed snapshot must validate and cover
every workload and metric of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_gate  # noqa: E402
from bench_gate import (  # noqa: E402
    BENCHMARK,
    FLOOR_SHARE,
    HISTORY_DIR,
    LEDGER_SCHEMA,
    compare,
    history_snapshots,
    main,
    next_snapshot_path,
    report,
    summarize,
    validate,
)

HOST = {"cpu": "Synthetic CPU @ 2.0GHz", "nproc": 2, "python": "3.11.7", "numpy": "2.0.0"}
WORKLOAD = "fig8-cold"
BENCHMARK_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def perfbench_out(**metrics: float) -> dict:
    """One perfbench result line; ``a__b`` keyword arguments name metric ``a.b``."""
    return {"correct": True, "metrics": {name.replace("__", "."): {"value": value}
                                         for name, value in metrics.items()}}


def ledger(**metrics: float) -> dict:
    """A one-workload ledger of one run; keyword arguments override metrics."""
    base = {
        "setup_s": 0.5, "wall_s": 6.0, "peak_rss_mb": 370.0, "ok_ratio": 1.0,
        "p50_ms": 14.0, "p95_ms": 40.0, "throughput_rps": 350.0,
        "sim.sample_passes.self_s": 3.5, "sim.tile_batch.self_s": 3.0,
        "sim.layer.self_s": 1.45, "cache.layer.get_s": 0.05, "sim.tile_batch.calls": 1084,
        "cache.layer.puts": 1905, "cache.layer.hits": 127,
        "trace.wall_s": 8.0, "trace.overhead_pct": 1.0, "startup.import_s": 0.26,
    }
    base.update({name.replace("__", "."): value for name, value in metrics.items()})
    return {"schema": LEDGER_SCHEMA, "seeds": 3, "host": dict(HOST),
            "workloads": {WORKLOAD: summarize([perfbench_out(**base)])}}


def verdicts(current: dict, baseline: dict | None = None) -> dict[str, str]:
    result = compare(current, baseline or ledger())
    return {row.metric: row.verdict for row in result.rows if row.workload == WORKLOAD}


def failing(current: dict, baseline: dict | None = None) -> set[str]:
    return {m for m, v in verdicts(current, baseline).items() if v == "FAIL"}


class TestCompare:
    def test_identical_passes(self):
        result = compare(ledger(), ledger())
        assert result.ok and result.host_matches
        assert set(verdicts(ledger())) >= {"correct", "wall_s", "sim.tile_batch.self_s"}
        assert set(verdicts(ledger()).values()) <= {"ok", "below floor", "info"}

    def test_improvement_passes(self):
        assert failing(ledger(wall_s=3.0, throughput_rps=700.0,
                              sim__tile_batch__calls=900)) == set()

    @pytest.mark.parametrize("metric, value, fails", [
        pytest.param("wall_s", 6.0 * 1.3, True, id="wall_s-x1.3-fails"),
        pytest.param("wall_s", 6.0 * 1.2, False, id="wall_s-x1.2-passes"),
        pytest.param("throughput_rps", 350.0 * 0.7, True, id="throughput_rps-x0.7-fails"),
        pytest.param("peak_rss_mb", 370.0 * 1.15, True, id="peak_rss_mb-x1.15-fails"),
        pytest.param("ok_ratio", 0.98, True, id="ok_ratio-0.98-fails"),
    ])
    def test_end_to_end_metric_judged_against_its_bound(self, metric, value, fails):
        assert failing(ledger(**{metric: value})) == ({metric} if fails else set())

    @pytest.mark.parametrize("metric, value, fails", [
        pytest.param("sim.tile_batch.calls", 1085, True, id="calls-rise-fails"),
        pytest.param("sim.tile_batch.calls", 1083, False, id="calls-fall-passes"),
        pytest.param("cache.layer.hits", 126, True, id="hits-fall-fails"),
        pytest.param("cache.layer.hits", 128, False, id="hits-rise-passes"),
    ])
    def test_count_fails_when_worse_at_all(self, metric, value, fails):
        current = ledger(**{metric.replace(".", "__"): value})
        assert failing(current) == ({metric} if fails else set())

    def test_slower_layer_fails_on_its_row_only(self):
        # tile_batch x1.3, the traced time longer by the same 0.9 s: its
        # ratio to the rest of the traced time rises by exactly 30%.
        current = ledger(sim__tile_batch__self_s=3.9, trace__wall_s=8.9)
        assert failing(current) == {"sim.tile_batch.self_s"}
        (row,) = [r for r in compare(current, ledger()).rows
                  if r.metric == "sim.tile_batch.self_s"]
        assert row.worse == pytest.approx(0.3)
        # The same slowdown on a host 2x slower at everything still reads +30%.
        slow_host = ledger(sim__sample_passes__self_s=7.0, sim__tile_batch__self_s=7.8,
                           sim__layer__self_s=2.9, cache__layer__get_s=0.1,
                           trace__wall_s=17.8)
        assert "sim.tile_batch.self_s" in failing(slow_host)

    def test_layer_ratio_is_taken_within_each_run(self):
        # Run 2 is the baseline run 1.5x slower at everything; run 3 alone
        # has a slow tile_batch.  Per run, tile_batch / rest reads 0.5, 0.5
        # and 0.7, so the median is the baseline's 0.5; the ratio of the
        # metric medians (1.4 / 2.0 = 0.7) would mix runs and read +40%.
        runs = [perfbench_out(sim__tile_batch__self_s=1.0, sim__sample_passes__self_s=2.0),
                perfbench_out(sim__tile_batch__self_s=1.5, sim__sample_passes__self_s=3.0),
                perfbench_out(sim__tile_batch__self_s=1.4, sim__sample_passes__self_s=2.0)]
        entry = summarize(runs)
        metrics = entry["metrics"]
        assert metrics["sim.tile_batch.self_s"] / metrics["sim.sample_passes.self_s"] == 0.7
        assert entry["ratios"]["sim.tile_batch.self_s"] == 0.5
        baseline, current = ledger(), ledger()
        baseline["workloads"][WORKLOAD] = summarize(runs[:1])
        current["workloads"][WORKLOAD] = entry
        assert compare(current, baseline).ok

    def test_failed_run_makes_the_workload_incorrect(self):
        entry = summarize([perfbench_out(wall_s=6.0), None])
        assert entry["correct"] is False and entry["metrics"] == {"wall_s": 6.0}

    def test_layer_under_the_floor_is_shown_not_judged(self):
        current = ledger(cache__layer__get_s=0.15, trace__wall_s=8.1)  # x3, 1.9%
        assert 0.15 / 8.1 < FLOOR_SHARE
        result = compare(current, ledger())
        assert result.ok
        assert verdicts(current)["cache.layer.get_s"] == "below floor"
        assert "| cache.layer.get_s | 0.05 | 0.15 | 1.9% |" in report(result)

    def test_layer_crossing_the_floor_is_judged(self):
        current = ledger(cache__layer__get_s=0.6, trace__wall_s=8.55)
        assert failing(current) == {"cache.layer.get_s"}

    def test_other_host_judges_counts_and_correctness_only(self):
        other = ledger(wall_s=12.0, sim__tile_batch__self_s=6.0, sim__tile_batch__calls=1085)
        other["host"]["cpu"] = "Another CPU"
        result = compare(other, ledger())
        assert not result.host_matches
        rows = {row.metric: row.verdict for row in result.rows}
        assert rows["sim.tile_batch.calls"] == "FAIL"
        assert rows["ok_ratio"] == rows["correct"] == "ok"
        for metric, verdict in rows.items():
            if BENCHMARK_UNITS.get(metric, "count") != "count" and metric != "ok_ratio":
                assert verdict == "host differs", metric
        assert "host differs" in report(result)

    def test_incorrect_run_fails(self):
        current = ledger()
        current["workloads"][WORKLOAD]["correct"] = False
        assert failing(current) == {"correct"}

    def test_missing_workload_or_metric_fails(self):
        baseline = ledger()
        baseline["workloads"]["serve-warm"] = baseline["workloads"][WORKLOAD]
        result = compare(ledger(), baseline)
        assert [(r.workload, r.metric, r.verdict) for r in result.rows
                if r.verdict == "FAIL"] == [("serve-warm", "workload", "FAIL")]
        current = ledger()
        del current["workloads"][WORKLOAD]["metrics"]["p95_ms"]
        assert failing(current) == {"p95_ms"}

    def test_new_metric_noted_but_passes(self):
        current = ledger(serve__queue_s=1.0)
        assert verdicts(current)["serve.queue_s"] == "new"
        assert compare(current, ledger()).ok


class TestValidation:
    def test_valid_snapshot_passes(self):
        assert validate(ledger()) == []

    def test_snapshot_unknown_schema(self):
        bad = dict(ledger(), schema="bench-snapshot-v1")
        assert any("schema" in error for error in validate(bad))

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("host"),
        lambda d: d["host"].pop("cpu"),
        lambda d: d["workloads"].clear(),
        lambda d: d["workloads"][WORKLOAD].pop("correct"),
        lambda d: d["workloads"][WORKLOAD]["metrics"].update(wall_s="slow"),
        lambda d: d["workloads"][WORKLOAD].pop("ratios"),
    ], ids=["no-host", "host-without-cpu", "no-workloads", "no-correct", "non-numeric-metric",
            "no-ratios"])
    def test_malformed_ledgers_are_named(self, mutate):
        bad = ledger()
        mutate(bad)
        assert validate(bad)

    def test_compare_rejects_malformed_snapshot(self):
        with pytest.raises(ValueError, match="malformed baseline"):
            compare(ledger(), {"schema": LEDGER_SCHEMA})


class TestTrendTable:
    def test_table_includes_every_row_and_verdict(self, tmp_path, capsys):
        current = ledger(sim__tile_batch__self_s=3.9, trace__wall_s=8.9)
        table = report(compare(current, ledger()))
        assert "**FAIL**" in table
        assert "### fig8-cold (worst judged change +30.0%, sim.tile_batch.self_s)" in table
        for metric in ledger()["workloads"][WORKLOAD]["metrics"]:
            assert f"| {metric} |" in table
        assert "| sim.tile_batch.self_s | 3 | 3.9 | 43.8% | +30.0% | 25% | FAIL |" in table
        paths = [tmp_path / "current.json", tmp_path / "baseline.json"]
        for path, payload in zip(paths, (current, ledger())):
            path.write_text(json.dumps(payload))
        assert main(["check", str(paths[0]), str(paths[1])]) == 1
        assert main(["check", str(paths[1]), str(paths[1])]) == 0
        assert "**PASS**" in capsys.readouterr().out

    def test_table_renders_missing_as_dashes(self):
        current = ledger()
        del current["workloads"][WORKLOAD]["metrics"]["p50_ms"]
        assert "| p50_ms | 14 | – |" in report(compare(current, ledger()))


class TestRun:
    def test_base_is_measured_alternately_and_judged_against(self, tmp_path, monkeypatch,
                                                              capsys):
        base_tree = tmp_path / "base"
        (base_tree / "perfbench").mkdir(parents=True)
        (base_tree / "perfbench" / "run.py").write_text("")
        calls = []

        def fake_perfbench(root, workload, seed, trace):
            calls.append(root)
            tile = 3.9 if root == bench_gate.REPO_ROOT else 3.0  # the change is slower
            return perfbench_out(wall_s=6.0, sim__tile_batch__self_s=tile,
                                 sim__sample_passes__self_s=5.0)

        monkeypatch.setattr(bench_gate, "perfbench", fake_perfbench)
        out = tmp_path / "ledger.json"
        assert main(["run", "--base", str(base_tree), "--out", str(out)]) == 1
        assert calls[:4] == [bench_gate.REPO_ROOT, base_tree, bench_gate.REPO_ROOT, base_tree]
        assert len(calls) == 2 * 2 * bench_gate.SEEDS * len(BENCHMARK["workloads"])
        base_ledger = json.loads((tmp_path / "ledger.base.json").read_text())
        result = compare(json.loads(out.read_text()), base_ledger)
        assert {row.metric for row in result.rows if row.verdict == "FAIL"} == {
            "sim.tile_batch.self_s"}
        assert "**FAIL**" in capsys.readouterr().out

    @pytest.mark.parametrize("change, fails", [
        pytest.param({"cache.layer.put_s": 0.3}, set(), id="put-drops-90pct-fails-nothing"),
        pytest.param({"sim.tile_batch.self_s": 3.9}, {"sim.tile_batch.self_s"},
                     id="tile-batch-rises-30pct-fails-its-row"),
    ])
    def test_base_judges_each_layer_by_its_paired_seconds(self, tmp_path, monkeypatch,
                                                          capsys, change, fails):
        """Under ``--base`` a layer is judged by its own change/base seconds
        in back-to-back runs, so a large win in one layer moves no other
        row; the host drifting between seeds cancels within each pair."""
        base_tree = tmp_path / "base"
        (base_tree / "perfbench").mkdir(parents=True)
        (base_tree / "perfbench" / "run.py").write_text("")
        layers = {"sim.sample_passes.self_s": 3.5, "sim.tile_batch.self_s": 3.0,
                  "cache.layer.put_s": 3.0, "sim.layer.self_s": 1.45}

        def fake_perfbench(root, workload, seed, trace):
            times = dict(layers, **change) if root == bench_gate.REPO_ROOT else layers
            drift = 1.0 + 0.2 * seed
            metrics = {"wall_s": 6.0 * drift,
                       **({m: v * drift for m, v in times.items()} if trace else {})}
            return {"correct": True, "metrics": {m: {"value": v} for m, v in metrics.items()}}

        monkeypatch.setattr(bench_gate, "perfbench", fake_perfbench)
        out = tmp_path / "ledger.json"
        assert main(["run", "--base", str(base_tree), "--out", str(out)]) == (1 if fails else 0)
        failed = {line.split(" | ")[0].lstrip("| ") for line in capsys.readouterr().out
                  .splitlines() if line.endswith("| FAIL |")}
        assert failed == fails
        # The rest-of-trace rule would have failed the layers that did not move.
        if not fails:
            rest = compare(json.loads(out.read_text()),
                           json.loads((tmp_path / "ledger.base.json").read_text()))
            assert "sim.tile_batch.self_s" in {r.metric for r in rest.rows if r.verdict == "FAIL"}

    def test_snapshot_takes_every_round_and_refuses_incorrect_runs(self, tmp_path,
                                                                    monkeypatch):
        calls = []
        monkeypatch.setattr(bench_gate, "HISTORY_DIR", tmp_path)
        monkeypatch.setattr(bench_gate, "perfbench", lambda *args: calls.append(args)
                            or perfbench_out(wall_s=6.0, sim__tile_batch__self_s=3.0))
        assert main(["snapshot", "--label", "First"]) == 0
        assert len(calls) == bench_gate.SNAPSHOT_ROUNDS * bench_gate.SEEDS * 2 * len(
            BENCHMARK["workloads"])
        (path,) = history_snapshots(tmp_path)
        snapshot = json.loads(path.read_text())
        assert path.name == "0001-first.json" and snapshot["label"] == "First"
        assert validate(snapshot) == [] and snapshot["rounds"] == bench_gate.SNAPSHOT_ROUNDS
        monkeypatch.setattr(bench_gate, "perfbench", lambda *args: None)
        assert main(["snapshot", "--label", "broken"]) == 1
        assert history_snapshots(tmp_path) == [path]

    def test_out_folder_is_made_before_measuring(self, tmp_path, monkeypatch):
        """``--out`` in a folder that does not exist yet: the folder is made
        first and the ledger lands there; a folder that cannot be made is
        refused before anything is measured."""
        calls = []

        def fake_measure(roots, rounds=1):
            calls.append(roots)
            return [{"schema": LEDGER_SCHEMA, "workloads": {}}], None

        monkeypatch.setattr(bench_gate, "measure", fake_measure)
        monkeypatch.setattr(bench_gate, "history_snapshots", lambda _: [])
        out = tmp_path / "new" / "deeper" / "ledger.json"
        assert main(["run", "--out", str(out)]) == 1  # no snapshot to judge against
        assert len(calls) == 1
        assert json.loads(out.read_text())["schema"] == LEDGER_SCHEMA
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", "--out", str(blocker / "ledger.json")]) == 1
        assert len(calls) == 1

    def test_base_without_perfbench_is_refused(self, tmp_path):
        assert main(["run", "--base", str(tmp_path), "--out", str(tmp_path / "l.json")]) == 1


class TestHistory:
    def test_numbering_starts_at_one(self, tmp_path):
        assert next_snapshot_path(tmp_path, "First Label!").name == "0001-first-label.json"

    def test_numbering_increments_past_latest(self, tmp_path):
        (tmp_path / "0001-old.json").write_text("{}")
        (tmp_path / "0007-newer.json").write_text("{}")
        (tmp_path / "README.md").write_text("not a snapshot")
        assert next_snapshot_path(tmp_path, "x").name == "0008-x.json"
        assert history_snapshots(tmp_path)[-1].name == "0007-newer.json"

    def test_empty_history_has_no_latest(self, tmp_path):
        assert history_snapshots(tmp_path) == []


class TestCommittedSnapshots:
    """Tier-1 smoke: the snapshot the gate judges against is sound."""

    def test_history_dir_has_snapshots(self):
        assert history_snapshots(HISTORY_DIR), (
            "benchmarks/history/ holds no snapshots; bank one with "
            "'python tools/bench_gate.py snapshot --label <label>'"
        )

    def test_committed_snapshots_validate(self):
        for path in history_snapshots(HISTORY_DIR):
            assert validate(json.loads(path.read_text())) == [], path.name

    def test_latest_committed_snapshot_is_self_consistent(self):
        latest = json.loads(history_snapshots(HISTORY_DIR)[-1].read_text())
        names = [w["name"] for w in BENCHMARK["workloads"]]
        assert sorted(latest["workloads"]) == sorted(names)
        for name, entry in latest["workloads"].items():
            assert entry["correct"], f"{name}: a broken baseline cannot gate anything"
            assert set(entry["metrics"]) == set(BENCHMARK_UNITS), name
            assert set(entry["ratios"]) == set(filter(bench_gate._is_layer_time, BENCHMARK_UNITS))
        assert compare(latest, latest).ok
