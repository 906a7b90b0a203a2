#!/usr/bin/env python
"""The perf gate: the repo benchmark's ledger, judged against a baseline ledger.

``run`` and ``snapshot`` execute ``perfbench/run.py`` for every workload of
``BENCHMARK.json`` at seeds 1..SEEDS, untraced (the end-to-end metrics) and
traced (the per-layer metrics), and reduce the runs to a *ledger*: per
workload, whether every run was correct, each metric's median, and the
median over traced runs of each layer's ratio to the rest of that run's
traced time; plus the host.  ``run`` judges it against the latest snapshot
under ``benchmarks/history/`` or, with ``--base DIR``, against the checkout
at DIR measured alternately run by run (what CI does), judging each layer
by its own change/base seconds in paired runs; ``snapshot`` banks it as the
next snapshot; ``check`` judges two ledger files and runs nothing.
``docs/benchmarks.md`` gives the judging rules and their reasons::

    python tools/bench_gate.py run --out BENCH_ledger.json
    python tools/bench_gate.py run --base ../base-checkout
    python tools/bench_gate.py snapshot --label my-change
    python tools/bench_gate.py check BENCH_ledger.json benchmarks/history/0007-*.json

Exit status: 0 when the gate passes, 1 when it fails or a ledger is malformed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HISTORY_DIR = REPO_ROOT / "benchmarks" / "history"
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(REPO_ROOT))
from perfbench.harness import environment  # noqa: E402

LEDGER_SCHEMA = "perf-ledger-v1"
#: Seeds 1..SEEDS of every workload, each run untraced and traced.
SEEDS = 3
#: Rounds of the seeds in a snapshot: every later run is judged against it,
#: so its medians are taken over a longer stretch of the host's drift.
SNAPSHOT_ROUNDS = 3
HOST_KEYS = ("cpu", "nproc", "python", "numpy")
#: Smallest share of the traced time at which a layer's time is judged.
FLOOR_SHARE = 0.05
#: Per-layer times that are not one layer's own part of the traced time
#: (walls, start-up, overhead, and serve.compute, which holds the other
#: serve layers): shown, never judged.
UNSHARED = {"trace.wall_s", "startup.import_s", "trace.overhead_pct", "serve.compute_s"}

_SPECS = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
_END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
_LAYER_BOUND = _SPECS["wall_s"]["bound"]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def perfbench(root: Path, workload: str, seed: int, trace: int) -> dict | None:
    """One ``perfbench/run.py`` process in checkout ``root``: its result, or None."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def _is_layer_time(metric: str) -> bool:
    """A layer's own share of the traced time (the terms of ``T``)."""
    return (metric not in _END_TO_END and metric not in UNSHARED
            and _SPECS.get(metric, {}).get("unit") == "s")


def rest_ratios(metrics: dict) -> dict:
    """Each layer's own time ``x`` of one traced run over the rest, ``x / (T - x)``."""
    layers = {m: v for m, v in metrics.items() if _is_layer_time(m)}
    total = sum(layers.values())
    return {m: x / (total - x) if total > x else 0.0 for m, x in layers.items()}


def summarize(outs: list[dict | None]) -> dict:
    """One workload's perfbench results (None = a failed run) as a ledger entry."""
    values, ratios = {}, {}
    for out in filter(None, outs):
        metrics = {m: entry["value"] for m, entry in out["metrics"].items()}
        for metric, value in metrics.items():
            values.setdefault(metric, []).append(value)
        for metric, ratio in rest_ratios(metrics).items():
            ratios.setdefault(metric, []).append(ratio)
    return {"correct": all(out is not None and out["correct"] for out in outs),
            "metrics": {m: statistics.median(v) for m, v in sorted(values.items())},
            "ratios": {m: statistics.median(v) for m, v in sorted(ratios.items())}}


def paired_ratios(change: list[dict | None], base: list[dict | None]) -> dict:
    """Median over paired runs of each layer's own change/base seconds.

    ``change`` and ``base`` are one workload's runs of two checkouts in
    measuring order, so each pair ran back to back at one seed; untraced
    and failed runs have no layer times and pair into nothing.
    """
    ratios = {}
    for cur, old in zip(change, base):
        if cur is None or old is None:
            continue
        for metric, entry in old["metrics"].items():
            if _is_layer_time(metric) and entry["value"] > 0 and metric in cur["metrics"]:
                ratios.setdefault(metric, []).append(
                    cur["metrics"][metric]["value"] / entry["value"])
    return {m: statistics.median(v) for m, v in sorted(ratios.items())}


def measure(roots: list[Path], rounds: int = 1) -> tuple[list[dict], dict | None]:
    """One ledger per checkout of ``roots``, measured alternately run by run,
    and, for two checkouts, each workload's :func:`paired_ratios`."""
    host = {"cpu": cpu_model(), **environment()}
    names = [spec["name"] for spec in BENCHMARK["workloads"]]
    outs = [{name: [] for name in names} for _ in roots]
    seeds = list(range(1, SEEDS + 1)) * rounds
    for seed, name, trace in itertools.product(seeds, names, (0, 1)):
        for root, tree in zip(roots, outs):
            tree[name].append(out := perfbench(root, name, seed, trace))
            print(f"{root.name} {name} seed {seed} trace {trace}: "
                  f"{'ok' if out and out['correct'] else 'FAILED'}", file=sys.stderr, flush=True)
    ledgers = [{"schema": LEDGER_SCHEMA, "seeds": SEEDS, "rounds": rounds,
                "commit": _git_commit(root), "host": host,
                "workloads": {name: summarize(runs) for name, runs in tree.items()}}
               for root, tree in zip(roots, outs)]
    pairs = {name: paired_ratios(outs[0][name], outs[1][name])
             for name in names} if len(roots) == 2 else None
    return ledgers, pairs


def validate(ledger: object) -> list[str]:
    """Structural errors in a ledger or snapshot (empty = valid)."""
    if not isinstance(ledger, dict):
        return [f"ledger must be an object, got {type(ledger).__name__}"]
    errors = []
    if ledger.get("schema") != LEDGER_SCHEMA:
        errors.append(f"unknown schema {ledger.get('schema')!r} (this tool reads {LEDGER_SCHEMA})")
    host = ledger.get("host")
    if not isinstance(host, dict) or set(host) != set(HOST_KEYS):
        errors.append(f"host must be an object with keys {list(HOST_KEYS)}")
    workloads = ledger.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return errors + ["workloads must be a non-empty object"]
    for name, entry in workloads.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("correct"), bool):
            errors.append(f"{name}: needs a boolean 'correct'")
            continue
        for part in ("metrics", "ratios"):
            values = entry.get(part)
            if not isinstance(values, dict):
                errors.append(f"{name}: {part} must be an object")
                continue
            for metric, value in values.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    errors.append(f"{name}: {part} {metric} must be a finite number")
    return errors


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    baseline: float | None
    current: float | None
    verdict: str  # ok | FAIL | host differs | below floor | info | new
    share: float | None = None  # of the traced time, for per-layer times
    worse: float | None = None  # relative change in the worse direction
    bound: float | None = None


@dataclass(frozen=True)
class GateResult:
    rows: tuple[Row, ...]
    host_matches: bool
    baseline_label: str
    paired: bool = False

    @property
    def ok(self) -> bool:
        return all(row.verdict != "FAIL" for row in self.rows)


def _worse(base: float, cur: float, better: str) -> float:
    """Relative change of ``cur`` against ``base``, positive when worse."""
    if base == cur:
        return 0.0
    if base == 0:
        return math.inf if (cur > 0) == (better == "lower") else -math.inf
    change = (cur - base) / abs(base)
    return change if better == "lower" else -change


def judge_metric(workload: str, metric: str, base: dict, cur: dict, host_matches: bool,
                 pair: float | None = None) -> Row:
    """One metric of one workload; ``base``/``cur`` are its ledger entries.

    A layer time with a ``pair`` (its :func:`paired_ratios` entry) is
    judged by that change/base ratio, otherwise by its ratio to the rest.
    """
    b, c = base["metrics"].get(metric), cur["metrics"].get(metric)
    if c is None:
        return Row(workload, metric, b, c, "FAIL")
    if b is None:
        return Row(workload, metric, b, c, "new")
    spec = _SPECS.get(metric, {"unit": "count", "better": "lower"})
    if spec["unit"] == "count":
        worse = _worse(b, c, spec["better"])
        return Row(workload, metric, b, c, "FAIL" if worse > 0 else "ok", worse=worse, bound=0.0)
    if metric == "ok_ratio" or (metric in _END_TO_END and host_matches):
        worse = _worse(b, c, spec["better"])
        verdict = "FAIL" if worse > spec["bound"] else "ok"
        return Row(workload, metric, b, c, verdict, worse=worse, bound=spec["bound"])
    if not host_matches:
        return Row(workload, metric, b, c, "host differs")
    if not _is_layer_time(metric):
        return Row(workload, metric, b, c, "info")
    b_ratio, c_ratio = base["ratios"].get(metric), cur["ratios"].get(metric)
    if c_ratio is None or b_ratio is None:
        return Row(workload, metric, b, c, "FAIL" if c_ratio is None else "new")
    share = c_ratio / (1 + c_ratio)  # x / T
    if max(share, b_ratio / (1 + b_ratio)) < FLOOR_SHARE:
        return Row(workload, metric, b, c, "below floor", share=share)
    worse = _worse(b_ratio, c_ratio, "lower") if pair is None else pair - 1.0
    verdict = "FAIL" if worse > _LAYER_BOUND else "ok"
    return Row(workload, metric, b, c, verdict, share=share, worse=worse, bound=_LAYER_BOUND)


def compare(current: dict, baseline: dict, pairs: dict | None = None) -> GateResult:
    """Judge ``current`` against ``baseline``; both must be valid ledgers.

    ``pairs`` (from :func:`measure` under ``--base``) holds each workload's
    :func:`paired_ratios`; without it layers are judged by the rest rule.
    """
    for which, ledger in (("current", current), ("baseline", baseline)):
        errors = validate(ledger)
        if errors:
            raise ValueError(f"malformed {which} ledger: " + "; ".join(errors))
    host_matches = current["host"] == baseline["host"]
    rows = []
    for workload, base in baseline["workloads"].items():
        cur = current["workloads"].get(workload)
        if cur is None:
            rows.append(Row(workload, "workload", None, None, "FAIL"))
            continue
        rows.append(Row(workload, "correct", float(base["correct"]), float(cur["correct"]),
                        "ok" if cur["correct"] else "FAIL"))
        names = list(base["metrics"]) + [m for m in cur["metrics"] if m not in base["metrics"]]
        paired = (pairs or {}).get(workload, {})
        rows += [judge_metric(workload, m, base, cur, host_matches, paired.get(m))
                 for m in names]
    label = str(baseline.get("label") or baseline.get("commit") or "?")
    return GateResult(tuple(rows), host_matches, label, pairs is not None)


def _fmt(value: float | None, metric: str) -> str:
    if value is None:
        return "–"
    if _SPECS.get(metric, {}).get("unit") == "count" or metric == "correct":
        return f"{value:g}"
    return f"{value:.4g}"


def report(result: GateResult) -> str:
    """The markdown verdict: one table per workload, layers with their share."""
    status = "PASS" if result.ok else "FAIL"
    host = "host matches" if result.host_matches else "host differs: counts and correctness only"
    lines = [f"## Perf gate: **{status}** (baseline `{result.baseline_label}`, {host})"]
    for workload in dict.fromkeys(row.workload for row in result.rows):
        rows = [row for row in result.rows if row.workload == workload]
        judged = [row for row in rows if row.worse is not None and row.bound]
        worst = max(judged, key=lambda row: row.worse, default=None)
        lines += ["", f"### {workload}" + (
            f" (worst judged change {worst.worse:+.1%}, {worst.metric})" if worst else ""), "",
            "| metric | baseline | current | share of traced time | change | bound | verdict |",
            "|---|---:|---:|---:|---:|---:|---|"]
        for row in rows:
            share = f"{row.share:.1%}" if row.share is not None else ""
            worse = f"{row.worse:+.1%}" if row.worse is not None else ""
            bound = f"{row.bound:.0%}" if row.bound is not None else ""
            lines.append(f"| {row.metric} | {_fmt(row.baseline, row.metric)} "
                         f"| {_fmt(row.current, row.metric)} | {share} | {worse} "
                         f"| {bound} | {row.verdict} |")
    rule = ("the median over paired runs of their own change/base seconds"
            if result.paired else "their ratio to the rest of the traced time")
    lines += ["", f"Change is positive when worse. Per-layer times are judged as {rule}, "
              f"from a {FLOOR_SHARE:.0%} share up.", ""]
    return "\n".join(lines)


def history_snapshots(history_dir: Path) -> list[Path]:
    """Committed snapshots, oldest first (numeric filename prefix)."""
    return sorted(history_dir.glob("[0-9][0-9][0-9][0-9]-*.json"))


def next_snapshot_path(history_dir: Path, label: str) -> Path:
    slug = re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-") or "snapshot"
    snapshots = history_snapshots(history_dir)
    number = int(snapshots[-1].name.split("-", 1)[0]) + 1 if snapshots else 1
    return history_dir / f"{number:04d}-{slug}.json"


def _git_commit(root: Path) -> str | None:
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _judge(current: dict, baseline: dict, pairs: dict | None = None) -> int:
    print(report(result := compare(current, baseline, pairs)))
    return 0 if result.ok else 1


def _write(path: Path, ledger: dict) -> None:
    path.write_text(json.dumps(ledger, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure, write the ledger and judge it")
    run.add_argument("--out", default="BENCH_ledger.json", help="ledger output path")
    run.add_argument("--base", metavar="DIR", help="also measure the checkout at DIR, "
                     "alternating run by run; judge against it, not the latest snapshot")
    snap = sub.add_parser("snapshot", help="measure and bank the next snapshot")
    snap.add_argument("--label", required=True, help="snapshot label, e.g. 'packed-cache'")
    check = sub.add_parser("check", help="judge one ledger file against another")
    check.add_argument("current")
    check.add_argument("baseline")
    args = parser.parse_args(argv)

    if args.command == "check":
        return _judge(json.loads(Path(args.current).read_text()),
                      json.loads(Path(args.baseline).read_text()))

    base = getattr(args, "base", None)
    if base and not (Path(base) / "perfbench" / "run.py").is_file():
        print(f"{base} is not a checkout with perfbench/run.py", file=sys.stderr)
        return 1
    ledgers, pairs = measure([REPO_ROOT] + ([Path(base).resolve()] if base else []),
                             SNAPSHOT_ROUNDS if args.command == "snapshot" else 1)
    if args.command == "snapshot":
        if not all(entry["correct"] for entry in ledgers[0]["workloads"].values()):
            print("refusing to bank a snapshot with incorrect runs", file=sys.stderr)
            return 1
        HISTORY_DIR.mkdir(parents=True, exist_ok=True)
        _write(next_snapshot_path(HISTORY_DIR, args.label),
               {"label": args.label, "created": time.strftime("%Y-%m-%d"), **ledgers[0]})
        return 0

    out = Path(args.out)
    _write(out, ledgers[0])
    if base:
        _write(out.with_name(out.stem + ".base.json"), ledgers[1])
        return _judge(ledgers[0], ledgers[1], pairs)
    snapshots = history_snapshots(HISTORY_DIR)
    if not snapshots:
        print(f"no snapshot under {HISTORY_DIR}; bank one with "
              "'python tools/bench_gate.py snapshot --label <label>'", file=sys.stderr)
        return 1
    return _judge(ledgers[0], json.loads(snapshots[-1].read_text()))


if __name__ == "__main__":
    raise SystemExit(main())
