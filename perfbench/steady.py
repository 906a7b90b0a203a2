"""Steadiness proof: two interleaved sets of runs, compared metric by metric.

    python3 perfbench/steady.py --runs 10

Run ``i`` of each of the two sets uses seed ``i + 1``.  The sets are
interleaved (set A run 1, set B run 1, set A run 2, ...), so host drift
lands on both sets instead of on one.  For every workload and end-to-end
metric of ``BENCHMARK.json`` it prints each set's median and quartiles,
the spread (quartile distance over the median), how much worse the second
set's median is than the first's, and the metric's bound.  A metric
fails when its spread exceeds its bound (``SPREAD``) or when the two
medians differ by more than the bound in either direction (``DRIFT``).
The spread of ``setup_s`` is printed but exempt, as in the benchmark's
acceptance rule; its set-to-set difference is checked like every other
metric's.  A metric is steady when every spread is under a third of its
bound.  Every run's metrics go to standard error as they finish.  Exit
status 1 means some metric or run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SETS = "AB"
#: End-to-end metrics whose spread is reported but not judged.
SPREAD_EXEMPT = {"setup_s"}


def run_once(workload: str, seed: int, seconds: int) -> dict | None:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "env": record["env"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    results: dict = {w: [[] for _ in SETS] for w in workloads}
    failed = 0
    for index in range(args.runs):
        for which, label in enumerate(SETS):
            for workload in workloads:
                out = run_once(workload, index + 1, bench["run_seconds"])
                if out is None or not out["correct"]:
                    failed += 1
                    print(f"{workload} set {label} seed {index + 1}: FAILED",
                          file=sys.stderr)
                    continue
                results[workload][which].append(out)
                print(f"{workload} set {label} seed {index + 1}: "
                      f"{json.dumps(out['metrics'])} load {out['env']['loadavg_end']}",
                      file=sys.stderr, flush=True)

    print(f"{'workload':15} {'metric':15} {'set':3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'worse':>7} {'bound':>6} verdict")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for which, runs in enumerate(results[workload]):
                values = [run["metrics"][name] for run in runs]
                if len(values) < 2:
                    print(f"{workload:15} {name:15} too few runs")
                    failed += 1
                    break
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                worse = ""
                verdict = "steady" if spread < bound / 3 else "ok"
                if spread > bound:
                    verdict = "exempt" if name in SPREAD_EXEMPT else "SPREAD"
                if which == 1:
                    base = medians[0]
                    delta = (med - base) / base if metric["better"] == "lower" \
                        else (base - med) / base
                    worse = f"{delta:+.3f}"
                    if abs(delta) > bound:
                        verdict = "DRIFT"
                failed += verdict in ("SPREAD", "DRIFT")
                print(f"{workload:15} {name:15} {SETS[which]:3} {med:11.5g} "
                      f"{q1:11.5g} {q3:11.5g} {spread:7.3f} {worse:>7} "
                      f"{bound:6.2f} {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
