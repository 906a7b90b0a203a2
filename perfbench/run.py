"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 20 --trace 0

Workloads: ``fig8-cold``, ``search-ab-wide``, ``serve-warm`` (see
``BENCHMARK.json``).  ``--trace 0`` prints the end-to-end metrics of
untraced runs; ``--trace 1`` prints per-layer metrics from a traced run
next to an untraced run of the same seed.  The next-to-last output line
is a JSON record of the host and the inputs; the last is the result.
``--setup-only`` performs one set-up of a batch workload and exits (the
batch workloads time several of these to measure ``setup_s``;
serve-warm times its server set-ups in the run itself).
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no src/repro package under {ROOT}; run from a full checkout")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

_start = perf_counter()
import repro.api  # noqa: E402,F401

IMPORT_S = perf_counter() - _start

from perfbench import harness, serve_load  # noqa: E402
from perfbench.workloads import FIG8_COLD, SEARCH_AB_WIDE, BatchWorkload  # noqa: E402

WORKLOADS = {
    "fig8-cold": FIG8_COLD,
    "search-ab-wide": SEARCH_AB_WIDE,
    "serve-warm": serve_load,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.setup_only and not isinstance(workload, BatchWorkload):
        parser.error("--setup-only applies to the batch workloads only")
    with harness.workdir() as work:
        if args.setup_only:
            workload.setup(args.seed, work)
            return 0
        load_start = harness.loadavg()
        if args.trace:
            outcome = workload.trace(args.seed, work)
            outcome.metrics["startup.import_s"] = IMPORT_S
        else:
            outcome = workload.measure(args.seed, args.seconds, work)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(harness.environment(), loadavg_start=load_start,
                    loadavg_end=harness.loadavg()),
        "inputs": outcome.detail,
    }
    print(json.dumps(record))
    print(harness.result_line(outcome.attempted, outcome.failed, outcome.metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
