"""Command-line interface: ``python -m repro <command>``.

Ten subcommands cover the everyday questions, all driving the same
session API (:mod:`repro.api`) so every command shares the parallel
runner and the two-tier persistent result cache (whole networks, then
layers -- see ``docs/caching.md``):

* ``simulate``  -- run one design on one workload and category;
* ``cost``      -- print the Table VII-style breakdown of a design;
* ``compare``   -- effective-efficiency table of several designs on one
  category (a one-line slice of Fig. 8);
* ``sweep``     -- evaluate a whole design space (Figs. 5-7) in parallel
  worker processes and print a figure-ready table plus the starred
  optimal point;
* ``run``       -- execute a declarative experiment spec (JSON), e.g. the
  checked-in Fig. 8 overall comparison;
* ``search``    -- guided design-space search (:mod:`repro.search`):
  exhaustive / random / evolutionary / surrogate-screened strategies over
  a declarative constrained space, with a Pareto archive,
  checkpoint/resume, and a multi-fidelity mode (``--fidelity multi``)
  that screens with the calibrated surrogate (see ``docs/search.md``);
* ``surrogate`` -- fit the calibrated analytical surrogate against the
  cache's exact results, or verify the committed constants against their
  error budget (see ``docs/surrogate.md``);
* ``workloads`` -- list the workload registry, validate declarative
  WorkloadSpec JSON files, and print content fingerprints (see
  ``docs/workloads.md``);
* ``serve``     -- the always-on evaluation service: one warm session
  behind an HTTP+JSON API with request coalescing (see ``docs/serve.md``);
* ``lint``      -- the AST-based invariant checker (:mod:`repro.lint`):
  determinism rules for result-affecting modules, cache-key-version drift
  detection against a committed manifest, and lock hygiene for the
  concurrent layers (see ``docs/lint.md``).  ``repro lint
  refresh-manifest`` re-records the key manifest after an acknowledged
  change.

``repro --version`` prints the toolkit version; ``repro --json-errors``
switches error reporting from the one-line ``error: ...`` stderr format
to the same JSON error envelope the server returns (``repro.errors``).

Designs parse uniformly everywhere (:func:`repro.dse.evaluate.parse_design`):
borrowing notation like ``"B(4,0,1,on)"``, ``Dense``, ``Griffin``, the
starred Table VI points (``"Sparse.B*"``), and every Table V baseline name
(``SparTen``, ``TensorDash``, ``BitTactical``, ...), all case-insensitive.
Workloads parse just as uniformly
(:func:`repro.workloads.registry.parse_workload`): every ``--network`` flag
takes a Table IV preset name (``ResNet50``), a ``name:override`` derivation
(``"BERT:weight_sparsity=0.9"``), or a path to a WorkloadSpec JSON file.

Examples::

    python -m repro simulate --arch Griffin --network ResNet50 --category DNN.B
    python -m repro simulate --arch Griffin --network examples/workloads/tinycnn.json
    python -m repro cost --arch SparTen
    python -m repro compare --category DNN.B --arch Dense --arch "B(4,0,1,on)" --arch Griffin
    python -m repro sweep --space b --workers 4
    python -m repro run examples/experiments/fig8.json --workers 4
    python -m repro search examples/experiments/search_b.json --workers 4
    python -m repro search --space b --strategy evolutionary --budget 10 --seed 14
    python -m repro workloads list
    python -m repro workloads validate examples/workloads/*.json
    python -m repro workloads fingerprint ResNet50 "BERT:weight_sparsity=0.9"
    python -m repro serve --port 8757 --workers 4
    python -m repro lint
    python -m repro lint --json --rule DET001 src/repro/sim
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Sequence

from repro import __version__
from repro.api import ExperimentSpec, Session
from repro.config import ModelCategory
from repro.errors import envelope_from_exception, error_envelope, print_error
from repro.obs import trace as obs_trace
from repro.obs.chrome import chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry, cache_metrics
from repro.obs.report import render_summary, summarize
from repro.obs.sink import read_trace, write_trace
from repro.dse.evaluate import EvalSettings, parse_design
from repro.dse.explorer import DESIGN_SPACES, design_space, space_categories, space_label
from repro.dse.report import format_table, select_optimal, sweep_rows, sweep_table
from repro.runtime.cache import CacheStats
from repro.search.space import PAPER_SPACE_NAMES, resolve_space
from repro.search.spec import FIDELITY_KINDS, SearchSpec, StrategySpec
from repro.search.strategy import STRATEGY_KINDS
from repro.sim.engine import SimulationOptions
from repro.workloads.registry import WORKLOADS, benchmark_names, parse_workload
from repro.workloads.spec import WorkloadSpec


def _category(text: str) -> ModelCategory:
    try:
        return ModelCategory.from_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _options(args: argparse.Namespace) -> SimulationOptions:
    return SimulationOptions(
        passes_per_gemm=args.passes, max_t_steps=args.max_t, seed=args.seed
    )


def _session(args: argparse.Namespace) -> Session:
    """A session configured from the shared cache/worker flags."""

    def progress(done: int, total: int) -> None:
        print(f"  evaluated {done}/{total} design points", file=sys.stderr)

    return Session(
        workers=getattr(args, "workers", 0),
        cache_dir=getattr(args, "cache_dir", None),
        use_cache=not getattr(args, "no_cache", False),
        progress=progress if getattr(args, "progress", False) else None,
    )


def _cache_line(stats: CacheStats, session: Session) -> str:
    """One unified line covering both cache tiers.

    The leading totals aggregate the network and layer tiers; the bracketed
    breakdown shows each tier's hits/misses (a warm run reads ``network
    Nh/0m, layer 0h/0m``: whole networks served in one read each, zero
    layer lookups) and the layers the in-process memo answered.  CI greps
    this format -- keep the prefix stable.
    """
    if session.cache_dir is None:
        return "persistent cache: disabled"
    return (
        f"persistent cache: {stats.hits} hits, {stats.misses} misses, "
        f"{stats.puts} puts ({100.0 * stats.hit_rate:.1f}% hit rate) "
        f"[network {stats.network_hits}h/{stats.network_misses}m, "
        f"layer {stats.layer_hits}h/{stats.layer_misses}m, memo {stats.memo_hits}h] "
        f"[{session.cache_dir}]"
    )


def _print_metrics(stats: CacheStats, extra: dict[str, float] | None = None) -> None:
    """The ``--metrics`` dump: cache counters (+ run facts) as Prometheus text."""
    registry = MetricsRegistry()
    cache_metrics(registry, stats)
    if extra:
        gauge = registry.gauge(
            "repro_cli_run", "Facts about this CLI invocation.", labelnames=("fact",)
        )
        for name, value in extra.items():
            gauge.set(value, fact=name)
    print(registry.render(), end="")


def cmd_simulate(args: argparse.Namespace) -> int:
    session = _session(args)
    design = parse_design(args.arch)
    config = design.config_for(args.category)
    result = session.simulate(args.network, design, args.category, _options(args))
    shown = design.label if design.label == config.label else (
        f"{design.label} [{config.label}]"
    )
    print(f"{result.network} on {shown} ({args.category.value}):")
    print(f"  dense cycles : {result.dense_cycles:,}")
    print(f"  cycles       : {result.cycles:,.0f}")
    print(f"  speedup      : {result.speedup:.3f}x")
    if args.layers:
        rows = [
            {
                "Layer": layer.name,
                "Cycles": f"{layer.cycles:.3g}",
                "Share%": 100 * layer.dense_cycles / result.dense_cycles,
                "Speedup": layer.speedup,
            }
            for layer in result.layers
        ]
        print(format_table(rows))
    if args.cache_stats:
        print(_cache_line(session.stats, session))
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    row = parse_design(args.arch).cost()
    print(f"{row.label}: {row.total_power_mw:.1f} mW, {row.total_area_kum2:.1f} k um^2")
    print(format_table([
        {"Component": k, "Power (mW)": round(p, 2), "Area (k um^2)": round(a, 2)}
        for (k, p), a in zip(row.power_row().items(), row.area_row().values())
    ]))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    session = _session(args)
    settings = EvalSettings(quick=not args.full, options=_options(args))
    designs = [parse_design(name) for name in args.arch]
    outcome = session.evaluate(designs, (args.category,), settings)
    rows = []
    for evaluation in outcome.evaluations:
        point = evaluation.point(args.category)
        rows.append(
            {
                "Architecture": evaluation.label,
                "Speedup": point.speedup,
                "Power (mW)": round(point.power_mw, 1),
                "TOPS/W": point.tops_per_watt,
                "TOPS/mm2": point.tops_per_mm2,
            }
        )
    print(format_table(rows, title=f"{args.category.value} comparison"))
    if args.cache_stats:
        print(_cache_line(session.stats, session))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    configs = design_space(args.space)
    if args.limit:
        configs = configs[: args.limit]
    sparse_cat, dense_cat = space_categories(args.space)
    categories = tuple(args.category) if args.category else (sparse_cat, dense_cat)

    if args.quick:
        options = SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=args.seed)
        networks = tuple(args.network) if args.network else ("BERT", "AlexNet")
    else:
        options = _options(args)
        networks = tuple(args.network) if args.network else None
    settings = EvalSettings(quick=not args.full, options=options, networks=networks)

    session = _session(args)
    outcome = session.evaluate(configs, categories, settings)

    title = (
        f"{space_label(args.space)} sweep: {len(outcome)} design points, "
        f"categories {[c.value for c in categories]}"
    )
    print(sweep_table(outcome.evaluations, categories, title=title))

    if sparse_cat in categories and dense_cat in categories and outcome.evaluations:
        star = select_optimal(outcome.evaluations, sparse_cat, dense_cat)
        print(f"optimal point ({sparse_cat.value} vs {dense_cat.value}): {star.label}")

    print(_cache_line(outcome.cache_stats, session))
    if getattr(args, "metrics", False):
        _print_metrics(
            outcome.cache_stats,
            {"design_points": len(outcome), "workers": outcome.workers},
        )

    if args.json_path:
        payload = {
            "space": args.space,
            "categories": [c.value for c in categories],
            "workers": outcome.workers,
            "rows": sweep_rows(outcome.evaluations, categories),
            "cache": outcome.cache_stats.as_dict(),
        }
        with open(args.json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json_path}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.load(args.spec)
    session = _session(args)
    result = session.run(spec, quick=args.quick or None)
    print(result.table())
    print(_cache_line(result.cache_stats, session))
    if getattr(args, "metrics", False):
        _print_metrics(
            result.cache_stats,
            {
                "design_points": len(result.outcome.evaluations),
                "workers": result.outcome.workers,
            },
        )
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"wrote {args.json_path}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    # Strategy flags the user actually passed (defaults are None so a spec
    # file's own tuning survives a partial override).
    overrides = {
        key: value
        for key, value in (
            ("kind", args.strategy),
            ("seed", args.seed),
            ("budget", args.budget),
            ("population", args.population),
        )
        if value is not None
    }
    if overrides.get("kind") == "exhaustive" and "budget" not in overrides:
        # Switching a spec to exhaustive means "the full grid": drop the
        # spec's sampling budget unless the user explicitly caps it.
        overrides["budget"] = None
    if args.fidelity == "multi":
        if overrides.get("kind") not in (None, "surrogate"):
            raise ValueError(
                f"--fidelity multi runs the surrogate-screened strategy; "
                f"it conflicts with --strategy {overrides['kind']}"
            )
        overrides["kind"] = "surrogate"
    if args.spec:
        spec = SearchSpec.load(args.spec)
        if overrides:
            # e.g. `--strategy exhaustive` reuses a spec's space/settings as
            # the ground truth a guided run is compared against (what the CI
            # smoke does); everything not overridden keeps the spec's value.
            # Fidelity follows the effective strategy kind (they are one
            # choice -- see SearchSpec).
            strategy = replace(spec.strategy, **overrides)
            spec = replace(
                spec,
                strategy=strategy,
                fidelity="multi" if strategy.kind == "surrogate" else "exact",
            )
    else:
        if not args.space:
            raise ValueError(
                "search needs a spec file (see examples/experiments/"
                "search_b.json) or --space"
            )
        strategy = StrategySpec(**{"kind": "evolutionary", **overrides})
        spec = SearchSpec(
            space=resolve_space(args.space),
            strategy=strategy,
            name=f"search-{args.space}",
            networks=tuple(args.network) if args.network else None,
            fidelity="multi" if strategy.kind == "surrogate" else "exact",
        )
    if args.fidelity == "exact" and spec.strategy.kind == "surrogate":
        raise ValueError(
            "--fidelity exact needs an exact strategy; add --strategy "
            "exhaustive, random, or evolutionary"
        )
    quick = True if args.quick else (False if args.full else None)

    session = _session(args)
    result = session.search(
        spec,
        quick=quick,
        checkpoint=args.checkpoint,
        resume=args.resume,
        surrogate=args.surrogate_path,
    )

    print(result.space.describe())
    print(f"strategy: {result.strategy}")
    print(result.table())
    star = result.optimal()
    objectives = " x ".join(result.objectives.names)
    print(f"optimal point ({objectives}): {star.label}")
    # CI greps this coverage line -- keep the prefix stable.
    print(
        f"evaluated {len(result.archive)} of {result.grid_size} feasible "
        f"configs ({100.0 * len(result.archive) / max(1, result.grid_size):.1f}%) "
        f"in {result.outcome.batches} batches"
        + (f", {result.outcome.reused} answered from checkpoint"
           if result.outcome.reused else "")
    )
    if result.fidelity == "multi":
        # CI greps this line too -- keep the prefix stable.
        print(
            f"surrogate screened {result.screened} configs; "
            f"{result.evaluated} exact evaluations confirmed the shortlist"
        )
    if args.checkpoint:
        print(f"archive checkpoint: {args.checkpoint}")
    print(_cache_line(result.cache_stats, session))
    if getattr(args, "metrics", False):
        _print_metrics(
            result.cache_stats,
            {"design_points": result.evaluated, "workers": result.workers},
        )

    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"wrote {args.json_path}")
    return 0


def cmd_surrogate(args: argparse.Namespace) -> int:
    return args.surrogate_func(args)


def cmd_surrogate_fit(args: argparse.Namespace) -> int:
    from repro.surrogate import REGIME_OPTIONS, save_constants, summary_lines

    regimes = None
    if args.regime:
        regimes = {name: REGIME_OPTIONS[name] for name in args.regime}
    session = _session(args)
    with session:
        constants = session.calibrate(
            spaces=args.space or None,
            networks=args.network or None,
            regimes=regimes,
        )
    for line in summary_lines(constants):
        print(line)
    path = save_constants(constants, args.out)
    print(f"wrote fitted surrogate constants to {path}")
    print(_cache_line(session.stats, session))
    return 0


def cmd_surrogate_check(args: argparse.Namespace) -> int:
    from repro.surrogate import check_constants, load_constants

    constants = load_constants(args.constants)
    for line in check_constants(constants):
        print(line)
    print("surrogate error budget: OK")
    return 0


def cmd_workloads_list(args: argparse.Namespace) -> int:
    records = [workload.describe() for workload in WORKLOADS]
    rows = [
        {
            "Workload": record["name"],
            "Layers": record["layers"],
            "MACs": f"{record['macs'] / 1e9:.2f}G",
            "W-sparsity": f"{record['weight_sparsity']:.0%}",
            "A-sparsity": f"{record['act_sparsity']:.0%}",
            "Fingerprint": record["fingerprint"][:12],
        }
        for record in records
    ]
    print(format_table(rows, title=f"workload registry ({len(rows)} entries)"))
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(records, handle, indent=2)
        print(f"wrote {args.json_path}")
    return 0


def cmd_workloads_validate(args: argparse.Namespace) -> int:
    """Validate WorkloadSpec JSON files: parse, round-trip, build, fingerprint."""
    failures = 0
    for path in args.paths:
        try:
            spec = WorkloadSpec.load(path)
            round_tripped = WorkloadSpec.from_dict(spec.to_dict())
            if round_tripped != spec:
                raise ValueError(
                    "spec does not round-trip through to_dict/from_dict"
                )
            workload = spec.build()
            fingerprint = workload.fingerprint
            if spec.build().fingerprint != fingerprint:
                raise ValueError("fingerprint is not a pure function of the spec")
        except (ValueError, OSError) as exc:
            failures += 1
            print(f"FAIL  {path}: {exc}", file=sys.stderr)
            continue
        network = workload.network
        print(
            f"ok    {path}: {workload.name} ({len(network.layers)} layers, "
            f"{network.macs / 1e9:.2f}G MACs, "
            f"W {workload.weight_sparsity:.0%} / A {workload.act_sparsity:.0%}) "
            f"fingerprint {fingerprint[:12]}"
        )
    if failures:
        print(f"{failures} of {len(args.paths)} spec(s) failed", file=sys.stderr)
        return 2
    print(f"all {len(args.paths)} spec(s) valid")
    return 0


def cmd_workloads_fingerprint(args: argparse.Namespace) -> int:
    for token in args.tokens:
        workload = parse_workload(token)
        print(f"{workload.fingerprint}  {workload.name}")
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    return args.wl_func(args)


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Human report of a recorded trace: critical path, top spans, cache."""
    meta, spans = read_trace(args.path)
    summary = summarize(spans, meta)
    print(render_summary(summary, top_n=args.top))
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    """Convert a trace to Chrome trace-event JSON (Perfetto-loadable)."""
    if not args.chrome:
        raise ValueError(
            "trace export needs an output format; the only one today is "
            "--chrome (Chrome trace-event JSON, loadable in Perfetto)"
        )
    meta, spans = read_trace(args.path)
    document = chrome_trace(spans, meta=meta)
    validate_chrome_trace(document)
    out = args.out or (args.path + ".chrome.json")
    with open(out, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    print(f"wrote {out} ({len(document['traceEvents'])} events)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    return args.trace_func(args)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on evaluation service until SIGINT/SIGTERM."""
    import asyncio

    from repro.serve.app import ServeApp

    session = Session(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        keep_pool=True,
    )
    app = ServeApp(
        session,
        compute_threads=args.compute_threads,
        drain_timeout=args.drain_timeout,
    )

    async def serve() -> None:
        await app.start(args.host, args.port)
        print(
            f"repro serve v{__version__} listening on "
            f"http://{args.host}:{app.port} "
            f"(workers={args.workers}, compute_threads={args.compute_threads}, "
            f"cache={'disabled' if session.cache_dir is None else session.cache_dir})",
            flush=True,
        )
        app.install_signal_handlers()
        try:
            await app.wait_for_shutdown_request()
            print("repro serve: draining in-flight work...", flush=True)
        finally:
            await app.shutdown()
            print("repro serve: stopped", flush=True)

    asyncio.run(serve())
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static invariant checker (or refresh the key manifest)."""
    from repro.lint import default_root, refresh_manifest, run_lint

    root = default_root()
    paths = list(args.paths)
    if paths and paths[0] == "refresh-manifest":
        if len(paths) > 1 or args.rules:
            raise ValueError(
                "`repro lint refresh-manifest` takes no paths or --rule flags"
            )
        manifest = refresh_manifest(root)
        versions = ", ".join(
            f"{name}={entry['key_version']}"
            for name, entry in sorted(manifest["entries"].items())
        )
        print(f"refreshed src/repro/lint/key_manifest.json ({versions})")
        return 0

    codes = {code.upper() for code in args.rules} if args.rules else None
    report = run_lint(root, paths=paths or None, codes=codes)
    if args.json:
        if report.clean:
            payload: dict = report.as_dict()
        else:
            payload = error_envelope(
                "lint-findings",
                f"{len(report.findings)} lint finding(s)",
                detail=report.as_dict(),
            )
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format())
        status = "clean" if report.clean else f"{len(report.findings)} finding(s)"
        print(
            f"repro lint: {status} "
            f"({report.files_checked} files, {report.waived} waived)"
        )
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Griffin (HPCA 2022) reproduction toolkit"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--json-errors", dest="json_errors", action="store_true",
        help="report failures as the JSON error envelope (the same shape "
             "`repro serve` returns) instead of a one-line stderr message",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--passes", type=int, default=4, help="tiles sampled per GEMM")
        p.add_argument("--max-t", dest="max_t", type=int, default=96)
        p.add_argument("--seed", type=int, default=2022)

    def cache_flags(p: argparse.ArgumentParser, stats_flag: bool = True) -> None:
        p.add_argument(
            "--cache-dir", dest="cache_dir", default=None,
            help="persistent cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
        )
        p.add_argument(
            "--no-cache", action="store_true", help="disable the persistent cache"
        )
        if stats_flag:
            p.add_argument(
                "--cache-stats", dest="cache_stats", action="store_true",
                help="print persistent-cache hit/miss statistics",
            )

    def obs_flags(p: argparse.ArgumentParser, metrics: bool = True) -> None:
        p.add_argument(
            "--trace", dest="trace_path", default=None, metavar="PATH",
            help="record a span trace of this command to PATH (JSONL; "
                 "inspect with `repro trace summarize`)",
        )
        if metrics:
            p.add_argument(
                "--metrics", action="store_true",
                help="dump run metrics as Prometheus text after the output",
            )

    workload_help = (
        f"workload token: a registry name ({', '.join(benchmark_names())}), "
        f'a name:override derivation (e.g. "BERT:weight_sparsity=0.9"), '
        f"or a WorkloadSpec JSON path"
    )

    sim = sub.add_parser("simulate", help="cycle-simulate one network on one design")
    sim.add_argument(
        "--arch", required=True,
        help='e.g. "B(4,0,1,on)", Dense, Griffin, Sparse.B*, or a baseline name',
    )
    sim.add_argument("--network", required=True, help=workload_help)
    sim.add_argument("--category", type=_category, default=ModelCategory.B)
    sim.add_argument("--layers", action="store_true", help="print per-layer table")
    cache_flags(sim)
    common(sim)
    sim.set_defaults(func=cmd_simulate)

    cost = sub.add_parser("cost", help="print a design's power/area breakdown")
    cost.add_argument(
        "--arch", required=True, help='notation, "Griffin", or a baseline name'
    )
    cost.set_defaults(func=cmd_cost)

    cmp_ = sub.add_parser("compare", help="efficiency table for several designs")
    cmp_.add_argument("--arch", action="append", required=True)
    cmp_.add_argument("--category", type=_category, default=ModelCategory.B)
    cmp_.add_argument("--full", action="store_true", help="use the full 6-net suite")
    cmp_.add_argument(
        "--workers", type=int, default=0,
        help="worker processes; 0 evaluates serially in-process",
    )
    cache_flags(cmp_)
    common(cmp_)
    cmp_.set_defaults(func=cmd_compare)

    sweep = sub.add_parser(
        "sweep",
        help="evaluate a design space in parallel with the persistent cache",
    )
    sweep.add_argument(
        "--space", choices=sorted(DESIGN_SPACES), default="b",
        help="which Fig. 5-7 space to sweep",
    )
    sweep.add_argument(
        "--category", type=_category, action="append",
        help="categories to evaluate (default: the space's sparse one + DNN.dense)",
    )
    sweep.add_argument(
        "--workers", type=int, default=0,
        help="worker processes; 0 evaluates serially in-process",
    )
    sweep.add_argument("--full", action="store_true", help="use the full 6-net suite")
    sweep.add_argument(
        "--quick", action="store_true",
        help="smoke mode: minimal sampling, BERT+AlexNet suite (overrides --passes/--max-t)",
    )
    sweep.add_argument(
        "--network", action="append",
        help=f"restrict the suite to these workloads ({workload_help})",
    )
    sweep.add_argument(
        "--limit", type=int, default=0, help="evaluate only the first N design points"
    )
    cache_flags(sweep, stats_flag=False)
    obs_flags(sweep)
    sweep.add_argument(
        "--json", dest="json_path", default=None,
        help="also write the figure-ready rows to this JSON file",
    )
    sweep.add_argument(
        "--progress", action="store_true", help="report progress on stderr"
    )
    common(sweep)
    sweep.set_defaults(func=cmd_sweep)

    run_ = sub.add_parser(
        "run", help="run a declarative experiment spec (JSON) through the session"
    )
    run_.add_argument(
        "spec", help="path to an experiment JSON (see examples/experiments/)"
    )
    run_.add_argument(
        "--workers", type=int, default=0,
        help="worker processes; 0 evaluates serially in-process",
    )
    run_.add_argument(
        "--quick", action="store_true",
        help="smoke sampling override (1 pass per GEMM, 16 time steps)",
    )
    cache_flags(run_, stats_flag=False)
    obs_flags(run_)
    run_.add_argument(
        "--json", dest="json_path", default=None,
        help="also write the figure-ready rows to this JSON file",
    )
    run_.add_argument(
        "--progress", action="store_true", help="report progress on stderr"
    )
    run_.set_defaults(func=cmd_run)

    search = sub.add_parser(
        "search",
        help="guided design-space search (constraints, strategies, Pareto "
             "archive) through the session runtime",
    )
    search.add_argument(
        "spec", nargs="?", default=None,
        help="path to a search spec JSON (see examples/experiments/"
             "search_b.json); omit to describe the search with flags",
    )
    search.add_argument(
        "--space", choices=sorted(PAPER_SPACE_NAMES), default=None,
        help="paper space preset to search when no spec file is given",
    )
    search.add_argument(
        "--strategy", choices=sorted(STRATEGY_KINDS), default=None,
        help="search strategy (default: evolutionary; overrides a spec "
             "file's strategy when given)",
    )
    search.add_argument(
        "--budget", type=int, default=None,
        help="evaluation budget (required for random/evolutionary)",
    )
    search.add_argument(
        "--seed", type=int, default=None,
        help="strategy seed (deterministic; default 2022, or the spec's)",
    )
    search.add_argument(
        "--population", type=int, default=None,
        help="evolutionary generation-zero population size "
             "(default 8, or the spec's)",
    )
    search.add_argument(
        "--fidelity", choices=sorted(FIDELITY_KINDS), default=None,
        help="evaluation fidelity: 'multi' screens the whole space with the "
             "calibrated surrogate and exact-confirms only the predicted "
             "shortlist (same choice as --strategy surrogate)",
    )
    search.add_argument(
        "--surrogate", dest="surrogate_path", default=None,
        help="fitted surrogate constants for multi-fidelity runs "
             "(default: the committed golden)",
    )
    search.add_argument(
        "--network", action="append",
        help=f"restrict the evaluation suite to these workloads (flag mode; "
             f"{workload_help})",
    )
    search.add_argument(
        "--quick", action="store_true",
        help="smoke sampling override (1 pass per GEMM, 16 time steps)",
    )
    search.add_argument(
        "--full", action="store_true", help="force the full six-network suite"
    )
    search.add_argument(
        "--workers", type=int, default=0,
        help="worker processes; 0 evaluates serially in-process",
    )
    search.add_argument(
        "--checkpoint", default=None,
        help="JSON file the Pareto archive is saved to after every batch",
    )
    search.add_argument(
        "--resume", action="store_true",
        help="seed the archive from --checkpoint if it exists "
             "(recorded designs are not re-evaluated)",
    )
    cache_flags(search, stats_flag=False)
    obs_flags(search)
    search.add_argument(
        "--json", dest="json_path", default=None,
        help="also write the archive/front payload to this JSON file",
    )
    search.add_argument(
        "--progress", action="store_true", help="report progress on stderr"
    )
    search.set_defaults(func=cmd_search)

    wl = sub.add_parser(
        "workloads",
        help="list the workload registry, validate WorkloadSpec JSON files, "
             "or print content fingerprints",
    )
    wl_sub = wl.add_subparsers(dest="wl_command", required=True)
    wl_list = wl_sub.add_parser(
        "list", help="table of every registered workload with its fingerprint"
    )
    wl_list.add_argument(
        "--json", dest="json_path", default=None,
        help="also write the registry rows to this JSON file",
    )
    wl_list.set_defaults(func=cmd_workloads, wl_func=cmd_workloads_list)
    wl_validate = wl_sub.add_parser(
        "validate",
        help="parse, round-trip, and build WorkloadSpec JSON files "
             "(exit 2 on any failure)",
    )
    wl_validate.add_argument(
        "paths", nargs="+", help="WorkloadSpec JSON files to validate"
    )
    wl_validate.set_defaults(func=cmd_workloads, wl_func=cmd_workloads_validate)
    wl_fp = wl_sub.add_parser(
        "fingerprint",
        help="print the stable content fingerprint of workload tokens",
    )
    wl_fp.add_argument(
        "tokens", nargs="+", metavar="token",
        help="workload tokens (names, name:override, or spec paths)",
    )
    wl_fp.set_defaults(func=cmd_workloads, wl_func=cmd_workloads_fingerprint)

    surrogate = sub.add_parser(
        "surrogate",
        help="calibrated analytical surrogate: fit constants against exact "
             "cached results or verify the committed golden's error budget "
             "(docs/surrogate.md)",
    )
    sur_sub = surrogate.add_subparsers(dest="surrogate_command", required=True)
    sur_fit = sur_sub.add_parser(
        "fit",
        help="build the calibration corpus through the session (warm cache "
             "entries are read back, missing ones simulated) and fit the "
             "correction constants deterministically",
    )
    sur_fit.add_argument(
        "--space", action="append", choices=sorted(PAPER_SPACE_NAMES),
        help="restrict the corpus to these paper spaces (default: all)",
    )
    sur_fit.add_argument(
        "--network", action="append",
        help="restrict the corpus to these Table IV workloads by name "
             "(default: the full suite)",
    )
    sur_fit.add_argument(
        "--regime", action="append", choices=["default", "quick"],
        help="restrict the corpus to these sampling regimes (default: both)",
    )
    sur_fit.add_argument(
        "--out", default=None,
        help="constants file to write (default: the committed golden)",
    )
    sur_fit.add_argument(
        "--workers", type=int, default=0,
        help="worker processes; 0 evaluates serially in-process",
    )
    cache_flags(sur_fit, stats_flag=False)
    sur_fit.add_argument(
        "--progress", action="store_true", help="report progress on stderr"
    )
    sur_fit.set_defaults(func=cmd_surrogate, surrogate_func=cmd_surrogate_fit)
    sur_check = sur_sub.add_parser(
        "check",
        help="re-derive every recorded calibration error from the fitted "
             "constants (no simulation) and enforce the error budget "
             "(exit 2 on breach or on stale constants)",
    )
    sur_check.add_argument(
        "--constants", default=None,
        help="constants file to verify (default: the committed golden)",
    )
    sur_check.set_defaults(
        func=cmd_surrogate, surrogate_func=cmd_surrogate_check
    )

    serve = sub.add_parser(
        "serve",
        help="always-on evaluation service: one warm session behind an "
             "HTTP+JSON API with request coalescing (docs/serve.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8757,
        help="TCP port (default 8757; 0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="session worker processes; 0 evaluates serially in-process",
    )
    serve.add_argument(
        "--compute-threads", dest="compute_threads", type=int, default=4,
        help="evaluation requests served concurrently (default 4)",
    )
    serve.add_argument(
        "--drain-timeout", dest="drain_timeout", type=float, default=30.0,
        help="seconds graceful shutdown waits for in-flight work (default 30)",
    )
    cache_flags(serve, stats_flag=False)
    obs_flags(serve, metrics=False)
    serve.set_defaults(func=cmd_serve)

    trace = sub.add_parser(
        "trace",
        help="inspect a recorded span trace: summarize it or export Chrome "
             "trace-event JSON (docs/observability.md)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_sum = trace_sub.add_parser(
        "summarize",
        help="print the critical path, top spans by self time, and the "
             "cache-span breakdown of a trace",
    )
    trace_sum.add_argument("path", help="trace file (JSONL or Chrome JSON)")
    trace_sum.add_argument(
        "--top", type=int, default=10, help="rows in the top-spans table"
    )
    trace_sum.add_argument(
        "--json", dest="json_path", default=None,
        help="also write the summary payload to this JSON file",
    )
    trace_sum.set_defaults(func=cmd_trace, trace_func=cmd_trace_summarize)
    trace_exp = trace_sub.add_parser(
        "export",
        help="convert a JSONL trace to another format (only --chrome today)",
    )
    trace_exp.add_argument("path", help="trace file (JSONL)")
    trace_exp.add_argument(
        "--chrome", action="store_true",
        help="write Chrome trace-event JSON (load in Perfetto or "
             "chrome://tracing)",
    )
    trace_exp.add_argument(
        "--out", default=None,
        help="output path (default: <trace>.chrome.json)",
    )
    trace_exp.set_defaults(func=cmd_trace, trace_func=cmd_trace_export)

    lint = sub.add_parser(
        "lint",
        help="run the AST-based invariant checker (determinism, key-version "
             "drift, lock hygiene -- docs/lint.md); `repro lint "
             "refresh-manifest` re-records the key manifest",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the whole src/ tree); "
             "the special first token `refresh-manifest` recomputes "
             "src/repro/lint/key_manifest.json instead",
    )
    lint.add_argument(
        "--rule", dest="rules", action="append", default=[], metavar="CODE",
        help="restrict to one rule code (repeatable), e.g. --rule DET001",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit machine-readable findings (the repro.errors envelope "
             "with the full report as detail; plain report when clean)",
    )
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace_path", None)
    tracer = obs_trace.Tracer() if trace_path else None
    previous = obs_trace.set_tracer(tracer) if tracer is not None else None
    try:
        # The error envelope is built inside this block, while the tracer is
        # still installed, so a traced failure carries its trace_id.
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print_error(
                envelope_from_exception(exc),
                as_json=getattr(args, "json_errors", False),
            )
            return 2
    finally:
        if tracer is not None:
            obs_trace.set_tracer(previous)
            count = write_trace(
                tracer, trace_path, meta={"command": args.command}
            )
            # stderr: stdout stays exactly what an untraced run prints.
            print(
                f"wrote trace {trace_path} ({count} spans, "
                f"trace id {tracer.trace_id})",
                file=sys.stderr,
            )


if __name__ == "__main__":
    raise SystemExit(main())
