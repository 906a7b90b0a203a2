"""Unified session/experiment API: one evaluation path for every design.

:class:`Session` is the facade over the whole toolkit.  It owns the
two-tier persistent result cache (whole networks, then layers -- see
``docs/caching.md``) and, when asked to keep one warm, the worker process
pool, and passes its store and memos to the engine explicitly on every
call: the engine keeps no state, so two sessions in one process never
share either, and each call's cache counts are exactly its own.  Any
design -- a borrowing :class:`~repro.config.ArchConfig`, the hybrid
:class:`~repro.config.GriffinArch`, a calibrated
:class:`~repro.baselines.registry.BaselineArch` row, or a name understood
by :func:`~repro.dse.evaluate.parse_design` -- evaluates through the same
batched, cache-backed ``session.evaluate(designs, categories, settings)``
call, fanning out over worker processes exactly like ``repro sweep``::

    from repro.api import Session
    from repro.config import ModelCategory

    session = Session(workers=4)
    outcome = session.evaluate(
        ["Dense", "Sparse.B*", "Griffin", "SparTen"],
        (ModelCategory.B, ModelCategory.DENSE),
    )
    for ev in outcome.evaluations:
        print(ev.label, ev.point(ModelCategory.B).tops_per_watt)
    # A repeated run answers from the network tier: one read per network,
    # zero layer simulations.
    print(outcome.cache_stats.network_hits, outcome.cache_stats.layer_lookups)

:class:`ExperimentSpec` is the declarative counterpart: a dict / JSON
description of designs + categories + sampling that can express any of the
paper's Fig. 5-8 / Table VI experiments and runs via
``repro run experiment.json`` or :meth:`Session.run`::

    {
      "name": "fig8",
      "designs": ["Baseline", "Sparse.B*", "Griffin", "SparTen"],
      "categories": ["DNN.dense", "DNN.B", "DNN.A", "DNN.AB"],
      "options": {"passes_per_gemm": 3, "max_t_steps": 64}
    }

:meth:`Session.search` extends the same machinery from fixed design lists
to *guided* design-space search (:mod:`repro.search`): a declarative
:class:`~repro.search.spec.SearchSpec` (or a space + strategy pair) runs
through the batched ask/tell loop, every candidate evaluation fanning out
over the pool and landing in the persistent cache, with the Pareto front
archived and checkpointable -- see ``docs/search.md``.

The pre-1.0 functions ``evaluate_arch`` / ``evaluate_griffin`` were
removed in v2.0 after a deprecation cycle; the migration table lives in
``docs/architecture.md``.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

from repro.config import ModelCategory
from repro.dse.evaluate import (
    Design,
    DesignEvaluation,
    DesignLike,
    EvalSettings,
    as_design,
    evaluate_design,
    parse_design,
)
from repro.dse.explorer import design_space, space_categories
from repro.dse.report import format_table, sweep_rows
from repro.hw.cost import CostBreakdown
from repro.obs import trace as obs
from repro.runtime.cache import (
    CacheStats,
    NetworkTierProbe,
    PersistentLayerCache,
    ProbeMiss,
    default_cache_dir,
)
from repro.runtime.runner import (
    ProgressFn,
    SweepOutcome,
    evaluate_in_pool,
    evaluate_in_process,
    worker_pool,
)
from repro.runtime.search import SearchLoopOutcome, run_search_loop
from repro.search.archive import ParetoArchive, SearchRecord
from repro.search.objectives import ObjectiveSet
from repro.search.space import SearchSpace, resolve_space
from repro.search.spec import SPEC_DEFAULT_OPTIONS, SearchSpec
from repro.search.strategy import (
    ExhaustiveSearch,
    SearchStrategy,
    SurrogateScreenedSearch,
)
from repro.sim.engine import EvalContext, NetworkSimResult, SimulationOptions, simulate_network
from repro.workloads.models import Network
from repro.workloads.registry import (
    Workload,
    WorkloadLike,
    anchor_workload_tokens,
    parse_workload,
)

_SPEC_KEYS = {"name", "title", "designs", "space", "categories", "quick",
              "networks", "options"}


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment (any Fig. 5-8 panel).

    ``designs`` are names resolved by
    :func:`~repro.dse.evaluate.parse_design`; ``space`` optionally expands
    a whole Fig. 5-7 sweep space (``"a"`` / ``"b"`` / ``"ab"``) in front of
    them.  ``categories`` default to the space's (sparse, dense) pair, or
    to all four Table I categories for a plain design list.  ``quick``
    picks the three-benchmark suite (the default) versus the full Table IV
    six; ``networks`` replaces the suite explicitly -- each entry is any
    workload token :func:`~repro.workloads.registry.parse_workload`
    accepts: a preset name (``"BERT"``), a ``name:override`` derivation
    (``"BERT:weight_sparsity=0.9"``), or a path to a declarative
    WorkloadSpec JSON file (resolved relative to the spec file when loaded
    with :meth:`load`; see ``docs/workloads.md``).
    """

    name: str = "experiment"
    title: str = ""
    designs: tuple[str, ...] = ()
    space: str | None = None
    categories: tuple[str, ...] = ()
    quick: bool = True
    networks: tuple[str, ...] | None = None
    options: SimulationOptions = field(
        default_factory=lambda: SimulationOptions(**SPEC_DEFAULT_OPTIONS)
    )

    @staticmethod
    def from_dict(data: Mapping) -> "ExperimentSpec":
        """Build and validate a spec from a plain mapping (JSON shape)."""
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise ValueError(
                f"unknown experiment keys {sorted(unknown)}; "
                f"accepted: {sorted(_SPEC_KEYS)}"
            )
        networks = data.get("networks")
        spec = ExperimentSpec(
            name=str(data.get("name", "experiment")),
            title=str(data.get("title", "")),
            designs=tuple(str(d) for d in data.get("designs") or ()),
            space=str(data["space"]) if data.get("space") else None,
            categories=tuple(str(c) for c in data.get("categories") or ()),
            quick=bool(data.get("quick", True)),
            networks=tuple(str(n) for n in networks) if networks else None,
            options=SimulationOptions.from_dict(
                dict(data.get("options") or {}), defaults=SPEC_DEFAULT_OPTIONS
            ),
        )
        if not spec.designs and spec.space is None:
            raise ValueError("experiment spec needs 'designs' and/or 'space'")
        # Fail fast on bad design/category/space/workload names, before
        # simulating.
        spec.resolve_designs()
        spec.resolve_categories()
        spec.resolve_networks()
        return spec

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        return ExperimentSpec.from_dict(json.loads(text))

    @staticmethod
    def load(path: str | os.PathLike) -> "ExperimentSpec":
        """Read a spec from a JSON file (the ``repro run`` input).

        Relative WorkloadSpec paths in ``networks`` are resolved against
        the spec file's directory, so a spec can name a workload JSON that
        lives next to it regardless of the working directory.
        """
        data = json.loads(Path(path).read_text())
        if isinstance(data, Mapping) and data.get("networks"):
            data = dict(data)
            data["networks"] = anchor_workload_tokens(
                data["networks"], Path(path).parent
            )
        return ExperimentSpec.from_dict(data)

    @staticmethod
    def coerce(
        spec: "ExperimentSpec | Mapping | str | os.PathLike",
    ) -> "ExperimentSpec":
        """Accept a spec object, a dict, or a path to a JSON file."""
        if isinstance(spec, ExperimentSpec):
            return spec
        if isinstance(spec, Mapping):
            return ExperimentSpec.from_dict(spec)
        return ExperimentSpec.load(spec)

    def to_dict(self) -> dict:
        """JSON-serializable form; ``from_dict`` round-trips it."""
        return {
            "name": self.name,
            "title": self.title,
            "designs": list(self.designs),
            "space": self.space,
            "categories": list(self.categories),
            "quick": self.quick,
            "networks": list(self.networks) if self.networks else None,
            "options": self.options.to_dict(),
        }

    def resolve_designs(self) -> list[Design]:
        """The design list: the expanded space (if any) plus named designs."""
        designs: list[Design] = []
        if self.space is not None:
            designs.extend(as_design(config) for config in design_space(self.space))
        designs.extend(parse_design(name) for name in self.designs)
        return designs

    def resolve_categories(self) -> tuple[ModelCategory, ...]:
        return self._categories  # resolved once per spec object

    @cached_property
    def _categories(self) -> tuple[ModelCategory, ...]:
        if self.categories:
            return tuple(ModelCategory.from_text(c) for c in self.categories)
        if self.space is not None:
            return space_categories(self.space)
        return (ModelCategory.DENSE, ModelCategory.B, ModelCategory.A,
                ModelCategory.AB)

    def resolve_networks(self) -> tuple[Workload, ...] | None:
        """The evaluation suite as resolved workloads (``None`` = default)."""
        if self.networks is None:
            return None
        return tuple(parse_workload(token) for token in self.networks)

    def eval_settings(self, quick: bool | None = None) -> EvalSettings:
        """The spec's :class:`EvalSettings`.

        ``quick`` overrides the spec: ``True`` forces smoke sampling (one
        pass per GEMM, 16 time steps) on top of the quick suite -- what
        ``repro run --quick`` and the CI examples job use; ``False``
        forces the full six-network Table IV suite with the spec's
        sampling options; ``None`` runs the spec as written.
        """
        if quick is None:
            return EvalSettings(
                quick=self.quick, options=self.options, networks=self.networks
            )
        if quick:
            options = replace(self.options, passes_per_gemm=1, max_t_steps=16)
            return EvalSettings(quick=True, options=options, networks=self.networks)
        return EvalSettings(quick=False, options=self.options, networks=self.networks)


@dataclass(frozen=True)
class ExperimentResult:
    """Evaluations and bookkeeping of one :meth:`Session.run`."""

    spec: ExperimentSpec
    categories: tuple[ModelCategory, ...]
    outcome: SweepOutcome

    @property
    def evaluations(self) -> tuple[DesignEvaluation, ...]:
        return self.outcome.evaluations

    @property
    def cache_stats(self) -> CacheStats:
        return self.outcome.cache_stats

    def rows(self) -> list[dict[str, object]]:
        """Figure-ready rows (one per design, metrics per category)."""
        return sweep_rows(self.evaluations, self.categories)

    def table(self) -> str:
        """The experiment as an aligned ASCII table."""
        return format_table(self.rows(), title=self.spec.title or self.spec.name)

    def to_dict(self) -> dict:
        """JSON payload for ``repro run --json``."""
        return {
            "experiment": self.spec.name,
            "categories": [c.value for c in self.categories],
            "workers": self.outcome.workers,
            "rows": self.rows(),
            "cache": self.cache_stats.as_dict(),
        }


@dataclass(frozen=True)
class SearchResult:
    """Archive and bookkeeping of one :meth:`Session.search` run.

    The archive holds every evaluated design with its score vector and
    full evaluation; :meth:`optimal` applies the paper's product-of-scores
    compromise rule over the Pareto front (for the default objectives this
    is exactly the Table VI starred-point selection of
    :func:`repro.dse.report.select_optimal`).
    """

    name: str
    space: SearchSpace
    strategy: str
    objectives: ObjectiveSet
    outcome: SearchLoopOutcome
    workers: int
    grid_size: int
    title: str = ""
    fidelity: str = "exact"

    @property
    def archive(self) -> ParetoArchive:
        return self.outcome.archive

    @property
    def cache_stats(self) -> CacheStats:
        return self.outcome.cache_stats

    @property
    def evaluated(self) -> int:
        """Fresh evaluations this run (excludes archive replays)."""
        return self.outcome.evaluated

    @property
    def screened(self) -> int:
        """Configs scored by the surrogate (multi-fidelity runs only)."""
        return self.outcome.screened

    def front(self) -> list[SearchRecord]:
        return self.archive.front()

    def optimal(self) -> SearchRecord:
        """The starred point: product rule over the Pareto front."""
        return self.archive.best(self.objectives.scalar)

    def rows(self, front_only: bool = True) -> list[dict[str, object]]:
        """Figure-ready rows: one per (front) record, scores per objective."""
        records = self.front() if front_only else list(self.archive)
        rows: list[dict[str, object]] = []
        for record in records:
            row: dict[str, object] = {"Config": record.label}
            for objective, score in zip(self.objectives, record.scores):
                row[objective.name] = score
            row["on front"] = self.archive.on_front(record.key)
            rows.append(row)
        return rows

    def table(self) -> str:
        """The Pareto front as an aligned ASCII table."""
        coverage = (
            f"{len(self.archive)} of {self.grid_size} feasible designs "
            f"({100.0 * len(self.archive) / max(1, self.grid_size):.1f}%)"
        )
        title = (
            f"{self.title or self.name} [{self.strategy}]: "
            f"Pareto front after evaluating {coverage}"
        )
        return format_table(self.rows(), title=title)

    def to_dict(self) -> dict:
        """JSON payload for ``repro search --json``."""
        return {
            "search": self.name,
            "space": self.space.to_dict(),
            "strategy": self.strategy,
            "objectives": list(self.objectives.names),
            "grid_size": self.grid_size,
            "fidelity": self.fidelity,
            "screened": self.screened,
            "evaluations": len(self.archive),
            "fresh_evaluations": self.evaluated,
            "reused": self.outcome.reused,
            "batches": self.outcome.batches,
            "workers": self.workers,
            "optimal": self.optimal().to_dict(),
            "front": [record.to_dict() for record in self.front()],
            "cache": self.cache_stats.as_dict(),
        }


def _resolve_surrogate(surrogate):
    """Coerce the ``surrogate=`` argument into a loaded model.

    Accepts a ready model, a fitted constants document, or a path to one;
    ``None`` loads the committed golden (which also version-checks it
    against the running engine).
    """
    from repro.surrogate import SurrogateConstants, SurrogateModel

    if isinstance(surrogate, SurrogateModel):
        return surrogate
    if isinstance(surrogate, SurrogateConstants):
        return SurrogateModel(surrogate)
    return SurrogateModel.load(surrogate)


class Session:
    """One evaluation path for configs, Griffin, and baselines.

    Args:
        workers: process count for :meth:`evaluate`; ``0`` or ``1``
            runs the network tasks in this process (still through the
            cache, with one background thread drawing the sampled passes).
        cache_dir: root of the two-tier persistent cache; ``None`` picks
            ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
        use_cache: ``False`` evaluates without a persistent cache.
        settings: default :class:`EvalSettings` for calls that omit them.
        progress: optional ``(done, total)`` callback (every evaluating
            method also takes a per-call ``progress=`` override, so
            concurrent callers can each observe their own run).
        keep_pool: keep one warm worker process pool alive across calls
            instead of spinning one up per ``evaluate`` -- what a
            long-lived ``repro serve`` session uses.  Call :meth:`close`
            (or use the session as a context manager) to release the
            pool; a later call recreates it.

    The session's :class:`~repro.sim.engine.EvalContext` holds the layer
    and sampled-pass memos its in-process calls share; a fresh session is
    cold.  Every call passes the engine that context on its own
    :class:`PersistentLayerCache` handle, so the call's ``cache_stats``
    count exactly its own activity (unified across the network and layer
    tiers; per-tier shares in ``network_hits`` / ``layer_hits`` and
    friends; memo answers in ``memo_hits``).  :attr:`stats` is the sum
    over all of the session's calls.

    A session is safe to share across threads (the ``repro serve``
    deployment: one warm session answering many concurrent requests):
    overlapping calls count into their own handles, and their sums fold
    into :attr:`stats` under a lock.
    """

    def __init__(
        self,
        workers: int = 0,
        cache_dir: str | os.PathLike | None = None,
        use_cache: bool = True,
        settings: EvalSettings | None = None,
        progress: ProgressFn | None = None,
        keep_pool: bool = False,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if use_cache not in (True, False):
            raise ValueError(f"use_cache must be True or False, got {use_cache!r}")
        self.workers = workers
        self.settings = settings or EvalSettings()
        self.progress = progress
        self.keep_pool = keep_pool
        self._stats = CacheStats()
        self.cache_dir: str | None = (
            str(cache_dir if cache_dir is not None else default_cache_dir())
            if use_cache
            else None
        )
        self._state_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._context = EvalContext()

    @property
    def stats(self) -> CacheStats:
        """Cache activity summed over all of this session's calls (a copy)."""
        with self._state_lock:
            return self._stats.snapshot()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self, wait: bool = True) -> None:
        """Release the warm worker pool, if one is alive (idempotent).

        Only meaningful with ``keep_pool=True``; a later ``evaluate``
        lazily recreates the pool, so a closed session stays usable.
        ``wait=False`` cancels queued tasks and returns without joining
        running ones -- the ``repro serve`` shutdown path after a
        timed-out drain, where joining would block on a still-running
        evaluation.
        """
        with self._state_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=not wait)

    def _open_cache(
        self, probe: bool = False, keys: dict[tuple, tuple] | None = None
    ) -> tuple[EvalContext, CacheStats]:
        """The session's context on a new handle on its store (``probe``:
        a :class:`NetworkTierProbe`) with the call's network-key map
        ``keys``, and the handle's counters."""
        if self.cache_dir is None:
            return self._context, CacheStats()
        cache = (NetworkTierProbe if probe else PersistentLayerCache)(self.cache_dir)
        return replace(self._context, store=cache, keys=keys), cache.stats

    def _record(self, stats: CacheStats) -> None:
        """Fold one call's cache counts into the session totals."""
        with self._state_lock:
            self._stats.merge(stats)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The session's warm worker pool (``keep_pool``), started on
        first use."""
        with self._state_lock:
            if self._pool is None:
                self._pool = worker_pool(self.workers)
            return self._pool

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------

    def evaluate(
        self,
        designs: Sequence[DesignLike],
        categories: Sequence[ModelCategory],
        settings: EvalSettings | None = None,
        networks: Sequence[WorkloadLike] | None = None,
        progress: ProgressFn | None = None,
    ) -> SweepOutcome:
        """Evaluate every design on every category, order-preserving.

        Warm designs are answered from the network tier in this process.
        The cold ones run as one task per network: in this process with
        ``workers <= 1``, else fanned out over a process pool (the
        session's warm one under ``keep_pool=True``, else one for this
        call).  Results are bitwise-identical either way, and all paths
        share the session's persistent cache directory.

        ``networks`` replaces the evaluation suite for this call: any mix
        of workload tokens (preset or registered names, ``name:override``
        derivations, WorkloadSpec JSON paths) and
        :class:`~repro.workloads.registry.Workload` objects.  Each
        category's suite is resolved once per call, in this process, and
        the pool gets the built networks.

        ``progress`` overrides the session-wide callback for this call
        only (how ``repro serve`` streams per-request progress).
        """
        resolved = tuple(as_design(design) for design in designs)
        categories = tuple(categories)
        settings = settings or self.settings
        progress = progress if progress is not None else self.progress
        if networks is not None:
            settings = replace(settings, networks=tuple(networks))
        if not resolved:
            return SweepOutcome((), CacheStats(), self.workers, 0)
        with obs.ACTIVE.span(
            "session.evaluate",
            designs=len(resolved),
            categories=len(categories),
            workers=self.workers,
        ):
            return self._evaluate(resolved, categories, settings, progress)

    def _evaluate(
        self,
        designs: tuple[Design, ...],
        categories: tuple[ModelCategory, ...],
        settings: EvalSettings,
        progress: ProgressFn | None,
    ) -> SweepOutcome:
        """Warm designs from the network tier, then the rest as network tasks.

        Each design first runs against a :class:`NetworkTierProbe`, which
        answers network-tier hits and raises on the first miss: a warm
        design costs a key hash and a read per network.  The cold rest run
        as network tasks: :func:`~repro.runtime.runner.evaluate_in_process`
        with ``workers <= 1``, else
        :func:`~repro.runtime.runner.evaluate_in_pool`.  Both
        redo their lookups, so a probe's counts join the call's only if
        its design completed, and stats are equal for any worker count.
        The probe and an in-process run share one network-key map, so a
        cold design's missed key is hashed once.
        """
        suites = settings.suites(categories)  # once per call
        keys: dict[tuple, tuple] = {}
        stats = CacheStats()
        results: list[DesignEvaluation | None] = [None] * len(designs)
        cold: list[int] = []
        chunks = 0
        try:
            for index, design in enumerate(designs):
                if self.cache_dir is None:
                    cold.append(index)
                    continue
                context, counts = self._open_cache(probe=True, keys=keys)
                with obs.ACTIVE.span(
                    "evaluate.design", index=index, design=design.label
                ) as span:
                    try:
                        results[index] = evaluate_design(
                            design, categories, settings, context, suites
                        )
                    except ProbeMiss:
                        span.set(probe="miss")
                        cold.append(index)
                        continue
                    stats.merge(counts)
                if progress is not None:
                    progress(index + 1 - len(cold), len(designs))
            if cold:
                warm = len(designs) - len(cold)
                tick = progress and (lambda done, _: progress(warm + done, len(designs)))
                cold_designs = [designs[i] for i in cold]
                if self.workers > 1:
                    outcome = evaluate_in_pool(
                        self._ensure_pool() if self.keep_pool else None,
                        self.workers, self.cache_dir, cold_designs, categories,
                        settings.options, suites, tick,
                    )
                    stats.merge(outcome.cache_stats)
                    evaluations, chunks = outcome.evaluations, outcome.chunks
                else:
                    context, counts = self._open_cache(keys=keys)
                    try:
                        evaluations = evaluate_in_process(
                            cold_designs, categories, settings.options, suites, context, tick
                        )
                    finally:
                        stats.merge(counts)
                for index, evaluation in zip(cold, evaluations):
                    results[index] = evaluation
        finally:
            self._record(stats)
        return SweepOutcome(tuple(results), stats, self.workers, chunks)

    def evaluate_one(
        self,
        design: DesignLike,
        categories: Sequence[ModelCategory],
        settings: EvalSettings | None = None,
    ) -> DesignEvaluation:
        """Evaluate a single design, as :meth:`evaluate` does."""
        return self.evaluate([design], categories, settings).evaluations[0]

    def simulate(
        self,
        network: WorkloadLike,
        design: DesignLike,
        category: ModelCategory,
        options: SimulationOptions | None = None,
    ) -> NetworkSimResult:
        """Cycle-simulate one network on one design, through the cache.

        ``network`` is any workload token
        (:func:`~repro.workloads.registry.parse_workload`): a preset name,
        a ``name:override`` derivation, a WorkloadSpec JSON path, or a
        :class:`~repro.workloads.registry.Workload` / :class:`Network`
        object; the design's category-specific configuration is used
        (Griffin morphs).
        """
        net = network if isinstance(network, Network) else parse_workload(network).network
        config = as_design(design).config_for(category)
        context, stats = self._open_cache()
        with obs.ACTIVE.span(
            "session.simulate", network=net.name, category=category.value
        ):
            try:
                return simulate_network(net, config, category, options, cache=context)
            finally:
                self._record(stats)

    def cost(self, design: DesignLike) -> CostBreakdown:
        """The Table VII-style cost row of any design."""
        return as_design(design).cost()

    def run(
        self,
        spec: "ExperimentSpec | Mapping | str | os.PathLike",
        quick: bool | None = None,
        progress: ProgressFn | None = None,
    ) -> ExperimentResult:
        """Run a declarative experiment (spec object, dict, or JSON path).

        ``quick`` overrides the spec's sampling (see
        :meth:`ExperimentSpec.eval_settings`); ``progress`` overrides the
        session-wide callback for this call only.
        """
        spec = ExperimentSpec.coerce(spec)
        categories = spec.resolve_categories()
        with obs.ACTIVE.span("session.run", experiment=spec.name):
            return ExperimentResult(
                spec=spec,
                categories=categories,
                outcome=self.evaluate(
                    spec.resolve_designs(),
                    categories,
                    spec.eval_settings(quick=quick),
                    progress=progress,
                ),
            )

    def search(
        self,
        spec: "SearchSpec | SearchSpace | Mapping | str | os.PathLike",
        strategy: SearchStrategy | None = None,
        *,
        objectives: ObjectiveSet | None = None,
        settings: EvalSettings | None = None,
        budget: int | None = None,
        quick: bool | None = None,
        checkpoint: str | os.PathLike | None = None,
        resume: bool = False,
        progress: ProgressFn | None = None,
        surrogate=None,
    ) -> SearchResult:
        """Run a guided design-space search (see ``docs/search.md``).

        ``spec`` is a :class:`~repro.search.spec.SearchSpec` (object, dict,
        or JSON path), or directly a :class:`~repro.search.space.SearchSpace`
        / paper-space preset name (``"a"`` / ``"b"`` / ``"ab"``) -- in
        which case ``strategy`` picks the search (default: exhaustive).
        Explicit keyword arguments override the spec.  Candidate batches
        evaluate through :meth:`evaluate`, so the search parallelizes over
        the session's workers and is served by the persistent cache; for a
        fixed strategy seed the run is bitwise-deterministic across runs
        and worker counts.

        ``checkpoint`` names a JSON file the archive is saved to after
        every batch; with ``resume=True`` an existing checkpoint seeds the
        archive, and the strategy replays against the recorded scores
        without re-evaluating (``quick`` must match the original run for
        the replay to be meaningful).  ``budget`` caps total recorded
        evaluations, checkpointed ones included.

        A multi-fidelity run (spec ``fidelity: "multi"`` / strategy kind
        ``surrogate``) screens the space with the calibrated surrogate
        before spending any exact evaluation; ``surrogate`` overrides the
        model -- a :class:`repro.surrogate.SurrogateModel`, a
        :class:`repro.surrogate.SurrogateConstants` document, or a path
        to a fitted constants file (default: the committed golden).
        """
        search_spec: SearchSpec | None = None
        if isinstance(spec, SearchSpace):
            space = spec
        elif isinstance(spec, str) and spec.lower() in ("a", "b", "ab"):
            space = resolve_space(spec)
        else:
            search_spec = SearchSpec.coerce(spec)
            space = search_spec.space

        if search_spec is not None:
            if strategy is None:
                strategy = search_spec.build_strategy()
            if budget is None:
                budget = search_spec.strategy.budget
            if objectives is None:
                objectives = search_spec.resolve_objectives()
            if settings is None:
                settings = search_spec.eval_settings(quick=quick)
            if checkpoint is None:
                checkpoint = search_spec.checkpoint
        else:
            if strategy is None:
                strategy = ExhaustiveSearch(space)
            if budget is None:
                budget = getattr(strategy, "budget", None)
            if objectives is None:
                objectives = ObjectiveSet.for_category(space.default_category())
            if settings is None:
                settings = self.settings

        if resume and checkpoint is None:
            raise ValueError(
                "resume=True needs a checkpoint path (none was given and "
                "the spec names none); pass checkpoint=... / --checkpoint"
            )
        archive: ParetoArchive | None = None
        if resume and checkpoint is not None and Path(checkpoint).exists():
            archive = ParetoArchive.load(checkpoint)
            if archive.objectives != objectives.names:
                raise ValueError(
                    f"checkpoint {str(checkpoint)!r} tracks objectives "
                    f"{list(archive.objectives)}, this search uses "
                    f"{list(objectives.names)}"
                )
            if archive.space != space.name:
                raise ValueError(
                    f"checkpoint {str(checkpoint)!r} was recorded on space "
                    f"{archive.space!r}, this search runs on {space.name!r}"
                )
        if archive is None:
            archive = ParetoArchive(objectives.names, space=space.name)

        categories = objectives.categories
        grid_size = len(space)

        if isinstance(strategy, SurrogateScreenedSearch) and not strategy.bound:
            model = _resolve_surrogate(surrogate)

            def predict(config):
                return objectives.scores(
                    model.evaluate_design(config, categories, settings)
                )

            strategy.bind(predict)
        fidelity = (
            "multi" if isinstance(strategy, SurrogateScreenedSearch) else "exact"
        )

        report = progress if progress is not None else self.progress

        def loop_progress(evaluated: int, cap: int | None) -> None:
            if report is not None:
                report(evaluated, cap if cap is not None else grid_size)

        checkpoint_fn = None
        if checkpoint is not None:
            checkpoint_fn = lambda: archive.save(checkpoint)  # noqa: E731

        with obs.ACTIVE.span(
            "session.search",
            space=space.name,
            strategy=strategy.name,
            fidelity=fidelity,
        ):
            outcome = run_search_loop(
                strategy,
                lambda configs: self.evaluate(configs, categories, settings),
                objectives,
                archive,
                budget=budget,
                progress=loop_progress,
                checkpoint=checkpoint_fn,
            )
        if checkpoint_fn is not None:
            checkpoint_fn()
        describe = getattr(strategy, "describe", None)
        return SearchResult(
            name=search_spec.name if search_spec is not None else space.name,
            title=search_spec.title if search_spec is not None else "",
            space=space,
            strategy=describe() if callable(describe) else strategy.name,
            objectives=objectives,
            outcome=outcome,
            workers=self.workers,
            grid_size=grid_size,
            fidelity=fidelity,
        )

    def calibrate(
        self,
        spaces: Sequence[str] | None = None,
        networks: Sequence[str] | None = None,
        regimes: Mapping | None = None,
        save: "bool | str | os.PathLike | None" = None,
    ):
        """Fit surrogate constants against this session's exact results.

        Builds the calibration corpus through this session (parallel over
        the session's workers, served by and absorbed into the persistent
        cache), fits the correction vectors deterministically, and
        returns the :class:`repro.surrogate.SurrogateConstants` document.
        ``spaces`` / ``networks`` / ``regimes`` restrict the corpus (all
        paper spaces x the Table IV suite x the production and quick
        sampling regimes by default).  ``save=True`` refreshes the
        committed golden; a path saves there instead.
        """
        from repro.surrogate import calibrate as _calibrate
        from repro.surrogate import save_constants

        with obs.ACTIVE.span("session.calibrate"):
            constants = _calibrate(self, spaces, networks, regimes)
        if save is not None and save is not False:
            save_constants(constants, None if save is True else save)
        return constants
