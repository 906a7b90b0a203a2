"""Cache-backed execution of design-space sweeps, in process or in a pool.

A sweep evaluates a list of design points -- anything
:func:`repro.dse.evaluate.as_design` accepts: borrowing configurations,
Griffin, calibrated baseline rows, or design names -- as network tasks:
a task simulates one network, resolved in the parent, for some of the
designs on every category whose suite holds it (:func:`run_task`, the
one task body).  So every design on a network shares one set of memos:
each sampled-pass set is drawn once, and label twins read each other's
layers from the memo.  Each design is then scored with
:func:`repro.dse.evaluate.score_design`, so the outcome is identical for
any worker count.  There are two executors:

* :func:`evaluate_in_process` runs one task per network in the calling
  process, against the caller's :class:`~repro.sim.engine.EvalContext`,
  in ascending order of the weight-field elements each task draws.  One
  :class:`~repro.sim.engine.PassDrawer` thread per call draws the pass
  sets ahead of the tasks, so the draws overlap the scheduling.
* :class:`SweepRunner` fans the tasks out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (:func:`network_tasks`).
  Each task opens a :class:`repro.runtime.cache.PersistentLayerCache`
  handle on the cache directory named in its payload, so simulations
  computed by one worker (or a previous run) are read from disk instead of
  recomputed -- whole networks from the network tier in a single read
  when the exact evaluation ran before, individual layers from the layer
  tier otherwise.  The worker process's own
  :class:`~repro.sim.engine.EvalContext` memos, shared by every task it
  runs, sit in front of the store.  Each task's handle counts only that
  task's cache activity; the counts are shipped back with the results
  and summed into :attr:`SweepOutcome.cache_stats`.

:meth:`repro.api.Session.evaluate` picks the executor by its worker count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from repro.config import ModelCategory
from repro.dse.evaluate import (
    Design,
    DesignEvaluation,
    DesignLike,
    EvalSettings,
    Suites,
    as_design,
    score_design,
)
from repro.obs import trace as obs
from repro.runtime.cache import CacheStats, PersistentLayerCache, default_cache_dir
from repro.sim.engine import (
    EvalContext,
    PassDrawer,
    SimulationOptions,
    field_elements,
    pending_pass_keys,
    simulate_network,
)
from repro.workloads.models import Network

#: Progress callback: (completed design points, total design points).
ProgressFn = Callable[[int, int], None]

#: This worker process's memos (``None`` outside a pool process).
_worker_context: EvalContext | None = None


def _start_worker() -> None:
    """Pool initializer: the new worker process starts with empty memos."""
    global _worker_context
    _worker_context = EvalContext()


@dataclass(frozen=True)
class SweepOutcome:
    """Results and bookkeeping of one sweep run (``chunks``: tasks sent to
    the process pool, 0 when every design was answered in-process)."""

    evaluations: tuple[DesignEvaluation, ...]
    cache_stats: CacheStats
    workers: int
    chunks: int

    def __len__(self) -> int:
        return len(self.evaluations)


def run_task(
    network: Network,
    indices: Sequence[int],
    designs: Sequence[Design],
    categories: Sequence[ModelCategory],
    options: SimulationOptions,
    context: EvalContext,
) -> Iterator[dict[tuple[ModelCategory, str], float]]:
    """One network task: yield each design's speedups on ``network``,
    keyed by ``(category, network fingerprint)``, in design order."""
    for index, design in zip(indices, designs):
        with obs.ACTIVE.span("evaluate.design", index=index, design=design.label):
            row = {
                (category, network.fingerprint): simulate_network(
                    network, design.config_for(category), category, options, cache=context,
                ).speedup
                for category in categories
            }
        yield row


def _evaluate_chunk(
    payload: tuple[Network, tuple[int, ...], tuple[Design, ...],
                   tuple[ModelCategory, ...], SimulationOptions, str | None, bool],
) -> tuple[list[dict[tuple[ModelCategory, str], float]], dict[str, int], list[dict]]:
    """:func:`run_task` inside a worker process.  The task evaluates
    against the store at the payload's ``cache_dir`` (``None``: no
    persistent tier) and returns its own cache counts.  When ``traced``,
    the worker records spans into its own local tracer and ships them
    back as plain dicts; the parent re-parents them with
    :meth:`repro.obs.Tracer.absorb` in task order.  The flag never
    reaches the evaluation, so results are bitwise-identical either way.
    """
    network, indices, designs, categories, options, cache_dir, traced = payload
    cache = PersistentLayerCache(cache_dir) if cache_dir is not None else None
    stats = cache.stats if cache is not None else CacheStats()
    context = (_worker_context or EvalContext()).on(cache)
    with obs.tracing(obs.Tracer() if traced else None) as tracer:
        with tracer.span("runner.chunk", network=network.name, first=indices[0],
                         points=len(indices), pid=os.getpid()):
            speedups = list(run_task(network, indices, designs, categories, options, context))
    return speedups, stats.as_dict(), tracer.export()


def _network_order(
    categories: Sequence[ModelCategory], suites: Suites
) -> list[tuple[Network, tuple[ModelCategory, ...]]]:
    """Each distinct network of the ``suites``, first-seen first, with the
    categories whose suite holds it."""
    networks: dict[str, tuple[Network, list[ModelCategory]]] = {}
    for category in categories:
        for info in suites[category]:
            networks.setdefault(info.fingerprint, (info.network, []))[1].append(category)
    return [(network, tuple(held)) for network, held in networks.values()]


def _scored(
    designs: Sequence[Design],
    categories: Sequence[ModelCategory],
    suites: Suites,
    speedups: Sequence[dict[tuple[ModelCategory, str], float]],
) -> tuple[DesignEvaluation, ...]:
    return tuple(
        score_design(design, categories, suites,
                     lambda category, info: found[category, info.fingerprint])
        for design, found in zip(designs, speedups)
    )


def evaluate_in_process(
    designs: Sequence[Design],
    categories: Sequence[ModelCategory],
    options: SimulationOptions,
    suites: Suites,
    context: EvalContext,
    progress: ProgressFn | None = None,
) -> tuple[DesignEvaluation, ...]:
    """Every design on every category, one :func:`run_task` per network in
    this process, in ``context``; order-preserving.

    Tasks run in ascending order of the weight-field elements their
    pending pass sets draw, smallest first, and a
    :class:`~repro.sim.engine.PassDrawer` draws those sets in the same
    order while the tasks schedule.  A design ticks ``progress`` when its
    last network is done.
    """
    order = _network_order(categories, suites)
    every = tuple(range(len(designs)))
    pending = [
        pending_pass_keys(
            network,
            ((design.config_for(category), category) for design in designs
             for category in held),
            options, context,
        )
        for network, held in order
    ]
    ranked = sorted(range(len(order)),
                    key=lambda task: sum(map(field_elements, pending[task])))
    speedups: list[dict[tuple[ModelCategory, str], float]] = [{} for _ in designs]
    keys = dict.fromkeys(key for task in ranked for key in pending[task])
    with PassDrawer(list(keys)) as drawer:
        context = replace(context, drawer=drawer)
        for task in ranked:
            network, held = order[task]
            rows = run_task(network, every, designs, held, options, context)
            for index, row in enumerate(rows):
                speedups[index].update(row)
                if progress is not None and task == ranked[-1]:
                    progress(index + 1, len(designs))
    return _scored(designs, categories, suites, speedups)


def chunk_indices(
    n_items: int, chunk_size: int, groups: Sequence[int] | None = None
) -> list[tuple[int, ...]]:
    """Deterministic chunking of ``range(n_items)``: contiguous, or whole
    ``groups`` (item ``i``'s is ``groups[i]``) per chunk, in first-seen
    order, so a chunk may run over ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    members: dict[int, list[int]] = {}
    for index, group in enumerate(range(n_items) if groups is None else groups):
        members.setdefault(group, []).append(index)
    chunks: list[list[int]] = []
    for member in members.values():
        if not chunks or len(chunks[-1]) >= chunk_size:
            chunks.append([])
        chunks[-1] += member
    return [tuple(sorted(chunk)) for chunk in chunks]


def network_tasks(
    n_designs: int, n_networks: int, workers: int, chunk_size: int | None = None,
    groups: Sequence[int] | None = None,
) -> list[tuple[int, tuple[int, ...]]]:
    """The pool tasks, ``(network index, design indices)``: ``chunk_size``
    designs per task on each network.  By default one task per network,
    or ``ceil(workers / networks)`` slices of it, each of whole ``groups``,
    when networks are fewer than workers, so no worker idles."""
    if n_designs <= 0 or n_networks <= 0:
        return []
    if chunk_size is None:  # ceil(designs / ceil(workers / networks))
        chunk_size = -(-n_designs // -(-max(1, workers) // n_networks))
    else:
        groups = None  # an explicit chunk_size is exact
    chunks = chunk_indices(n_designs, chunk_size, groups)
    return [(network, chunk) for network in range(n_networks) for chunk in chunks]


def content_groups(
    designs: Sequence[Design], categories: Sequence[ModelCategory]
) -> list[int]:
    """Each design's group: the lowest index of the designs it shares a
    config (so layer-memo entries) with on some category, transitively."""
    group = list(range(len(designs)))
    owner: dict[tuple, int] = {}
    for i, design in enumerate(designs):
        for category in categories:
            config = design.config_for(category)
            content = (category, config.a, config.b, config.shuffle, config.geometry)
            low, high = sorted((group[i], group[owner.setdefault(content, i)]))
            group = [low if g == high else g for g in group] if low < high else group
    return group


class SweepRunner:
    """Run design-point evaluations in parallel with a persistent cache.

    Args:
        workers: worker process count (``0`` runs one worker process).
        cache_dir: root of the two-tier persistent cache; ``None`` picks
            ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
        use_cache: disable the persistent cache entirely with ``False``.
        chunk_size: design points per task on each network; by default
            one task per network (see :func:`network_tasks`).
        progress: optional callback invoked with (done, total) as chunks
            complete (``run`` also takes a per-call override).
        keep_pool: keep the worker process pool warm across ``run`` calls
            instead of creating and tearing one down per call -- what a
            long-lived service (``repro serve``) wants, since pool startup
            dwarfs a cache-warm evaluation.  Call :meth:`close` (or use
            the runner as a context manager) to release it; a later run
            transparently recreates it.
    """

    def __init__(
        self,
        workers: int = 0,
        cache_dir: str | os.PathLike | None = None,
        use_cache: bool = True,
        chunk_size: int | None = None,
        progress: ProgressFn | None = None,
        keep_pool: bool = False,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.cache_dir = (
            str(cache_dir if cache_dir is not None else default_cache_dir())
            if use_cache
            else None
        )
        self.chunk_size = chunk_size
        self.progress = progress
        self.keep_pool = keep_pool
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Lifecycle: the warm pool.
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max(1, self.workers), initializer=_start_worker)
            return self._pool

    def close(self, wait: bool = True) -> None:
        """Shut down the warm pool (idempotent).

        ``wait=False`` cancels queued work and returns without joining
        chunks already running -- for a bounded-time service shutdown.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run(
        self,
        designs: Sequence[DesignLike],
        categories: Sequence[ModelCategory],
        settings: EvalSettings | None = None,
        progress: ProgressFn | None = None,
        suites: Suites | None = None,
    ) -> SweepOutcome:
        """Evaluate every design on every category, over ``suites``
        (default: the settings'); order-preserving.

        ``progress`` overrides the runner-wide callback for this call
        (per-request progress in a shared-runner service); a design ticks
        when its last network is back.
        """
        settings = settings or EvalSettings()
        progress = progress if progress is not None else self.progress
        designs = tuple(as_design(design) for design in designs)
        categories = tuple(categories)
        if not designs:
            return SweepOutcome((), CacheStats(), self.workers, 0)
        suites = suites or settings.suites(categories)
        order = _network_order(categories, suites)
        tasks = network_tasks(len(designs), len(order), self.workers, self.chunk_size,
                              content_groups(designs, categories))
        speedups: list[dict[tuple[ModelCategory, str], float]] = [{} for _ in designs]
        remaining = [len(order)] * len(designs)
        stats = CacheStats()
        done_points = 0
        if self.keep_pool:
            pool = self._ensure_pool()
        else:
            workers = max(1, min(self.workers, len(tasks)))
            pool = ProcessPoolExecutor(workers, initializer=_start_worker)
        tracer = obs.ACTIVE
        task_spans: list[list[dict]] = [[] for _ in tasks]
        try:
            with tracer.span(
                "runner.parallel",
                points=len(designs),
                networks=len(order),
                chunks=len(tasks),
                workers=self.workers,
            ) as dispatch:
                futures = {
                    pool.submit(
                        _evaluate_chunk,
                        (
                            order[network][0],
                            chunk,
                            tuple(designs[i] for i in chunk),
                            order[network][1],
                            settings.options,
                            self.cache_dir,
                            tracer.enabled,
                        ),
                    ): task
                    for task, (network, chunk) in enumerate(tasks)
                }
                for future in as_completed(futures):
                    task = futures[future]
                    rows, task_stats, task_spans[task] = future.result()
                    for index, row in zip(tasks[task][1], rows):
                        speedups[index].update(row)
                        remaining[index] -= 1
                        done_points += remaining[index] == 0
                    stats.merge(CacheStats.from_dict(task_stats))
                    if progress is not None:
                        progress(done_points, len(designs))
                if tracer.enabled:
                    # Absorb worker spans in task order -- not completion
                    # order -- so two traced runs yield structurally
                    # identical span trees.
                    for spans in task_spans:
                        tracer.absorb(spans, parent=dispatch)
        finally:
            if not self.keep_pool:
                pool.shutdown(wait=True)
        return SweepOutcome(_scored(designs, categories, suites, speedups), stats,
                            self.workers, len(tasks))
