"""Cache-backed execution of design-space sweeps, in process or in a pool.

A sweep evaluates a list of :class:`~repro.dse.evaluate.Design` points as
network tasks: a task simulates one network, resolved in the parent, for
some of the designs on every category whose suite holds it
(:func:`run_task`, the one task body).  So every design on a network
shares one set of memos: each sampled-pass set is drawn once, and label
twins read each other's layers from the memo.  Each design is then scored
with :func:`repro.dse.evaluate.score_design`, so the outcome is identical
for any worker count.  Two functions run the tasks:

* :func:`evaluate_in_process` runs one task per network in the calling
  process, against the caller's :class:`~repro.sim.engine.EvalContext`,
  smallest weight fields first, while one
  :class:`~repro.sim.engine.PassDrawer` thread draws their pass sets ahead.
* :func:`evaluate_in_pool` fans the tasks (:func:`network_tasks`) out over
  a process pool: the caller's warm :func:`worker_pool`, or one of its own
  for the call.  Each task opens a
  :class:`repro.runtime.cache.PersistentLayerCache` handle on the cache
  directory named in its payload, behind the worker process's own memos,
  so what one worker (or a previous run) simulated is read from disk --
  whole networks from the network tier, else layers from the layer tier.
  Each handle counts only its task's cache activity; the counts are
  summed into :attr:`SweepOutcome.cache_stats`.

:meth:`repro.api.Session.evaluate` picks the function by its worker
count, and owns the warm pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from repro.config import ModelCategory
from repro.dse.evaluate import (
    Design,
    DesignEvaluation,
    Suites,
    score_design,
)
from repro.obs import trace as obs
from repro.runtime.cache import CacheStats, PersistentLayerCache
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


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes, each with its own memos."""
    return ProcessPoolExecutor(workers, initializer=_start_worker)


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
    n_items: int, size: int, groups: Sequence[int] | None = None
) -> list[tuple[int, ...]]:
    """Deterministic chunking of ``range(n_items)``: contiguous, or whole
    ``groups`` (item ``i``'s is ``groups[i]``) per chunk, in first-seen
    order, so a chunk may run over ``size``."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    members: dict[int, list[int]] = {}
    for index, group in enumerate(range(n_items) if groups is None else groups):
        members.setdefault(group, []).append(index)
    chunks: list[list[int]] = []
    for member in members.values():
        if not chunks or len(chunks[-1]) >= size:
            chunks.append([])
        chunks[-1] += member
    return [tuple(sorted(chunk)) for chunk in chunks]


def network_tasks(
    n_designs: int, n_networks: int, workers: int, groups: Sequence[int] | None = None,
) -> list[tuple[int, tuple[int, ...]]]:
    """The pool tasks, ``(network index, design indices)``: one task per
    network, or ``ceil(workers / networks)`` slices of it, each of whole
    ``groups``, when networks are fewer than workers, so no worker idles."""
    if n_designs <= 0 or n_networks <= 0:
        return []
    # ceil(designs / ceil(workers / networks)) designs per slice
    size = -(-n_designs // -(-max(1, workers) // n_networks))
    chunks = chunk_indices(n_designs, size, groups)
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


def evaluate_in_pool(
    pool: ProcessPoolExecutor | None,
    workers: int,
    cache_dir: str | None,
    designs: Sequence[Design],
    categories: Sequence[ModelCategory],
    options: SimulationOptions,
    suites: Suites,
    progress: ProgressFn | None = None,
) -> SweepOutcome:
    """Every design on every category, as :func:`network_tasks` fanned
    out over ``pool``; order-preserving.

    ``pool`` is a warm :func:`worker_pool` the caller keeps; ``None`` runs
    the call on a pool of its own, ``min(workers, tasks)`` processes shut
    down before it returns.  Each task evaluates against the store at
    ``cache_dir`` (``None``: no persistent tier).  A design ticks
    ``progress`` when its last network is back.
    """
    order = _network_order(categories, suites)
    tasks = network_tasks(len(designs), len(order), workers,
                          content_groups(designs, categories))
    speedups: list[dict[tuple[ModelCategory, str], float]] = [{} for _ in designs]
    remaining = [len(order)] * len(designs)
    stats = CacheStats()
    done_points = 0
    tracer = obs.ACTIVE
    task_spans: list[list[dict]] = [[] for _ in tasks]
    scope = nullcontext(pool) if pool is not None else worker_pool(
        max(1, min(workers, len(tasks))))
    with scope as pool, tracer.span(
        "runner.parallel", points=len(designs), networks=len(order),
        chunks=len(tasks), workers=workers,
    ) as dispatch:
        futures = {
            pool.submit(_evaluate_chunk, (
                order[network][0], chunk, tuple(designs[i] for i in chunk),
                order[network][1], options, cache_dir, tracer.enabled,
            )): task
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
            # Absorb worker spans in task order -- not completion order --
            # so two traced runs yield structurally identical span trees.
            for spans in task_spans:
                tracer.absorb(spans, parent=dispatch)
    return SweepOutcome(_scored(designs, categories, suites, speedups), stats,
                        workers, len(tasks))
