"""Parallel, cache-backed execution of design-space sweeps.

:class:`SweepRunner` fans the evaluation of a list of design points --
anything :func:`repro.dse.evaluate.as_design` accepts: borrowing
configurations, Griffin, calibrated baseline rows, or design names -- out
over a :class:`concurrent.futures.ProcessPoolExecutor`.  Chunking is
deterministic in (number of points, chunk size) and results are reassembled
in input order, so the outcome is identical to the serial loop for any
worker count -- every evaluation is an independent, seed-deterministic
function of its design point.

Each chunk opens a :class:`repro.runtime.cache.PersistentLayerCache`
handle on the cache directory named in its payload and passes it to the
engine, so simulations computed by one worker (or a previous run) are
read from disk instead of recomputed -- whole networks from the network
tier in a single read when the exact evaluation ran before, individual
layers from the layer tier otherwise.  The worker process's own
:class:`~repro.sim.engine.EvalContext` memos, shared by every chunk it
runs, sit in front of the store.  Each chunk's handle counts only that
chunk's cache activity; the counts are shipped back with the results
and summed into :attr:`SweepOutcome.cache_stats`.

The runner is the process-pool path only: the in-process design loop is
:meth:`repro.api.Session.evaluate` with ``workers <= 1``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.config import ModelCategory
from repro.dse.evaluate import (
    Design,
    DesignEvaluation,
    DesignLike,
    EvalSettings,
    as_design,
    evaluate_design,
)
from repro.obs import trace as obs
from repro.runtime.cache import CacheStats, PersistentLayerCache, default_cache_dir
from repro.sim.engine import EvalContext

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


def _evaluate_chunk(
    payload: tuple[tuple[int, ...], tuple[Design, ...],
                   tuple[ModelCategory, ...], EvalSettings, str | None, bool],
) -> tuple[tuple[int, ...], list[DesignEvaluation], dict[str, int], list[dict]]:
    """Evaluate one chunk of design points (runs inside a worker process).

    The chunk evaluates against the store at the payload's ``cache_dir``
    (``None``: no persistent tier) and returns its own cache counts.
    When ``traced``, the worker records spans into its own local tracer
    and ships them back as plain dicts; the parent re-parents them with
    :meth:`repro.obs.Tracer.absorb` in chunk order.  The flag never
    reaches the evaluation itself, so results are bitwise-identical
    either way.
    """
    indices, designs, categories, settings, cache_dir, traced = payload
    cache = PersistentLayerCache(cache_dir) if cache_dir is not None else None
    stats = cache.stats if cache is not None else CacheStats()
    context = (_worker_context or EvalContext()).on(cache)
    with obs.tracing(obs.Tracer() if traced else None) as tracer:
        with tracer.span("runner.chunk", first=indices[0], points=len(indices), pid=os.getpid()):
            evaluations = []
            for index, design in zip(indices, designs):
                with tracer.span("evaluate.design", index=index, design=design.label):
                    evaluations.append(
                        evaluate_design(design, categories, settings, cache=context)
                    )
    return indices, evaluations, stats.as_dict(), tracer.export()


def chunk_indices(n_items: int, chunk_size: int) -> list[tuple[int, ...]]:
    """Deterministic contiguous chunking of ``range(n_items)``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        tuple(range(start, min(start + chunk_size, n_items)))
        for start in range(0, n_items, chunk_size)
    ]


def default_chunk_size(n_items: int, workers: int) -> int:
    """About four chunks per worker: coarse enough to amortize process
    startup, fine enough that stragglers do not idle the pool."""
    if n_items <= 0:
        return 1
    return max(1, -(-n_items // max(1, workers * 4)))


class SweepRunner:
    """Run design-point evaluations in parallel with a persistent cache.

    Args:
        workers: worker process count (``0`` runs one worker process).
        cache_dir: root of the two-tier persistent cache; ``None`` picks
            ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
        use_cache: disable the persistent cache entirely with ``False``.
        chunk_size: design points per task; defaults to
            :func:`default_chunk_size`.
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
    ) -> SweepOutcome:
        """Evaluate every design on every category; order-preserving.

        ``progress`` overrides the runner-wide callback for this call
        (per-request progress in a shared-runner service).
        """
        settings = settings or EvalSettings()
        progress = progress if progress is not None else self.progress
        designs = tuple(as_design(design) for design in designs)
        categories = tuple(categories)
        if not designs:
            return SweepOutcome((), CacheStats(), self.workers, 0)
        size = self.chunk_size or default_chunk_size(len(designs), self.workers)
        chunks = chunk_indices(len(designs), size)
        results: list[DesignEvaluation | None] = [None] * len(designs)
        stats = CacheStats()
        done_points = 0
        if self.keep_pool:
            pool = self._ensure_pool()
        else:
            workers = max(1, min(self.workers, len(chunks)))
            pool = ProcessPoolExecutor(workers, initializer=_start_worker)
        tracer = obs.ACTIVE
        chunk_spans: dict[int, list[dict]] = {}
        try:
            with tracer.span(
                "runner.parallel",
                points=len(designs),
                chunks=len(chunks),
                workers=self.workers,
            ) as dispatch:
                pending = {
                    pool.submit(
                        _evaluate_chunk,
                        (
                            chunk,
                            tuple(designs[i] for i in chunk),
                            categories,
                            settings,
                            self.cache_dir,
                            tracer.enabled,
                        ),
                    )
                    for chunk in chunks
                }
                while pending:
                    finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in finished:
                        indices, evaluations, chunk_stats, spans = future.result()
                        for index, evaluation in zip(indices, evaluations):
                            results[index] = evaluation
                        stats.merge(CacheStats.from_dict(chunk_stats))
                        chunk_spans[indices[0]] = spans
                        done_points += len(indices)
                        if progress is not None:
                            progress(done_points, len(designs))
                if tracer.enabled:
                    # Absorb worker spans in chunk order -- not completion
                    # order -- so two traced runs yield structurally
                    # identical span trees.
                    for chunk in chunks:
                        tracer.absorb(chunk_spans.get(chunk[0], []), parent=dispatch)
        finally:
            if not self.keep_pool:
                pool.shutdown(wait=True)
        assert all(r is not None for r in results)
        return SweepOutcome(tuple(results), stats, self.workers, len(chunks))
