"""The batched ask/tell evaluation loop behind guided search.

:func:`run_search_loop` is the runtime half of :mod:`repro.search`: it
pumps candidate batches out of a strategy, evaluates every *new* config
through one batched ``evaluate_batch`` call (in practice
:meth:`repro.api.Session.evaluate`, so candidates fan out over worker
processes and land in the two-tier persistent cache), folds the scores
into a :class:`~repro.search.archive.ParetoArchive`, and feeds the results
back to the strategy.  Configs the archive has already recorded -- from a
resumed checkpoint or a repetitive strategy -- are answered from the
archive without re-evaluation, which is what makes checkpoint/resume and
warm re-runs effectively free.

Determinism: batches are evaluated order-preserved and every evaluation is
a pure function of its design point, so for a fixed strategy seed the loop
is bitwise-identical across runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from repro.config import ArchConfig
from repro.obs import trace as obs
from repro.runtime.cache import CacheStats
from repro.runtime.runner import SweepOutcome
from repro.search.archive import ParetoArchive
from repro.search.objectives import ObjectiveSet
from repro.search.strategy import SearchStrategy, TellResult

#: Evaluate a batch of configs, order-preserving: the evaluations, the
#: batch's persistent-cache activity and its pool chunks.
EvaluateBatch = Callable[[Sequence[ArchConfig]], SweepOutcome]


class SearchProgressFn(Protocol):
    def __call__(self, evaluated: int, budget: int | None) -> None: ...


@dataclass(frozen=True)
class SearchLoopOutcome:
    """Bookkeeping of one ask/tell run (the archive carries the results)."""

    archive: ParetoArchive
    cache_stats: CacheStats
    batches: int
    evaluated: int
    reused: int
    #: Configs scored by a surrogate model instead of the exact engine
    #: (0 for single-fidelity strategies).  ``evaluated`` stays what it
    #: always was: exact-engine evaluations only.
    screened: int = 0
    #: Tasks the batches sent to the process pool (:attr:`SweepOutcome.chunks`).
    chunks: int = 0


def run_search_loop(
    strategy: SearchStrategy,
    evaluate_batch: EvaluateBatch,
    objectives: ObjectiveSet,
    archive: ParetoArchive,
    budget: int | None = None,
    progress: SearchProgressFn | None = None,
    checkpoint: Callable[[], None] | None = None,
) -> SearchLoopOutcome:
    """Drive a strategy to completion (or to its evaluation budget).

    ``budget`` caps *fresh* evaluations added to the archive, counting any
    records a resumed archive already holds; replayed answers are free.
    ``checkpoint`` (if given) runs after every batch that changed the
    archive -- ``repro search --checkpoint`` saves the archive there, so a
    killed run loses at most one batch.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    stats = CacheStats()
    chunks = 0
    batches = 0
    evaluated = 0
    reused = 0
    replay_streak = 0
    # Multi-fidelity strategies *screen* with a surrogate inside ask()
    # and the exact evaluations *confirm*; name the spans accordingly.
    surrogate = getattr(strategy, "name", "") == "surrogate"
    ask_span = "search.screen" if surrogate else "search.ask"
    eval_span = "search.confirm" if surrogate else "search.evaluate"
    while budget is None or len(archive) < budget:
        with obs.ACTIVE.span(ask_span, strategy=strategy.name, batch=batches) as span:
            asked = strategy.ask()
            span.set(asked=len(asked))
        if not asked:
            break
        # Dedup within the batch; split into archive replays vs fresh work.
        batch: list[ArchConfig] = []
        seen: set[str] = set()
        for config in asked:
            if config.notation not in seen:
                seen.add(config.notation)
                batch.append(config)
        fresh = [config for config in batch if config.notation not in archive]
        if budget is not None:
            fresh = fresh[: budget - len(archive)]
        fresh_keys = {config.notation for config in fresh}

        # A well-behaved strategy eventually proposes something new (or goes
        # silent); bound the replay-only churn so a broken one cannot spin
        # the loop forever.  Resumed runs legitimately replay many batches
        # before reaching fresh ground, so the cap is deliberately generous.
        replay_streak = 0 if fresh else replay_streak + 1
        if replay_streak > 10_000:
            raise RuntimeError(
                f"search strategy {strategy.name!r} proposed 10000 consecutive "
                f"batches with no unevaluated config; aborting the loop"
            )

        if fresh:
            with obs.ACTIVE.span(eval_span, strategy=strategy.name, fresh=len(fresh)):
                outcome = evaluate_batch(fresh)
            stats.merge(outcome.cache_stats)
            chunks += outcome.chunks
            for config, evaluation in zip(fresh, outcome.evaluations):
                archive.record(
                    config.notation, evaluation, objectives.scores(evaluation)
                )
            evaluated += len(fresh)
            batches += 1
            if checkpoint is not None:
                checkpoint()
            if progress is not None:
                progress(len(archive), budget)

        results: list[TellResult] = []
        for config in batch:
            record = archive.get(config.notation)
            if record is None:
                continue  # trimmed by the budget: never evaluated
            results.append((config, record.scores))
            if config.notation not in fresh_keys:
                reused += 1
        if not results:
            # The strategy asked only for configs the budget excluded;
            # telling it nothing cannot advance it, so stop here.
            break
        strategy.tell(results)
    return SearchLoopOutcome(
        archive=archive,
        cache_stats=stats,
        batches=batches,
        evaluated=evaluated,
        reused=reused,
        screened=int(getattr(strategy, "screened", 0)),
        chunks=chunks,
    )
