"""Pluggable search strategies behind one ask/tell protocol.

A :class:`SearchStrategy` proposes batches of candidate configs
(:meth:`ask`) and learns their score vectors (:meth:`tell`); the batched
evaluation loop in :mod:`repro.runtime.search` drives the exchange, so a
strategy never touches the simulator, the cache, or the process pool --
every strategy is automatically parallel and cache-hot, and, because every
decision is a deterministic function of a seed and of told scores (which
are themselves bitwise-deterministic), a strategy run is reproducible
across runs *and* across worker counts.

Four strategies ship:

* :class:`ExhaustiveSearch` -- the full feasible grid, in space order
  (subsumes the legacy ``design_space()`` sweeps);
* :class:`RandomSearch` -- a seeded uniform sample without replacement;
* :class:`EvolutionarySearch` -- seeded (mu + lambda)-style local search:
  parents picked by Pareto rank (non-dominated sorting, product-rule
  tie-break), children by single-field mutation -- finds the Table VI
  starred points while evaluating a fraction of the grid;
* :class:`SurrogateScreenedSearch` -- the multi-fidelity mode
  (``fidelity: "multi"`` in a search spec): the calibrated analytical
  surrogate (:mod:`repro.surrogate`) scores *every* feasible config at
  about a millisecond each, and only the predicted Pareto shortlist is
  proposed to the exact engine for confirmation.
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence, runtime_checkable

from repro.config import ArchConfig
from repro.dse.pareto import pareto_ranks
from repro.obs import trace as obs
from repro.search.space import SearchSpace

#: One told result: the candidate and its maximize-score vector.
TellResult = tuple[ArchConfig, tuple[float, ...]]


@runtime_checkable
class SearchStrategy(Protocol):
    """The ask/tell contract every strategy implements.

    A strategy is single-use: one instance drives one search run.  ``ask``
    returns the next batch of candidates (possibly already evaluated ones,
    which the loop answers from the archive) and the empty list when the
    strategy has nothing further to propose; ``tell`` feeds back the score
    vectors of a completed batch, in ask order.
    """

    @property
    def name(self) -> str: ...

    def ask(self) -> list[ArchConfig]: ...

    def tell(self, results: Sequence[TellResult]) -> None: ...


class ExhaustiveSearch:
    """Every feasible config of the space, in deterministic space order.

    One ask of the whole grid: the evaluation loop hands it to the runner
    in a single batch, so the exhaustive strategy parallelizes exactly
    like the legacy ``repro sweep`` (and returns identical results).
    """

    name = "exhaustive"

    def __init__(self, space: SearchSpace) -> None:
        self.space = space
        self._asked = False

    def ask(self) -> list[ArchConfig]:
        if self._asked:
            return []
        self._asked = True
        return self.space.configs()

    def tell(self, results: Sequence[TellResult]) -> None:
        pass

    def describe(self) -> str:
        return f"exhaustive over {len(self.space)} feasible configs"


class RandomSearch:
    """A seeded uniform sample of the space, without replacement."""

    name = "random"

    def __init__(
        self,
        space: SearchSpace,
        budget: int,
        seed: int = 2022,
        batch_size: int = 8,
    ) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.space = space
        self.seed = seed
        self.batch_size = batch_size
        rng = random.Random(seed)
        self._pending = space.sample(rng, budget)

    def ask(self) -> list[ArchConfig]:
        batch, self._pending = (
            self._pending[: self.batch_size],
            self._pending[self.batch_size :],
        )
        return batch

    def tell(self, results: Sequence[TellResult]) -> None:
        pass

    def describe(self) -> str:
        return f"random sample (seed {self.seed})"


class EvolutionarySearch:
    """Seeded evolutionary/local search with Pareto-rank selection.

    Generation zero is a uniform seeded sample of ``population`` configs.
    Every later generation ranks *all* results told so far by
    non-dominated sorting (:func:`repro.dse.pareto.pareto_ranks`), breaks
    rank ties by the product-of-scores compromise rule (then by evaluation
    order, so the ordering is total and deterministic), keeps the top
    ``parents``, and proposes one single-field mutation of each (cycling)
    until ``children`` fresh candidates are found.  Already-proposed
    configs are never proposed again; when the reachable neighbourhood is
    exhausted the strategy falls back to unseen random configs, and goes
    silent once the whole space has been proposed.

    The loop enforces the evaluation ``budget``; the strategy only needs
    it to size generation zero sensibly.
    """

    name = "evolutionary"

    def __init__(
        self,
        space: SearchSpace,
        budget: int,
        seed: int = 2022,
        population: int = 8,
        parents: int = 3,
        children: int | None = None,
    ) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        if parents < 1:
            raise ValueError(f"parents must be >= 1, got {parents}")
        self.space = space
        self.seed = seed
        self.budget = budget
        self.population = min(population, budget)
        self.parents = parents
        self.children = children if children is not None else max(2, parents)
        self._rng = random.Random(seed)
        self._results: list[TellResult] = []
        self._proposed: set[str] = set()
        self._started = False

    def _propose(self, config: ArchConfig) -> bool:
        key = config.notation
        if key in self._proposed:
            return False
        self._proposed.add(key)
        return True

    def _select_parents(self) -> list[ArchConfig]:
        scores = [scores for _, scores in self._results]
        ranks = pareto_ranks(scores)
        product = [_product(vector) for vector in scores]
        order = sorted(
            range(len(self._results)),
            key=lambda i: (ranks[i], -product[i], i),
        )
        return [self._results[i][0] for i in order[: self.parents]]

    def ask(self) -> list[ArchConfig]:
        if not self._started:
            self._started = True
            batch = self.space.sample(self._rng, self.population)
            for config in batch:
                self._propose(config)
            return batch
        if not self._results:
            return []  # told nothing back: nothing to evolve from
        batch: list[ArchConfig] = []
        parents = self._select_parents()
        attempts = 0
        max_attempts = 20 * self.children
        while len(batch) < self.children and attempts < max_attempts:
            parent = parents[attempts % len(parents)]
            child = self.space.mutate(parent, self._rng)
            attempts += 1
            if self._propose(child):
                batch.append(child)
        if len(batch) < self.children:
            # Mutation neighbourhood exhausted: fall back to unseen configs.
            unseen = [
                config
                for config in self.space
                if config.notation not in self._proposed
            ]
            for config in unseen[: self.children - len(batch)]:
                self._propose(config)
                batch.append(config)
        return batch

    def tell(self, results: Sequence[TellResult]) -> None:
        self._results.extend(results)

    def describe(self) -> str:
        return (
            f"evolutionary (seed {self.seed}, population {self.population}, "
            f"{self.parents} parents x {self.children} children per generation)"
        )


def _product(values: Sequence[float]) -> float:
    out = 1.0
    for value in values:
        out *= value
    return out


class SurrogateScreenedSearch:
    """Multi-fidelity screening: surrogate ranks, exact engine confirms.

    The strategy must be **bound** to a predictor -- a callable mapping a
    config to its predicted maximize-score vector -- before its first
    ``ask``; :meth:`repro.api.Session.search` binds the calibrated
    :class:`repro.surrogate.SurrogateModel` automatically.  The one ask
    scores the entire feasible grid with the predictor (recorded in
    ``screened``), ranks it exactly like the evolutionary selection rule
    -- non-dominated sorting, product-of-scores tie-break, then space
    order -- and proposes the top ``budget`` configs for exact
    evaluation.  The loop's exact results then build the archive, so the
    frontier the search reports is engine truth; the surrogate only
    decided where to spend the exact evaluations.

    The surrogate is deterministic arithmetic over fitted constants, so
    the shortlist -- and therefore the whole search -- is bitwise
    reproducible across runs and worker counts; ``seed`` is accepted for
    interface uniformity but never consulted.
    """

    name = "surrogate"

    def __init__(
        self, space: SearchSpace, budget: int, seed: int = 2022
    ) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.space = space
        self.budget = budget
        self.seed = seed
        self.screened = 0
        self._predict = None
        self._asked = False

    @property
    def bound(self) -> bool:
        return self._predict is not None

    def bind(self, predict) -> "SurrogateScreenedSearch":
        """Attach the score predictor (config -> maximize-score vector)."""
        self._predict = predict
        return self

    def ask(self) -> list[ArchConfig]:
        if self._asked:
            return []
        self._asked = True
        if self._predict is None:
            raise ValueError(
                "surrogate strategy is not bound to a predictor; run it "
                "through Session.search (which binds the calibrated "
                "surrogate model) or call .bind(predict) first"
            )
        configs = self.space.configs()
        with obs.ACTIVE.span(
            "surrogate.screen", configs=len(configs), budget=self.budget
        ):
            scored = [self._predict(config) for config in configs]
        self.screened = len(configs)
        ranks = pareto_ranks(scored)
        product = [_product(vector) for vector in scored]
        order = sorted(
            range(len(configs)), key=lambda i: (ranks[i], -product[i], i)
        )
        return [configs[i] for i in order[: self.budget]]

    def tell(self, results: Sequence[TellResult]) -> None:
        pass

    def describe(self) -> str:
        return (
            f"surrogate-screened shortlist (top {self.budget} of "
            f"{len(self.space)} predicted configs, exact-confirmed)"
        )


#: Strategy kinds the CLI / SearchSpec can name.
STRATEGY_KINDS: tuple[str, ...] = (
    "exhaustive", "random", "evolutionary", "surrogate"
)


def build_strategy(
    kind: str,
    space: SearchSpace,
    budget: int | None = None,
    seed: int = 2022,
    population: int = 8,
    parents: int = 3,
    children: int | None = None,
    batch_size: int = 8,
) -> SearchStrategy:
    """Construct a named strategy (the CLI / SearchSpec entry point).

    ``budget`` defaults to the full feasible grid for ``exhaustive`` and is
    required for the sampling strategies.
    """
    key = kind.lower()
    if key == "exhaustive":
        return ExhaustiveSearch(space)
    if budget is None:
        raise ValueError(f"strategy {kind!r} needs an evaluation budget")
    if key == "random":
        return RandomSearch(space, budget=budget, seed=seed, batch_size=batch_size)
    if key == "evolutionary":
        return EvolutionarySearch(
            space,
            budget=budget,
            seed=seed,
            population=population,
            parents=parents,
            children=children,
        )
    if key == "surrogate":
        return SurrogateScreenedSearch(space, budget=budget, seed=seed)
    raise ValueError(
        f"unknown search strategy {kind!r}; choose from {list(STRATEGY_KINDS)}"
    )
