"""Pareto-front extraction for the efficiency scatter plots (Figs. 5-7).

All objectives are *maximized*.  Besides the front itself the module
exposes the two primitives the guided-search layer builds on:
:func:`dominates` (the strict dominance test) and :func:`pareto_ranks`
(non-dominated sorting, the selection pressure of
:class:`repro.search.strategy.EvolutionarySearch`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when score vector ``a`` dominates ``b`` (maximize-objectives).

    ``a`` dominates ``b`` when it is at least as good on every objective
    and strictly better on at least one.  Identical vectors (ties) and
    empty vectors dominate nothing.
    """
    if len(a) != len(b):
        raise ValueError(f"score vectors differ in length: {len(a)} vs {len(b)}")
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def pareto_front(
    items: Iterable[T],
    objectives: Sequence[Callable[[T], float]],
    dedupe: bool = False,
) -> list[T]:
    """Items not dominated on the given maximize-objectives.

    An item is dominated if another is at least as good on every objective
    and strictly better on one.  Returns the front in the input order.

    Tied items (identical score vectors) never dominate each other, so by
    default *every* copy of a duplicated front point is returned;
    ``dedupe=True`` keeps only the first item of each distinct front score
    vector (the stable choice for archives that must not grow with
    re-submitted duplicates).
    """
    items = list(items)
    scores = [tuple(obj(item) for obj in objectives) for item in items]
    counts = _dominance_counts(np.array(scores, dtype=np.float64))
    front: list[T] = []
    seen_scores: set[tuple[float, ...]] = set()
    for item, vector, count in zip(items, scores, counts):
        if count or (dedupe and vector in seen_scores):
            continue
        seen_scores.add(vector)
        front.append(item)
    return front


#: Rows of the dominance matrix built at a time, so that a 10k-vector grid
#: needs a few 5 MB boolean planes, never the full ``n x n`` matrix.
_BLOCK = 512


def _dominance_counts(scores: np.ndarray, rows: np.ndarray | None = None):
    """How many of the vectors ``scores[rows]`` (default: all) dominate each."""
    rows = np.arange(len(scores)) if rows is None else rows
    counts = np.zeros(len(scores), dtype=np.int64)
    for start in range(0, len(rows), _BLOCK):
        block = scores[rows[start:start + _BLOCK]]
        at_least = np.ones((len(block), len(scores)), dtype=bool)
        better = np.zeros_like(at_least)
        for mine, theirs in zip(block.T, scores.T):
            at_least &= mine[:, None] >= theirs
            better |= mine[:, None] > theirs
        counts += (at_least & better).sum(axis=0)
    return counts


def pareto_ranks(scores: Sequence[Sequence[float]]) -> list[int]:
    """Non-dominated sorting rank of every score vector (0 = on the front).

    Rank ``r`` contains the vectors that become non-dominated once every
    vector of rank ``< r`` is removed -- the standard NSGA-style layering.
    Tied vectors always share a rank.  Returns one rank per input, in
    input order.  Peeling a layer subtracts its members' dominance rows
    from the dominator counts of the rest.
    """
    scores = np.array([tuple(s) for s in scores], dtype=np.float64)
    ranks = np.full(len(scores), -1)
    counts = _dominance_counts(scores)
    rank = 0
    while (ranks < 0).any():
        layer = np.flatnonzero((ranks < 0) & (counts == 0))
        if not len(layer):  # pragma: no cover -- dominance is a strict partial order
            raise RuntimeError("non-dominated sorting failed to peel a layer")
        ranks[layer] = rank
        counts -= _dominance_counts(scores, layer)
        rank += 1
    return ranks.tolist()
