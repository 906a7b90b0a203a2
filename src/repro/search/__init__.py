"""Guided design-space search: spaces, strategies, Pareto archive, specs.

The subsystem behind ``repro search`` and
:meth:`repro.api.Session.search`.  A :class:`SearchSpace` declares
parameter domains and composable constraints (the three paper sweeps are
the :func:`paper_space` presets); a :class:`~repro.search.strategy.SearchStrategy`
proposes candidate batches through the ask/tell loop in
:mod:`repro.runtime.search`; every evaluated design lands in a
:class:`ParetoArchive` with incremental dominance bookkeeping and JSON
checkpoint/resume.  See ``docs/search.md`` for the guided tour.
"""

from repro.search.archive import ParetoArchive, SearchRecord
from repro.search.objectives import METRICS, Objective, ObjectiveSet
from repro.search.space import (
    PAPER_SPACE_NAMES,
    AreaBudget,
    Constraint,
    MaxAmuxFanin,
    MaxBmuxFanin,
    MaxMuxFanin,
    PowerBudget,
    SearchSpace,
    paper_space,
    resolve_space,
)
from repro.search.spec import FIDELITY_KINDS, SearchSpec, StrategySpec
from repro.search.strategy import (
    STRATEGY_KINDS,
    EvolutionarySearch,
    ExhaustiveSearch,
    RandomSearch,
    SearchStrategy,
    SurrogateScreenedSearch,
    build_strategy,
)

__all__ = [
    "SearchSpace",
    "paper_space",
    "resolve_space",
    "PAPER_SPACE_NAMES",
    "Constraint",
    "MaxAmuxFanin",
    "MaxBmuxFanin",
    "MaxMuxFanin",
    "AreaBudget",
    "PowerBudget",
    "Objective",
    "ObjectiveSet",
    "METRICS",
    "ParetoArchive",
    "SearchRecord",
    "SearchStrategy",
    "ExhaustiveSearch",
    "RandomSearch",
    "EvolutionarySearch",
    "build_strategy",
    "STRATEGY_KINDS",
    "FIDELITY_KINDS",
    "SurrogateScreenedSearch",
    "SearchSpec",
    "StrategySpec",
]
