"""Declarative design spaces for guided search: domains + constraints.

A :class:`SearchSpace` names the finite domain of every borrowing
distance (``da1..da3``, ``db1..db3``) and the shuffle flag, plus a list of
composable feasibility :class:`Constraint` objects -- the mux fan-in caps
the paper uses to bound its sweeps (larger MUXes "severely impact power
efficiency"), area/energy budgets priced by :mod:`repro.hw.cost`, or
any callable that takes an :class:`ArchConfig` and returns a bool.  The
three paper spaces (Figs. 5-7) are instances (:func:`paper_space`), so the
guided-search machinery subsumes the legacy hand-bounded grids in
:mod:`repro.dse.explorer` -- which are now thin wrappers over this module.

Enumeration order is the deterministic nested-loop order
``da1 -> da2 -> da3 -> db1 -> db2 -> db3 -> shuffle`` with each domain
iterated in its declared order; for the paper spaces this reproduces the
legacy explorer lists element for element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.config import ArchConfig, BorrowConfig, ModelCategory
from repro.core.overhead import overhead_of
from repro.hw.cost import cost_of


# ----------------------------------------------------------------------
# Constraints.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MaxAmuxFanin:
    """Cap the A-operand multiplexer fan-in (the Fig. 5/7 bound)."""

    limit: int

    def __call__(self, config: ArchConfig) -> bool:
        return overhead_of(config).amux_fanin <= self.limit

    def describe(self) -> str:
        return f"AMUX fan-in <= {self.limit}"


@dataclass(frozen=True)
class MaxBmuxFanin:
    """Cap the B-operand multiplexer fan-in."""

    limit: int

    def __call__(self, config: ArchConfig) -> bool:
        return overhead_of(config).bmux_fanin <= self.limit

    def describe(self) -> str:
        return f"BMUX fan-in <= {self.limit}"


@dataclass(frozen=True)
class MaxMuxFanin:
    """Cap both operand-mux fan-ins at once (the Fig. 6 bound)."""

    limit: int

    def __call__(self, config: ArchConfig) -> bool:
        ovh = overhead_of(config)
        return max(ovh.amux_fanin, ovh.bmux_fanin) <= self.limit

    def describe(self) -> str:
        return f"AMUX and BMUX fan-in <= {self.limit}"


@dataclass(frozen=True)
class AreaBudget:
    """Reject designs whose Table VII-style area exceeds a budget (k um^2)."""

    max_kum2: float

    def __call__(self, config: ArchConfig) -> bool:
        return cost_of(config).total_area_kum2 <= self.max_kum2

    def describe(self) -> str:
        return f"area <= {self.max_kum2:g} k um^2"


@dataclass(frozen=True)
class PowerBudget:
    """Reject designs whose sparse operating power exceeds a budget (mW)."""

    max_mw: float

    def __call__(self, config: ArchConfig) -> bool:
        return cost_of(config).total_power_mw <= self.max_mw

    def describe(self) -> str:
        return f"power <= {self.max_mw:g} mW"


#: Anything usable as a feasibility constraint: callable on an
#: :class:`ArchConfig`, with an optional ``describe()`` for reports.
Constraint = Callable[[ArchConfig], bool]


#: JSON constraint keys accepted by :meth:`SearchSpace.from_dict`.
_CONSTRAINT_KEYS: dict[str, Callable[[float], Constraint]] = {
    "max_amux_fanin": lambda v: MaxAmuxFanin(int(v)),
    "max_bmux_fanin": lambda v: MaxBmuxFanin(int(v)),
    "max_fanin": lambda v: MaxMuxFanin(int(v)),
    "max_area_kum2": lambda v: AreaBudget(float(v)),
    "max_power_mw": lambda v: PowerBudget(float(v)),
}

_DOMAIN_KEYS = ("da1", "da2", "da3", "db1", "db2", "db3")


# ----------------------------------------------------------------------
# The space itself.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSpace:
    """A finite, constrained design space over borrowing configurations.

    Each distance field holds the tuple of values that dimension may take
    (in iteration order); ``shuffle`` the allowed flag settings.  A config
    is *feasible* when every constraint accepts it.  Spaces are frozen and
    hashable, so they can parameterize strategies and specs directly.
    """

    name: str = "custom"
    da1: tuple[int, ...] = (0,)
    da2: tuple[int, ...] = (0,)
    da3: tuple[int, ...] = (0,)
    db1: tuple[int, ...] = (0,)
    db2: tuple[int, ...] = (0,)
    db3: tuple[int, ...] = (0,)
    shuffle: tuple[bool, ...] = (False, True)
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        for key in _DOMAIN_KEYS:
            domain = getattr(self, key)
            if not domain:
                raise ValueError(f"domain {key} must not be empty")
            if len(set(domain)) != len(domain):
                raise ValueError(f"domain {key} has duplicate values: {domain}")
            if any(not isinstance(v, int) or isinstance(v, bool) or v < 0
                   for v in domain):
                raise ValueError(
                    f"domain {key} must hold non-negative integers, got {domain}"
                )
        if not self.shuffle or len(set(self.shuffle)) != len(self.shuffle):
            raise ValueError(f"shuffle domain must be non-empty and unique, "
                             f"got {self.shuffle}")

    # -- enumeration ---------------------------------------------------

    @property
    def grid_size(self) -> int:
        """Number of raw grid points, before constraint filtering."""
        size = len(self.shuffle)
        for key in _DOMAIN_KEYS:
            size *= len(getattr(self, key))
        return size

    def feasible(self, config: ArchConfig) -> bool:
        """True when every constraint accepts the config."""
        return all(constraint(config) for constraint in self.constraints)

    def __iter__(self) -> Iterator[ArchConfig]:
        """Feasible configs in deterministic nested-loop order.

        Configs are deduplicated by :attr:`ArchConfig.notation` -- the
        design identity used by archives and strategies throughout the
        subsystem.  (The only grid points sharing a notation are the
        shuffle variants of the all-dense design, whose shuffler is vacuous
        -- it has no sparse operand path to balance -- so dropping the
        duplicate loses nothing.)
        """
        seen: set[str] = set()
        for da1 in self.da1:
            for da2 in self.da2:
                for da3 in self.da3:
                    for db1 in self.db1:
                        for db2 in self.db2:
                            for db3 in self.db3:
                                for shuffle in self.shuffle:
                                    config = ArchConfig(
                                        a=BorrowConfig(da1, da2, da3),
                                        b=BorrowConfig(db1, db2, db3),
                                        shuffle=shuffle,
                                    )
                                    if (
                                        config.notation not in seen
                                        and self.feasible(config)
                                    ):
                                        seen.add(config.notation)
                                        yield config

    def configs(self) -> list[ArchConfig]:
        """The feasible configs as a list (the exhaustive grid)."""
        return list(self)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __contains__(self, config: object) -> bool:
        if not isinstance(config, ArchConfig):
            return False
        return (
            config.a.d1 in self.da1
            and config.a.d2 in self.da2
            and config.a.d3 in self.da3
            and config.b.d1 in self.db1
            and config.b.d2 in self.db2
            and config.b.d3 in self.db3
            and config.shuffle in self.shuffle
            and self.feasible(config)
        )

    # -- category inference --------------------------------------------

    def default_category(self) -> ModelCategory:
        """The sparse model category this space targets.

        Inferred from which operand sides can borrow at all: a space whose
        ``db*`` domains allow borrowing targets weight sparsity, ``da*``
        activation sparsity, both the dual category.  An all-dense space
        (no borrowing anywhere) targets ``DNN.dense``.
        """
        a_side = any(max(getattr(self, k)) > 0 for k in ("da1", "da2", "da3"))
        b_side = any(max(getattr(self, k)) > 0 for k in ("db1", "db2", "db3"))
        return ModelCategory.from_sparsity(a_side, b_side)

    # -- mutation / sampling (seeded-deterministic) --------------------

    def sample(self, rng, k: int) -> list[ArchConfig]:
        """``k`` distinct feasible configs, deterministic in ``rng``."""
        pool = self.configs()
        if k >= len(pool):
            return pool
        return rng.sample(pool, k)

    def mutate(self, config: ArchConfig, rng) -> ArchConfig:
        """A feasible single-field mutation of ``config``.

        Picks one mutable field and moves it to an *adjacent* value in its
        declared domain (borrowing distances form a natural scale, so local
        steps preserve most of a parent's character; the boolean shuffle
        flag just flips).  Infeasible or identity steps are rejected and
        redrawn; if the neighbourhood is fully infeasible, falls back to a
        random feasible config so the search never stalls.
        """
        values = {
            "da1": config.a.d1, "da2": config.a.d2, "da3": config.a.d3,
            "db1": config.b.d1, "db2": config.b.d2, "db3": config.b.d3,
        }
        mutable = [k for k in _DOMAIN_KEYS if len(getattr(self, k)) > 1]
        if len(self.shuffle) > 1:
            mutable.append("shuffle")
        if not mutable:
            return config
        for _ in range(8 * len(mutable)):
            key = rng.choice(mutable)
            mutated = dict(values)
            flip = config.shuffle
            if key == "shuffle":
                flip = not config.shuffle
            else:
                domain = getattr(self, key)
                if values[key] not in domain:
                    continue  # parent from outside the space: try another field
                index = domain.index(values[key])
                step = rng.choice([-1, 1])
                mutated[key] = domain[max(0, min(len(domain) - 1, index + step))]
                if mutated[key] == values[key]:
                    continue
            candidate = ArchConfig(
                a=BorrowConfig(mutated["da1"], mutated["da2"], mutated["da3"]),
                b=BorrowConfig(mutated["db1"], mutated["db2"], mutated["db3"]),
                shuffle=flip,
            )
            if candidate != config and self.feasible(candidate):
                return candidate
        pool = [c for c in self if c != config]
        if not pool:
            return config
        return rng.choice(pool)

    # -- (de)serialization ---------------------------------------------

    def describe(self) -> str:
        """One-line summary for CLI headers and reports."""
        domains = ", ".join(
            f"{k}={list(getattr(self, k))}"
            for k in _DOMAIN_KEYS
            if getattr(self, k) != (0,)
        ) or "dense only"
        parts = [f"space {self.name!r}: {domains}, shuffle={list(self.shuffle)}"]
        for constraint in self.constraints:
            text = (
                constraint.describe()
                if hasattr(constraint, "describe")
                else repr(constraint)
            )
            parts.append(f"s.t. {text}")
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """JSON form (named constraints only; predicates cannot serialize)."""
        payload: dict = {"name": self.name}
        for key in _DOMAIN_KEYS:
            if getattr(self, key) != (0,):
                payload[key] = list(getattr(self, key))
        payload["shuffle"] = list(self.shuffle)
        for constraint in self.constraints:
            if isinstance(constraint, MaxAmuxFanin):
                payload["max_amux_fanin"] = constraint.limit
            elif isinstance(constraint, MaxBmuxFanin):
                payload["max_bmux_fanin"] = constraint.limit
            elif isinstance(constraint, MaxMuxFanin):
                payload["max_fanin"] = constraint.limit
            elif isinstance(constraint, AreaBudget):
                payload["max_area_kum2"] = constraint.max_kum2
            elif isinstance(constraint, PowerBudget):
                payload["max_power_mw"] = constraint.max_mw
            else:
                raise ValueError(
                    f"constraint {constraint!r} cannot be serialized to JSON; "
                    f"use the named constraint keys {sorted(_CONSTRAINT_KEYS)}"
                )
        return payload

    @staticmethod
    def from_dict(data: Mapping) -> "SearchSpace":
        """Build a space from its JSON form (the ``SearchSpec`` shape).

        Accepted keys: ``name``, the six distance domains (``da1`` ...
        ``db3``, each a list of ints or a single int), ``shuffle`` (list of
        bools, a single bool, or omitted for both), and the named
        constraints ``max_amux_fanin`` / ``max_bmux_fanin`` / ``max_fanin``
        / ``max_area_kum2`` / ``max_power_mw``.
        """
        known = {"name", "shuffle", *_DOMAIN_KEYS, *_CONSTRAINT_KEYS}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown search-space keys {sorted(unknown)}; "
                f"accepted: {sorted(known)}"
            )

        def domain(value) -> tuple[int, ...]:
            if isinstance(value, int):
                return (value,)
            return tuple(int(v) for v in value)

        shuffle = data.get("shuffle")
        if shuffle is None:
            shuffle_domain: tuple[bool, ...] = (False, True)
        elif isinstance(shuffle, bool):
            shuffle_domain = (shuffle,)
        else:
            shuffle_domain = tuple(bool(v) for v in shuffle)
        constraints = tuple(
            build(data[key])
            for key, build in _CONSTRAINT_KEYS.items()
            if key in data
        )
        return SearchSpace(
            name=str(data.get("name", "custom")),
            **{key: domain(data[key]) for key in _DOMAIN_KEYS if key in data},
            shuffle=shuffle_domain,
            constraints=constraints,
        )


# ----------------------------------------------------------------------
# The paper's three spaces as instances.
# ----------------------------------------------------------------------


def paper_space(name: str) -> SearchSpace:
    """The Fig. 5/6/7 sweep space (``"b"`` / ``"a"`` / ``"ab"``) as a
    :class:`SearchSpace`; enumeration reproduces the legacy explorer lists
    exactly."""
    key = name.lower()
    if key == "b":
        # Fig. 5: weight-only, AMUX fan-in <= 8, db1 > 1 (the paper removes
        # db1 = 1 as far from the optimal points).
        return SearchSpace(
            name="b",
            db1=(2, 3, 4, 6),
            db2=(0, 1, 2),
            db3=(0, 1, 2),
            constraints=(MaxAmuxFanin(8),),
        )
    if key == "a":
        # Fig. 6: activation-only, both mux fan-ins <= 8.
        return SearchSpace(
            name="a",
            da1=(1, 2, 3, 4),
            da2=(0, 1, 2),
            da3=(0, 1, 2),
            constraints=(MaxMuxFanin(8),),
        )
    if key == "ab":
        # Fig. 7: dual-sparse, AMUX fan-in <= 16; da3 > 0 never reaches the
        # front (inflates the AMUX) and da1 > 2 blows up the BBUF, so both
        # are excluded by domain; shuffling replaces da2 at ~2% of its cost.
        return SearchSpace(
            name="ab",
            da1=(1, 2),
            db1=(1, 2, 3, 4),
            db2=(0, 1),
            db3=(0, 1, 2),
            constraints=(MaxAmuxFanin(16),),
        )
    raise ValueError(
        f"unknown paper space {name!r}; valid spaces:\n"
        f"  - 'b'  (Fig. 5 Sparse.B sweep)\n"
        f"  - 'a'  (Fig. 6 Sparse.A sweep)\n"
        f"  - 'ab' (Fig. 7 Sparse.AB sweep)"
    )


#: Names accepted by :func:`paper_space` (and the ``repro search`` CLI).
PAPER_SPACE_NAMES: tuple[str, ...] = ("a", "b", "ab")


def resolve_space(space: "SearchSpace | Mapping | str") -> SearchSpace:
    """Coerce a space argument: an instance, a JSON dict, or a preset name."""
    if isinstance(space, SearchSpace):
        return space
    if isinstance(space, str):
        return paper_space(space)
    if isinstance(space, Mapping):
        if set(space) == {"preset"}:
            return paper_space(str(space["preset"]))
        return SearchSpace.from_dict(space)
    raise TypeError(
        f"cannot build a search space from {space!r}: expected a SearchSpace, "
        f"a preset name ({', '.join(PAPER_SPACE_NAMES)}), or a domain mapping"
    )
