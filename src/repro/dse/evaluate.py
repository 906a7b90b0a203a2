"""Evaluation of design points: suite speedups + cost -> efficiency.

A design point is scored per model category by the geometric mean of its
end-to-end speedup over the benchmark suite (Sec. V), turned into effective
TOPS/W and TOPS/mm^2 with the calibrated cost model (Definition V.1).

Everything the paper compares -- borrowing configurations, the hybrid
Griffin, and the calibrated SOTA baseline rows -- evaluates through one
path: the :class:`Design` protocol normalizes "what config runs on this
category and what does it cost" and :func:`evaluate_design` scores any of
them::

    from repro.config import ModelCategory
    from repro.dse.evaluate import EvalSettings, evaluate_design

    ev = evaluate_design("Sparse.B*", (ModelCategory.B,), EvalSettings())
    print(ev.label, ev.speedup(ModelCategory.B))

The batch/parallel entry point -- backed by the two-tier persistent cache,
so repeated figure runs answer from disk -- is
:meth:`repro.api.Session.evaluate`.  (The pre-1.0 per-family functions
``evaluate_arch`` / ``evaluate_griffin`` were removed in v2.0 after their
deprecation cycle; see the migration table in ``docs/architecture.md``.)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Protocol, Sequence, Union, runtime_checkable

from repro.baselines.registry import BaselineArch, all_baselines, baseline_names
from repro.config import (
    GRIFFIN,
    SPARSE_A_STAR,
    SPARSE_AB_STAR,
    SPARSE_B_STAR,
    ArchConfig,
    GriffinArch,
    ModelCategory,
    dense,
    parse_notation,
)
from repro.core.metrics import EfficiencyPoint, geometric_mean
from repro.hw.components import FamilyCalibration
from repro.hw.cost import (
    CostBreakdown,
    cost_of,
    gated_power_mw,
    griffin_category_power_mw,
    griffin_cost,
)
from repro.sim.engine import EvalContext, ResultCache, SimulationOptions, simulate_network
from repro.workloads.registry import (
    BENCHMARKS,
    Workload,
    WorkloadLike,
    parse_workload,
)


@dataclass(frozen=True)
class EvalSettings:
    """Suite and sampling choices for a design-space run.

    ``quick`` trims the suite to three representative benchmarks and uses
    lighter tile sampling -- what the checked-in benchmarks run by default
    so a full figure regenerates in minutes.  Construct with
    ``quick=False`` for the full six-network Table IV suite.  ``networks``
    replaces the suite entirely: each entry is any workload token
    :func:`repro.workloads.registry.parse_workload` accepts -- a preset
    name, a ``name:override`` derivation, a WorkloadSpec JSON path, or a
    :class:`~repro.workloads.registry.Workload` object (used by ``repro
    sweep --network``, ``Session.evaluate(networks=...)`` and the fast
    test sweeps).  Tokens resolve lazily at suite time, so settings stay
    cheap to pickle into worker processes.
    """

    quick: bool = True
    options: SimulationOptions = field(
        default_factory=lambda: SimulationOptions(passes_per_gemm=3, max_t_steps=64)
    )
    networks: tuple[WorkloadLike, ...] | None = None

    def suite(self, category: ModelCategory) -> list[Workload]:
        if self.networks is not None:
            resolved = [parse_workload(token) for token in self.networks]
            picked = [w for w in resolved if category in w.categories()]
            if not picked:
                names = [w.name for w in resolved]
                raise ValueError(
                    f"none of {names} exercises {category.value}"
                )
            return picked
        infos = [b for b in BENCHMARKS if category in b.categories()]
        if self.quick:
            keep = {"AlexNet", "ResNet50", "BERT"}
            quick_infos = [b for b in infos if b.name in keep]
            return quick_infos or infos
        return infos

    def suites(self, categories: Sequence[ModelCategory]) -> Suites:
        """Each category's :meth:`suite`, resolved once."""
        return {category: self.suite(category) for category in categories}


#: Each model category's benchmark suite, in suite order.
Suites = Mapping[ModelCategory, Sequence[Workload]]


def category_speedup(
    config: ArchConfig,
    category: ModelCategory,
    settings: EvalSettings | None = None,
    cache: EvalContext | ResultCache | None = None,
) -> float:
    """Geometric-mean end-to-end speedup of a config on one category.

    ``cache`` is the :class:`~repro.sim.engine.EvalContext` to simulate
    in, or a store (or ``None``) to wrap in a throwaway one.
    """
    settings = settings or EvalSettings()
    speedups = [
        simulate_network(
            info.network, config, category, settings.options, cache=cache
        ).speedup
        for info in settings.suite(category)
    ]
    return geometric_mean(speedups)


@dataclass(frozen=True)
class DesignEvaluation:
    """A design point's score card across model categories."""

    label: str
    points: tuple[EfficiencyPoint, ...]

    def point(self, category: ModelCategory) -> EfficiencyPoint:
        for pt in self.points:
            if pt.category == category.value:
                return pt
        raise KeyError(f"{self.label} was not evaluated on {category}")

    def speedup(self, category: ModelCategory) -> float:
        return self.point(category).speedup


@runtime_checkable
class Design(Protocol):
    """Anything the session API can evaluate.

    A design answers three questions: which borrowing configuration runs a
    given model category (Griffin morphs, everything else is fixed), what
    does the hardware cost, and -- given a simulated speedup -- what is the
    resulting efficiency point (power may be category-dependent through
    clock gating or calibrated per-category rows).  Implementations must be
    picklable so :func:`repro.runtime.runner.evaluate_in_pool` can ship them
    to worker processes.
    """

    @property
    def label(self) -> str: ...

    def config_for(self, category: ModelCategory) -> ArchConfig: ...

    def cost(self) -> CostBreakdown: ...

    def efficiency_point(
        self, category: ModelCategory, speedup: float
    ) -> EfficiencyPoint: ...


class _Memoized:
    """A frozen design's fingerprint and cost (from the subclass's ``_cost``),
    each computed once per object."""

    @cached_property
    def fingerprint(self) -> str:
        return _fingerprint(self)

    def cost(self) -> CostBreakdown:
        return self._cost


@dataclass(frozen=True)
class ConfigDesign(_Memoized):
    """A fixed borrowing configuration, optionally with calibrated cost.

    ``calibration`` swaps the family calibration used by the cost model
    (the transcribed SOTA rows); explicit ``power_mw`` / ``area_um2``
    override the model entirely.  With no overrides this reproduces the
    historical ``evaluate_arch`` scoring exactly: calibrated cost, and the
    sparse machinery clock-gated on categories it cannot exploit.
    """

    config: ArchConfig
    calibration: FamilyCalibration | None = None
    power_mw: float | None = None
    area_um2: float | None = None

    @property
    def label(self) -> str:
        return self.config.label

    def config_for(self, category: ModelCategory) -> ArchConfig:
        return self.config

    @cached_property
    def _cost(self) -> CostBreakdown:
        return cost_of(self.config, calibration=self.calibration)

    def efficiency_point(
        self, category: ModelCategory, speedup: float
    ) -> EfficiencyPoint:
        cost = self.cost()
        area = self.area_um2 if self.area_um2 is not None else cost.total_area_um2
        if self.power_mw is not None:
            power = self.power_mw
        else:
            # Table VII power is the sparse operating point; idle sparse
            # machinery clock-gates on the other categories.
            power = gated_power_mw(cost, self.config, category)
        return EfficiencyPoint(
            label=self.config.label,
            category=category.value,
            speedup=speedup,
            power_mw=power,
            area_um2=area,
            geometry=self.config.geometry,
        )


@dataclass(frozen=True)
class GriffinDesign(_Memoized):
    """The hybrid: per category it morphs, the cost stays fixed."""

    griffin: GriffinArch = field(default_factory=lambda: GRIFFIN)

    @property
    def label(self) -> str:
        return self.griffin.label

    def config_for(self, category: ModelCategory) -> ArchConfig:
        return self.griffin.config_for(category)

    @cached_property
    def _cost(self) -> CostBreakdown:
        return griffin_cost(self.griffin)

    def efficiency_point(
        self, category: ModelCategory, speedup: float
    ) -> EfficiencyPoint:
        cost = self.cost()
        return EfficiencyPoint(
            label=self.griffin.label,
            category=category.value,
            speedup=speedup,
            power_mw=griffin_category_power_mw(self.griffin, cost, category),
            area_um2=cost.total_area_um2,
            geometry=self.griffin.geometry,
        )


@dataclass(frozen=True)
class BaselineDesign(_Memoized):
    """A Table V comparison architecture with its calibrated cost row.

    Power per category comes from the baseline's calibrated per-category
    row when it has one (SparTen), otherwise from clock-gating the
    calibrated cost -- the same treatment the Fig. 8 reproduction applies.
    """

    arch: BaselineArch

    @property
    def label(self) -> str:
        return self.arch.name

    def config_for(self, category: ModelCategory) -> ArchConfig:
        return self.arch.config

    def cost(self) -> CostBreakdown:
        return self.arch.cost

    def efficiency_point(
        self, category: ModelCategory, speedup: float
    ) -> EfficiencyPoint:
        if self.arch.category_power_mw and category in self.arch.category_power_mw:
            power = self.arch.category_power_mw[category]
        else:
            power = gated_power_mw(self.arch.cost, self.arch.config, category)
        return EfficiencyPoint(
            label=self.arch.name,
            category=category.value,
            speedup=speedup,
            power_mw=power,
            area_um2=self.arch.cost.total_area_um2,
            geometry=self.arch.config.geometry,
        )


#: What :func:`as_design` accepts: a design, any of the raw architecture
#: objects, or a name understood by :func:`parse_design`.
DesignLike = Union["Design", ArchConfig, GriffinArch, BaselineArch, str]

#: Starred Table VI design points by their paper names (lower-cased).
_STARRED: dict[str, ArchConfig] = {
    "sparse.a*": SPARSE_A_STAR,
    "a*": SPARSE_A_STAR,
    "sparse.b*": SPARSE_B_STAR,
    "b*": SPARSE_B_STAR,
    "sparse.ab*": SPARSE_AB_STAR,
    "ab*": SPARSE_AB_STAR,
}


@lru_cache(maxsize=1024)
def parse_design(text: str) -> Design:
    """Parse any design name into a :class:`Design`, uniformly.

    Accepted, all case-insensitive: ``"Dense"`` / ``"Baseline"``,
    ``"Griffin"``, the starred Table VI points (``"Sparse.B*"`` or just
    ``"B*"``), every Table V baseline name (``"SparTen"``,
    ``"TensorDash"``, ``"BitTactical"``, ``"Cnvlutin"``,
    ``"Cambricon-X"``), and the paper's borrowing notation
    (``"B(4,0,1,on)"``, ``"AB(2,0,0,2,0,1,on)"``).

    Errors name the offending token and list every accepted form; a token
    that *looks* like borrowing notation (``"B(4,0)"``) surfaces the
    notation parser's specific complaint instead of the generic list.
    Each token's (immutable) design is built once and shared.
    """
    key = text.strip().lower()
    if key in ("dense", "baseline"):
        return ConfigDesign(dense())
    if key == "griffin":
        return GriffinDesign(GRIFFIN)
    if key in _STARRED:
        return ConfigDesign(_STARRED[key])
    for arch in all_baselines():
        if arch.name.lower() == key:
            return BaselineDesign(arch)
    try:
        return ConfigDesign(parse_notation(text))
    except ValueError as exc:
        if "(" in key:
            # The token attempted notation: the specific parse error
            # ("B(...) takes 3 distances, got 2") beats the generic list.
            raise ValueError(f"unrecognized design {text!r}: {exc}") from None
        raise ValueError(_parse_design_error(text)) from None


def _parse_design_error(text: str) -> str:
    """The full 'what would have been accepted' message for a bad token."""
    starred = sorted({name for name in _STARRED if name.startswith("sparse")})
    return (
        f"unrecognized design {text!r}; accepted forms (case-insensitive):\n"
        f"  - named designs: Dense (alias Baseline), Griffin\n"
        f"  - starred Table VI points: "
        + ", ".join(_STARRED[name].label for name in starred)
        + f" (short forms {', '.join(name.upper() for name in ('a*', 'b*', 'ab*'))})\n"
        f"  - Table V baselines: {', '.join(baseline_names())}\n"
        f"  - borrowing notation: 'A(da1,da2,da3[,on|off])', "
        f"'B(db1,db2,db3[,on|off])', 'AB(da1,da2,da3,db1,db2,db3[,on|off])', "
        f"e.g. 'B(4,0,1,on)'"
    )


def as_design(obj: DesignLike) -> Design:
    """Coerce any design-like object to a :class:`Design`."""
    if isinstance(obj, _Memoized):  # the concrete designs: skip the protocol check
        return obj
    if isinstance(obj, ArchConfig):
        return ConfigDesign(obj)
    if isinstance(obj, GriffinArch):
        return GriffinDesign(obj)
    if isinstance(obj, BaselineArch):
        return BaselineDesign(obj)
    if isinstance(obj, str):
        return parse_design(obj)
    if isinstance(obj, Design):
        return obj
    raise TypeError(
        f"cannot evaluate {obj!r}: expected an ArchConfig, GriffinArch, "
        f"BaselineArch, design name, or Design implementation"
    )


#: Bump when the canonical design serialization below changes shape, so
#: externally stored fingerprints (serve coalesce keys, client caches)
#: cannot silently collide across versions.
DESIGN_FINGERPRINT_VERSION = 1


def _canonical(value: object) -> object:
    """JSON-stable canonical form of a design's content.

    Dataclasses flatten to ``{"__class__": name, field: ...}`` in field
    order, enums to their values, mappings to string-keyed dicts (JSON
    serialization sorts the keys).  Anything else non-primitive falls
    back to ``repr`` -- stable for the frozen value objects designs are
    built from.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": type(value).__name__,
            **{f.name: _canonical(getattr(value, f.name)) for f in fields(value)},
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(_canonical(k)): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(v) for v in value]
        return sorted(items, key=repr) if isinstance(value, (set, frozenset)) else items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def design_fingerprint(design: DesignLike) -> str:
    """Stable content fingerprint of a design (the architecture axis).

    The dual of :func:`repro.workloads.models.network_fingerprint` on the
    design side: two designs fingerprint identically iff their canonical
    content -- configuration fields, calibration, cost overrides --
    matches, independent of how the object was parsed or which process
    built it.  ``repro serve`` coalesces concurrent requests on
    (design fingerprints x workload fingerprints x options); see
    ``docs/serve.md``.  The built-in designs keep theirs once computed.
    """
    design = as_design(design)
    return design.fingerprint if isinstance(design, _Memoized) else _fingerprint(design)


def _fingerprint(design: Design) -> str:
    payload = json.dumps(
        {"v": DESIGN_FINGERPRINT_VERSION, "design": _canonical(design)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def score_design(
    design: Design,
    categories: Sequence[ModelCategory],
    suites: Suites,
    speedup: Callable[[ModelCategory, Workload], float],
) -> DesignEvaluation:
    """A design's score card: per category, the geometric mean of
    ``speedup(category, workload)`` over its suite, in suite order, as the
    design's efficiency point.  :func:`evaluate_design` and both
    executors of :mod:`repro.runtime.runner` score here."""
    return DesignEvaluation(design.label, tuple(
        design.efficiency_point(
            category, geometric_mean([speedup(category, info) for info in suites[category]])
        )
        for category in categories
    ))


def evaluate_design(
    design: DesignLike,
    categories: Sequence[ModelCategory],
    settings: EvalSettings | None = None,
    cache: EvalContext | ResultCache | None = None,
    suites: Suites | None = None,
) -> DesignEvaluation:
    """Evaluate one design across model categories (the single code path).

    This is the design-at-a-time unit of work, in the context ``cache``
    (as for :func:`category_speedup`), over ``suites`` (default: the
    settings'); the batched, network-at-a-time, cache-backed entry point
    is :meth:`repro.api.Session.evaluate`.
    """
    design = as_design(design)
    settings = settings or EvalSettings()
    context = EvalContext.of(cache)
    return score_design(
        design, categories, suites or settings.suites(categories),
        lambda category, info: simulate_network(
            info.network, design.config_for(category), category,
            settings.options, cache=context,
        ).speedup,
    )
