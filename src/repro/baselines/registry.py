"""Registry of comparison architectures with their Table V routing rows."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.config import ArchConfig, ModelCategory, dense
from repro.hw.cost import CostBreakdown, cost_of
from repro.baselines.bittactical import TCL_B, tcl_b_cost
from repro.baselines.others import CAMBRICON_X, CNVLUTIN
from repro.baselines.sparten import (
    SPARTEN_AB,
    SPARTEN_CATEGORY_POWER_MW,
    sparten_cost,
)
from repro.baselines.tensordash import TDASH_AB, tdash_ab_cost


@dataclass(frozen=True)
class BaselineArch:
    """A comparison design: borrowing config + calibrated cost row.

    ``category_power_mw`` optionally overrides total power per model
    category (SparTen's sparse machinery idles on dense streams).
    """

    name: str
    config: ArchConfig
    cost: CostBreakdown
    sparsity_support: str
    category_power_mw: dict[ModelCategory, float] | None = None

    def power_mw(self, category: ModelCategory) -> float:
        if self.category_power_mw and category in self.category_power_mw:
            return self.category_power_mw[category]
        return self.cost.total_power_mw

    def routing_row(self) -> dict[str, object]:
        """One Table V row: which routing dimensions the design uses."""
        return {
            "Architecture": self.name,
            "da1": self.config.a.d1,
            "da2": self.config.a.d2,
            "da3": self.config.a.d3,
            "db1": self.config.b.d1,
            "db2": self.config.b.d2,
            "db3": self.config.b.d3,
            "Shuffle": self.config.shuffle,
            "Sparsity": self.sparsity_support,
        }


@lru_cache(maxsize=None)
def all_baselines() -> tuple[BaselineArch, ...]:
    """The paper's comparison set (Table V), built once per process."""
    return (
        BaselineArch(
            name="Baseline",
            config=dense(),
            cost=cost_of(dense()),
            sparsity_support="Dense",
        ),
        BaselineArch(
            name="BitTactical",
            config=TCL_B,
            cost=tcl_b_cost(),
            sparsity_support="Weight Only",
        ),
        BaselineArch(
            name="TensorDash",
            config=TDASH_AB,
            cost=tdash_ab_cost(),
            sparsity_support="Dual Sparsity",
        ),
        BaselineArch(
            name="SparTen",
            config=SPARTEN_AB,
            cost=sparten_cost("AB"),
            sparsity_support="Dual Sparsity",
            category_power_mw=SPARTEN_CATEGORY_POWER_MW,
        ),
        BaselineArch(
            name="Cnvlutin",
            config=CNVLUTIN,
            cost=cost_of(CNVLUTIN, label="Cnvlutin"),
            sparsity_support="Activation Only",
        ),
        BaselineArch(
            name="Cambricon-X",
            config=CAMBRICON_X,
            cost=cost_of(CAMBRICON_X, label="Cambricon-X"),
            sparsity_support="Weight Only",
        ),
    )


def baseline_names() -> list[str]:
    """Names of the Table V comparison set, as :func:`baseline` accepts them."""
    return [arch.name for arch in all_baselines()]


def baseline(name: str) -> BaselineArch:
    """Look a baseline up by (case-insensitive) name."""
    for arch in all_baselines():
        if arch.name.lower() == name.lower():
            return arch
    raise KeyError(f"unknown baseline {name!r}")
