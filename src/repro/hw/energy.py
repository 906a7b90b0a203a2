"""Per-inference energy and energy-delay metrics.

The paper scores designs by effective TOPS/W and TOPS/mm^2 (Definition
V.1); a downstream user deploying at the edge usually asks the adjacent
question -- how many millijoules does one inference cost, and what is the
energy-delay product?  These derive directly from the cycle simulator and
the calibrated power model, so the library exposes them as first-class
metrics (and the ablation benches use EDP to show where deep borrowing
stops paying).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ArchConfig, CoreGeometry, ModelCategory, PAPER_CORE
from repro.hw.cost import CostBreakdown, cost_of, gated_power_mw
from repro.sim.engine import NetworkSimResult


@dataclass(frozen=True)
class EnergyReport:
    """Latency/energy of one network inference on one design."""

    label: str
    network: str
    cycles: float
    power_mw: float
    geometry: CoreGeometry = PAPER_CORE

    @property
    def latency_ms(self) -> float:
        return self.cycles / (self.geometry.frequency_mhz * 1e3)

    @property
    def energy_mj(self) -> float:
        """Millijoules per inference (power x latency)."""
        return self.power_mw * self.latency_ms * 1e-3

    @property
    def edp(self) -> float:
        """Energy-delay product in mJ x ms (lower is better)."""
        return self.energy_mj * self.latency_ms


def inference_energy(
    result: NetworkSimResult,
    config: ArchConfig,
    cost: CostBreakdown | None = None,
) -> EnergyReport:
    """Energy of one simulated inference.

    Uses the clock-gated operating power for the result's model category,
    so a sparse design running dense models is charged its gated power.
    """
    cost = cost or cost_of(config)
    power = gated_power_mw(cost, config, result.category)
    return EnergyReport(
        label=config.label,
        network=result.network,
        cycles=result.cycles,
        power_mw=power,
        geometry=config.geometry,
    )
