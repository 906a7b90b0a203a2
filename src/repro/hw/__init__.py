"""Power/area cost model calibrated against the paper's 7 nm synthesis."""

from repro.hw.components import ComponentLibrary, DEFAULT_LIBRARY, FAMILY_CALIBRATION
from repro.hw.cost import (
    CostBreakdown,
    cost_of,
    gated_power_mw,
    griffin_category_power_mw,
    griffin_cost,
    provisioned_bandwidth_scale,
)
from repro.hw.energy import EnergyReport, inference_energy

__all__ = [
    "ComponentLibrary",
    "DEFAULT_LIBRARY",
    "FAMILY_CALIBRATION",
    "CostBreakdown",
    "cost_of",
    "gated_power_mw",
    "griffin_category_power_mw",
    "griffin_cost",
    "provisioned_bandwidth_scale",
    "EnergyReport",
    "inference_energy",
]
