"""Core models of the Griffin paper: overheads, metrics, hybrid morphing."""

from repro.core.overhead import HardwareOverhead, overhead_of
from repro.core.metrics import (
    EfficiencyPoint,
    effective_tops_per_mm2,
    effective_tops_per_watt,
    geometric_mean,
)
from repro.core.griffin import MorphComparison, compare_morph_vs_downgrade

__all__ = [
    "HardwareOverhead",
    "overhead_of",
    "EfficiencyPoint",
    "effective_tops_per_watt",
    "effective_tops_per_mm2",
    "geometric_mean",
    "MorphComparison",
    "compare_morph_vs_downgrade",
]
