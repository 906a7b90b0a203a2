"""On-chip SRAM and DRAM bandwidth models (Table IV memory configuration)."""

from repro.memory.sram import SramConfig, SramModel, bank_conflict_stall_fraction
from repro.memory.dram import DramModel, dram_stall_factor

__all__ = [
    "SramConfig",
    "SramModel",
    "bank_conflict_stall_fraction",
    "DramModel",
    "dram_stall_factor",
]
