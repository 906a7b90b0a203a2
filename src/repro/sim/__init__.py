"""Cycle-level performance model of the Griffin borrowing architectures.

The simulator follows the paper's methodology (Sec. V): each GEMM's tile
masks are sampled from per-tile factor fields of the layer's densities,
weight (B) blocks are preprocessed into a compressed schedule, activation
(A) zeros are skipped on the fly, and the number of cycles per block
follows the borrowing strategy of the configured architecture, including
stalls from output synchronization and SRAM bank conflicts (DRAM
bandwidth optionally).  ABUF/BBUF fullness stalls are not modeled.  The
paper's analytical model, which the simulator verifies, is the
surrogate's closed form (:func:`repro.surrogate.model.tile_cycle_estimate`).
"""

from repro.sim.compaction import CompactionResult, compact_schedule
from repro.sim.shuffle import rotation_shuffle
from repro.sim.dual import dual_sparse_cycles
from repro.sim.engine import (
    EvalContext,
    LayerSimResult,
    NetworkSimResult,
    SimulationOptions,
    TileResult,
    simulate_layer,
    simulate_network,
)

__all__ = [
    "CompactionResult",
    "compact_schedule",
    "rotation_shuffle",
    "dual_sparse_cycles",
    "EvalContext",
    "simulate_layer",
    "simulate_network",
    "SimulationOptions",
    "TileResult",
    "LayerSimResult",
    "NetworkSimResult",
]
