"""DRAM bandwidth check (Table IV: 50 GB/s, "enough to avoid any drop").

The paper provisions 50 GB/s of DRAM bandwidth so off-chip traffic never
throttles the core.  We keep the check anyway: a layer whose operand traffic
per achieved cycle would exceed the budget gets its cycles stretched, which
matters for aggressive speculative configurations (very deep borrowing on a
memory-bound layer) and for users re-running the harness with smaller
budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DramModel:
    """Off-chip memory bandwidth budget."""

    bandwidth_gbps: float = 50.0

    def bytes_per_cycle(self, frequency_mhz: float) -> float:
        return self.bandwidth_gbps * 1e9 / (frequency_mhz * 1e6)


def dram_stall_factor(
    traffic_bytes,
    cycles,
    frequency_mhz: float,
    dram: DramModel | None = None,
):
    """Multiplier (>= 1) stretching cycles to fit the DRAM budget, elementwise
    over scalar or array ``traffic_bytes`` and ``cycles`` (1 where ``cycles <= 0``)."""
    dram = dram or DramModel()
    cycles = np.asarray(cycles, dtype=float)
    available = dram.bytes_per_cycle(frequency_mhz)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.maximum(1.0, traffic_bytes / cycles / available)
    return np.where(cycles > 0, factor, 1.0)[()]


def layer_traffic_bytes(
    m: int, k: int, n: int, weight_density: float, word_bytes: int = 1,
    metadata_bits: int = 0, output_bytes: int = 1,
) -> float:
    """Off-chip traffic for one GEMM: A once, compressed B once, C once
    (elementwise over array shapes and densities).

    Weight compression ships only the nonzero values plus per-element
    metadata; activations and outputs move uncompressed (the paper's
    architectures keep A uncompressed in ASRAM for on-the-fly skipping).
    """
    a_bytes = m * k * word_bytes
    b_words = k * n * weight_density
    b_bytes = b_words * (word_bytes + metadata_bits / 8.0)
    c_bytes = m * n * output_bytes
    return a_bytes + b_bytes + c_bytes
