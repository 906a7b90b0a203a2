"""ABUF/BBUF occupancy and fullness-stall estimation.

The compaction kernel gives every dot-product unit its own front pointer;
physically the units of one row share an ABUF, so the *spread* between the
fastest and slowest front in a row must fit in the provisioned window.
This module quantifies that: given a tile's per-unit schedule lengths it
estimates the occupancy distribution and the residual stall fraction when
drift exceeds the buffer -- the "ABUF/BBUF fullness" stall source the paper
lists (Sec. V).  The engine does not charge it: ``_apply_stalls`` charges
SRAM bank conflicts and, optionally, DRAM bandwidth only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BufferOccupancy:
    """Occupancy statistics of a shared operand buffer over one tile."""

    depth: int
    mean_occupancy: float
    peak_spread: float  # max front drift between units sharing the buffer

    @property
    def utilization(self) -> float:
        return min(1.0, self.mean_occupancy / self.depth) if self.depth else 0.0

    @property
    def overflow(self) -> float:
        """How far the drift exceeds the provisioned depth (0 when it fits)."""
        return max(0.0, self.peak_spread - self.depth)


def occupancy_from_progress(progress: np.ndarray, depth: int) -> BufferOccupancy:
    """Occupancy of a buffer shared by units with the given progress counts.

    ``progress`` holds each sharing unit's consumed original positions at
    some instant; the buffer must retain everything between the slowest and
    fastest unit plus the lookahead window.
    """
    progress = np.asarray(progress, dtype=float)
    if progress.size == 0:
        return BufferOccupancy(depth=depth, mean_occupancy=0.0, peak_spread=0.0)
    spread = float(progress.max() - progress.min())
    mean_occ = min(float(depth), spread + 1.0)
    return BufferOccupancy(depth=depth, mean_occupancy=mean_occ, peak_spread=spread + 1.0)


def fullness_stall_fraction(
    unit_cycles: np.ndarray,
    t_steps: int,
    depth: int,
) -> float:
    """Residual stall fraction from front drift exceeding the buffer.

    Units that finish early keep their final window pinned until the
    slowest unit catches up; the fraction of stream positions that must be
    re-fetched (or waited for) is the average drift beyond the provisioned
    depth, normalized by the tile length.  A random-walk model of the drift
    (variance grows linearly in T) gives the expected overflow in closed
    form, without tracking every cycle.  The engine does not charge it.
    """
    unit_cycles = np.asarray(unit_cycles, dtype=float)
    if unit_cycles.size <= 1 or t_steps <= 0 or depth <= 0:
        return 0.0
    spread = float(unit_cycles.max() - unit_cycles.min())
    if spread <= depth:
        return 0.0
    overflow = spread - depth
    return min(0.25, overflow / t_steps)


def expected_drift(t_steps: int, density: float, units: int) -> float:
    """Expected peak front drift between units on an i.i.d. tile.

    Per-unit progress is a sum of i.i.d. increments, so the spread of
    ``units`` random walks after ``t_steps`` steps is approximately
    ``2 sigma sqrt(2 ln units)`` with ``sigma = sqrt(t p (1-p))``.
    """
    if units <= 1 or t_steps <= 0:
        return 0.0
    variance = t_steps * max(density * (1.0 - density), 0.0)
    return 2.0 * math.sqrt(variance) * math.sqrt(2.0 * math.log(max(units, 2)))
