"""Tests for the analytical tile model vs the simulator (paper Sec. V).

The closed form is the surrogate's :func:`tile_cycle_estimate`; it is
defined for densities strictly inside (0, 1), since the surrogate routes
dense GEMMs exactly.
"""

import numpy as np
import pytest

from repro.config import BorrowConfig
from repro.sim.compaction import compact_schedule
from repro.surrogate.model import tile_cycle_estimate


def tile_model(t_steps, density, d1, d2=0, d3=0, n_slots=256):
    """Expected cycles of one ``T x 16 x 16`` tile at constant density."""
    cycles = tile_cycle_estimate(
        np.array([float(t_steps)]), np.array([density]),
        BorrowConfig(d1, d2, d3), n_slots,
    )
    return float(cycles[0])


class TestTileModel:
    def test_window_floor(self):
        assert tile_model(64, 0.01, 3) >= 64 / 4

    def test_pooling_reduces_cycles(self):
        for density in (0.1, 0.2, 0.35):
            alone = tile_model(64, density, 4, 0, 0)
            pooled = tile_model(64, density, 4, 1, 1)
            assert pooled <= alone

    @pytest.mark.parametrize("density", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("d1", [2, 4, 7])
    def test_tracks_simulator_on_iid_tiles(self, density, d1):
        rng = np.random.default_rng(42)
        t = 96
        sim = []
        for _ in range(3):
            mask = rng.random((t, 16, 16)) < density
            sim.append(compact_schedule(mask, d1, 0, 0).cycles)
        assert tile_model(t, density, d1) == pytest.approx(np.mean(sim), rel=0.25)
