"""The paper's "analytical model, verified by a simulator" layering.

Sec. V builds an analytical overhead/performance model and verifies it
against the cycle simulator; this bench reproduces that verification pass:
the surrogate's closed-form tile model (the same function that pre-ranks
designs in multi-fidelity search) must track the simulator across the
density and window grid.
"""

import numpy as np

from repro.config import BorrowConfig
from repro.dse.report import format_table
from repro.sim.compaction import compact_schedule
from repro.surrogate.model import tile_cycle_estimate
from conftest import show


def test_tile_model_tracks_simulator(benchmark):
    rng = np.random.default_rng(2022)
    grid = [(d, p) for d in (2, 4, 7) for p in (0.1, 0.2, 0.35, 0.5)]

    def run():
        rows = []
        for d1, density in grid:
            sims = [
                compact_schedule(rng.random((96, 16, 16)) < density, d1, 0, 0).cycles
                for _ in range(3)
            ]
            model = float(tile_cycle_estimate(
                np.array([96.0]), np.array([density]), BorrowConfig(d1), 16 * 16
            )[0])
            rows.append(
                {
                    "d1": d1,
                    "density": density,
                    "sim cycles": float(np.mean(sims)),
                    "model cycles": model,
                    "error%": 100.0 * (model / np.mean(sims) - 1.0),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    show(format_table(rows, title="Analytical tile model vs cycle simulator"))
    errors = [abs(r["error%"]) for r in rows]
    assert max(errors) < 25.0
    assert float(np.mean(errors)) < 12.0
