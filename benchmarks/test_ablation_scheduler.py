"""Ablation: scheduler semantics choices behind the performance model.

Quantifies the modeling decisions behind the scheduler's execution
semantics (the ``repro.sim.compaction`` module docstring) -- front-pointer
granularity (per-stream vs per-unit vs tile-wide), lane-ring wrap, and the
borrowing window depth -- on a fixed batch of tiles, so a reader can see
how much each assumption is worth and how conservative the default is.
"""

import numpy as np
import pytest

from repro.dse.report import format_table
from repro.sim.compaction import compact_schedule
from conftest import show


def _tiles(count=6, t=96, lanes=16, cols=16, density=0.2, seed=11):
    rng = np.random.default_rng(seed)
    lane_f = rng.gamma(4.0, 0.25, lanes)
    lane_f /= lane_f.mean()
    tiles = []
    for _ in range(count):
        probs = np.clip(density * lane_f[None, :, None], 0, 1)
        tiles.append(rng.random((t, lanes, cols)) < probs)
    return tiles


@pytest.fixture(scope="module")
def tiles():
    return _tiles()


def _mean_speedup(tiles, front_mode, d=(4, 0, 1), wrap=True):
    t = tiles[0].shape[0]
    cycles = [
        compact_schedule(m, *d, lane_wrap=wrap, front_mode=front_mode).cycles
        for m in tiles
    ]
    return t * len(tiles) / sum(cycles)


def test_front_mode_ablation(benchmark, tiles):
    def run():
        return {
            mode: _mean_speedup(tiles, mode) for mode in ("stream", "unit", "tile")
        }

    speedups = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {"Front granularity": mode, "Tile speedup": s}
        for mode, s in speedups.items()
    ]
    show(format_table(rows, title="Ablation -- front-pointer granularity (B(4,0,1))"))
    # Synchronization granularity orders the results: per-stream fronts
    # (default; drift absorbed by the provisioned buffers) > per-unit >
    # one tile-wide front.
    assert speedups["stream"] >= speedups["unit"] >= speedups["tile"]
    assert speedups["stream"] > 1.1 * speedups["tile"]
    # The figures the front-granularity decision is made on, pinned.
    assert {mode: round(s, 3) for mode, s in speedups.items()} == {
        "stream": 2.313, "unit": 2.118, "tile": 1.953,
    }


def test_lane_wrap_ablation(benchmark, tiles):
    def run():
        return {
            "ring (wrap)": _mean_speedup(tiles, "stream", d=(2, 2, 0), wrap=True),
            "linear (no wrap)": _mean_speedup(tiles, "stream", d=(2, 2, 0), wrap=False),
        }

    speedups = benchmark.pedantic(run, rounds=1, iterations=1)
    show(format_table(
        [{"Lane topology": k, "Tile speedup": v} for k, v in speedups.items()],
        title="Ablation -- lane lookaside topology (B(2,2,0))",
    ))
    # The ring gives edge lanes donors; it can only help.
    assert speedups["ring (wrap)"] >= speedups["linear (no wrap)"]


def test_window_depth_sweep(benchmark, tiles):
    def run():
        return {f"db1={d1}": _mean_speedup(tiles, "stream", d=(d1, 0, 0)) for d1 in (1, 2, 4, 8, 15)}

    speedups = benchmark.pedantic(run, rounds=1, iterations=1)
    show(format_table(
        [{"Window": k, "Tile speedup": v} for k, v in speedups.items()],
        title="Ablation -- lookahead depth, no lane/PE routing",
    ))
    values = list(speedups.values())
    assert values == sorted(values)  # monotone
    # Diminishing returns: the last doubling buys less than the first.
    assert values[1] - values[0] > values[-1] - values[-2]
