"""The array GEMM envelope against its scalar oracle, row for row.

:func:`repro.sim.engine.gemm_envelope` (the window floor, the dense cap,
the SRAM bank-conflict stall and the optional DRAM stall) is what the
engine charges once per layer and the surrogate once per GEMM table.
Every GEMM of the six Table IV workloads, on Dense, Sparse.A*,
Sparse.B*, Sparse.AB* and Griffin, on every model category, with the
DRAM check on and off, at schedule cycles from below the floor to above
dense, must equal the one-GEMM scalar form (``stall_oracle``) exactly.
"""

import numpy as np
import pytest

from repro.config import SPARSE_A_STAR, SPARSE_AB_STAR, SPARSE_B_STAR, ModelCategory, dense
from repro.core.overhead import overhead_of
from repro.dse.evaluate import as_design
from repro.gemm.tiling import tile_grid
from repro.memory import SramModel, bank_conflict_stall_fraction, dram_stall_factor
from repro.sim import engine
from repro.sim.engine import (
    EvalContext,
    SimulationOptions,
    dram_traffic,
    effective_sparsity,
    gemm_envelope,
    scheduling_config,
    simulate_layer,
)
from repro.workloads.registry import BENCHMARKS, parse_workload
import stall_oracle

DESIGNS = (dense(), SPARSE_A_STAR, SPARSE_B_STAR, SPARSE_AB_STAR, "Griffin")

#: Where each GEMM's schedule cycles sit between its floor and dense.
SPREAD = (0.05, 0.25, 0.5, 0.75, 0.97)


def _rows(workload, config, category):
    """(layer, gemm, dense cycles, scheduling config) of every GEMM."""
    rows = []
    for layer in workload.network.layers:
        for gemm in layer.spec.gemms():
            sparsity = effective_sparsity(gemm, layer, config, category)
            grid = tile_grid(gemm, config.geometry)
            rows.append((layer, gemm, grid.dense_cycles, scheduling_config(config, sparsity)))
    return rows


def _cycles(dense_cycles, sched):
    """Schedule cycles below the floor, at it, between it and dense, at
    dense and above it."""
    floor = stall_oracle.min_cycles(dense_cycles, sched)
    between = [floor + (dense_cycles - floor) * t for t in SPREAD]
    return [0.5 * floor, floor, *between, float(dense_cycles), 1.5 * dense_cycles]


@pytest.mark.parametrize("include_dram", [False, True])
@pytest.mark.parametrize("workload_name", [info.name for info in BENCHMARKS])
def test_envelope_equals_the_scalar_oracle(workload_name, include_dram):
    options = SimulationOptions(include_dram=include_dram)
    workload = parse_workload(workload_name)
    charged = {"floor": 0, "dense": 0, "dram": 0}
    for design in DESIGNS:
        for category in ModelCategory:
            config = as_design(design).config_for(category)
            rows = [
                (layer, gemm, dense_cycles, sched, cycles)
                for layer, gemm, dense_cycles, sched in _rows(workload, config, category)
                for cycles in _cycles(dense_cycles, sched)
            ]
            layers, gemms, dense_cycles, scheds, cycles = zip(*rows)
            traffic = dram_traffic(
                gemms, layers, category, overhead_of(config).metadata_bits
            ) if include_dram else None
            envelope, floor = gemm_envelope(
                np.array(cycles), np.array(dense_cycles), scheds, config, options, traffic
            )
            for got, low, (layer, gemm, dense_c, sched, raw) in zip(
                envelope.tolist(), floor.tolist(), rows
            ):
                assert low == stall_oracle.min_cycles(dense_c, sched)
                expected = stall_oracle.envelope(
                    raw, gemm, layer, config, sched, category, dense_c, options
                )
                assert got == expected
                charged["floor"] += raw == low
                charged["dense"] += got == dense_c
                if include_dram:
                    sram_only = stall_oracle.envelope(
                        raw, gemm, layer, config, sched, category, dense_c,
                        SimulationOptions(),
                    )
                    charged["dram"] += got != sram_only
    assert charged["floor"] > 0 and charged["dense"] > 0
    if include_dram and workload_name in ("AlexNet", "BERT"):
        assert charged["dram"] > 0  # their FC layers outrun 50 GB/s


def test_one_shared_scheduling_config_broadcasts():
    """A table passes one scheduling config for all its rows."""
    config = SPARSE_B_STAR
    cycles = np.array([100.0, 700.0, 2000.0])
    dense_cycles = np.array([1000, 1000, 1000])
    options = SimulationOptions()
    shared, shared_floor = gemm_envelope(cycles, dense_cycles, config, config, options)
    each, each_floor = gemm_envelope(cycles, dense_cycles, [config] * 3, config, options)
    assert shared.tolist() == each.tolist()
    assert shared_floor.tolist() == each_floor.tolist() == [1000 / 5] * 3  # B(4,0,1)


def test_no_stalls_clamps_only():
    options = SimulationOptions(include_stalls=False)
    cycles, _ = gemm_envelope(
        np.array([1.0, 500.0, 5000.0]), np.array([1000] * 3), SPARSE_B_STAR,
        SPARSE_B_STAR, options,
    )
    assert cycles.tolist() == [200.0, 500.0, 1000.0]


def test_floor_rows_reach_both_conflict_branches():
    """At the floor of an undowngraded design the fetch rate equals the
    provisioned scale, so ``load == 1`` (the balls-in-bins branch); a
    downgraded row's floor and any row above it take the collision
    branch.  Both, and the guards, equal the scalar form exactly."""
    requests = np.array([0.5, 1.0, 1.5, 4.0, 15.999, 16.0, 16.0001, 40.0])
    array = bank_conflict_stall_fraction(requests)
    for value, r in zip(array.tolist(), requests.tolist()):
        assert value == stall_oracle.bank_conflict_stall_fraction(r)
    assert bank_conflict_stall_fraction(requests, banks=1).tolist() == [0.0] * 8
    sram = SramModel(bw_scale_a=10.0, bw_scale_b=10.0)
    for rate, value in zip([1.0, 10.0, 12.5], sram.stall_fraction(
        np.array([1.0, 10.0, 12.5]), np.array([1.0, 10.0, 12.5])
    ).tolist()):
        assert value == stall_oracle.sram_stall_fraction(rate, 10.0)


def test_dram_factor_is_elementwise():
    traffic = np.array([1000.0, 125_000.0, 100.0])
    cycles = np.array([1000.0, 1000.0, 0.0])
    factors = dram_stall_factor(traffic, cycles, 800.0).tolist()
    assert factors == [
        stall_oracle.dram_stall_factor(t, c, 800.0) for t, c in zip(traffic, cycles)
    ]


@pytest.mark.parametrize("category", [ModelCategory.B, ModelCategory.AB])
def test_engine_charges_the_oracle_per_gemm(category):
    """The engine's layer result is the oracle envelope of each GEMM's
    extrapolated schedule cycles, with the DRAM check on."""
    options = SimulationOptions(
        passes_per_gemm=1, max_t_steps=16, seed=7, include_dram=True
    )
    network = parse_workload("AlexNet").network
    for layer in network.layers:
        context = EvalContext()
        result = simulate_layer(layer, SPARSE_AB_STAR, category, options, context)
        for gemm, charged in zip(layer.spec.gemms(), result.gemms):
            raw, sched = engine._simulate_gemm(
                gemm, layer, SPARSE_AB_STAR, category, options, context
            )
            assert charged.cycles == stall_oracle.envelope(
                raw.cycles, gemm, layer, SPARSE_AB_STAR, sched, category,
                raw.dense_cycles, options,
            )


def test_surrogate_table_charges_the_engine_envelope_with_dram():
    """A surrogate GEMM table's base cycles are the engine envelope of its
    closed-form cycles, DRAM stall on, with its memoized traffic."""
    from repro.surrogate.model import base_cycles, gemm_table

    options = SimulationOptions(passes_per_gemm=1, max_t_steps=16, seed=7, include_dram=True)
    network = parse_workload("AlexNet").network
    pairs = [(layer, gemm) for layer in network.layers for gemm in layer.spec.gemms()]
    for category in (ModelCategory.B, ModelCategory.AB):
        for rows in gemm_table(pairs, SPARSE_AB_STAR, category, options)[0]:
            sched, base, floor = base_cycles(rows, SPARSE_AB_STAR, category, options)
            bits = overhead_of(SPARSE_AB_STAR).metadata_bits
            traffic = rows.traffic(category, bits)
            assert rows.traffic(category, bits) is traffic
            assert traffic.tolist() == dram_traffic(rows.gemms, rows.layers, category, bits).tolist()
            raw = (rows.tile_cycles(sched) + rows.drain) * rows.scale_t * rows.work
            expected = [
                stall_oracle.envelope(c, g, l, SPARSE_AB_STAR, sched, category, d, options)
                for c, g, l, d in zip(raw.tolist(), rows.gemms, rows.layers,
                                      rows.dense_cycles.tolist())
            ]
            assert base.tolist() == expected
            assert floor.tolist() == [
                stall_oracle.min_cycles(d, sched) for d in rows.dense_cycles.tolist()
            ]
