"""Scalar reference of the engine's per-GEMM envelope.

:func:`repro.sim.engine.gemm_envelope` evaluates the envelope (window
floor, dense cap, SRAM bank-conflict and DRAM stalls) elementwise over
arrays of GEMMs.  This module keeps the one-GEMM-at-a-time form it
replaced, in plain ``math`` scalars, so tests can hold the array path to
exact equality, row by row.
"""

from __future__ import annotations

import math

from repro.core.overhead import overhead_of


def bank_conflict_stall_fraction(requests_per_cycle: float, banks: int = 16) -> float:
    if requests_per_cycle <= 1.0 or banks <= 1:
        return 0.0
    load = requests_per_cycle / banks
    if load < 1.0:
        r = requests_per_cycle
        p_no_collision = math.exp(-r * (r - 1) / (2.0 * banks))
        return (1.0 - p_no_collision) * (1.0 / banks)
    expected_max = load + math.sqrt(2.0 * load * math.log(banks))
    return max(0.0, expected_max / max(load, 1e-9) - 1.0) * load / (load + 1.0) * 0.1


def sram_stall_fraction(fetch_rate: float, bw_scale: float, banks: int = 16) -> float:
    """``SramModel.stall_fraction`` with equal A and B fetch rates and scales."""
    a_excess = max(0.0, fetch_rate / max(bw_scale, 1e-9) - 1.0)
    b_excess = max(0.0, fetch_rate / max(bw_scale, 1e-9) - 1.0)
    conflict = bank_conflict_stall_fraction(
        fetch_rate * banks / max(bw_scale, 1e-9), banks
    )
    return a_excess + b_excess + conflict


def dram_stall_factor(traffic_bytes: float, cycles: float, frequency_mhz: float,
                      bandwidth_gbps: float = 50.0) -> float:
    if cycles <= 0:
        return 1.0
    required = traffic_bytes / cycles
    available = bandwidth_gbps * 1e9 / (frequency_mhz * 1e6)
    return max(1.0, required / available)


def layer_traffic_bytes(m, k, n, weight_density, metadata_bits=0) -> float:
    return m * k + k * n * weight_density * (1 + metadata_bits / 8.0) + m * n


def min_cycles(dense_cycles: int, sched) -> float:
    """Hard floor: the combined window caps speedup at the ABUF depth."""
    return dense_cycles / ((1 + sched.a.d1) * (1 + sched.b.d1))


def apply_stalls(cycles, gemm, layer, config, category, dense_cycles, options) -> float:
    """SRAM bank-conflict and DRAM-bandwidth stalls for one GEMM."""
    speedup = dense_cycles / cycles if cycles else 1.0
    provisioned = float((1 + config.a.d1) * (1 + config.b.d1))
    cycles *= 1.0 + sram_stall_fraction(speedup, provisioned)
    if options.include_dram:
        w_density = layer.weight_density if category.weights_sparse else 1.0
        meta_bits = overhead_of(config).metadata_bits
        traffic = layer_traffic_bytes(
            gemm.m, gemm.k, gemm.n, w_density, metadata_bits=meta_bits
        ) * gemm.repeats
        cycles *= dram_stall_factor(traffic, cycles, config.geometry.frequency_mhz)
    return cycles


def envelope(cycles, gemm, layer, config, sched, category, dense_cycles, options) -> float:
    """One GEMM's enveloped cycles, as the engine charged them GEMM by GEMM."""
    cycles = min(max(cycles, min_cycles(dense_cycles, sched)), float(dense_cycles))
    if options.include_stalls and cycles < dense_cycles:
        cycles = apply_stalls(cycles, gemm, layer, config, category, dense_cycles, options)
        cycles = min(cycles, float(dense_cycles))
    return cycles
