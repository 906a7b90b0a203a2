"""Tests for the per-inference energy metrics."""

import pytest

from repro.config import ModelCategory, SPARSE_B_STAR, dense
from repro.hw.cost import cost_of
from repro.hw.energy import EnergyReport, inference_energy
from repro.sim.engine import SimulationOptions, simulate_network
from repro.workloads.models import alexnet

FAST = SimulationOptions(passes_per_gemm=2, max_t_steps=48)


class TestEnergy:
    def test_latency_at_800mhz(self):
        report = EnergyReport("x", "net", cycles=800_000.0, power_mw=200.0)
        assert report.latency_ms == pytest.approx(1.0)
        assert report.energy_mj == pytest.approx(0.2)
        assert report.edp == pytest.approx(0.2)

    def test_sparse_inference_saves_energy(self):
        net = alexnet()
        sparse_run = simulate_network(net, SPARSE_B_STAR, ModelCategory.B, FAST)
        dense_run = simulate_network(net, dense(), ModelCategory.B, FAST)
        sparse_e = inference_energy(sparse_run, SPARSE_B_STAR)
        dense_e = inference_energy(dense_run, dense())
        # Speedup ~2.3x at ~1.39x power: net energy win.
        assert dense_e.energy_mj / sparse_e.energy_mj > 1.2

    def test_gated_power_used_on_dense_category(self):
        net = alexnet()
        run = simulate_network(net, SPARSE_B_STAR, ModelCategory.DENSE, FAST)
        report = inference_energy(run, SPARSE_B_STAR)
        assert report.power_mw < cost_of(SPARSE_B_STAR).total_power_mw
