"""Tests for the end-to-end simulation engine."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import (
    GRIFFIN,
    ArchConfig,
    ModelCategory,
    dense,
    sparse_a,
    sparse_ab,
    sparse_b,
)
from repro.sim import engine
from repro.sim.engine import (
    EvalContext,
    SimulationOptions,
    TileResult,
    simulate_layer,
    simulate_network,
)
from repro.workloads.models import alexnet, bert_base
from repro.workloads.registry import BENCHMARKS, benchmark

FAST = SimulationOptions(passes_per_gemm=2, max_t_steps=48, seed=3)


def simulate_tile(
    config: ArchConfig,
    a_mask: np.ndarray | None = None,
    b_mask: np.ndarray | None = None,
    t_steps: int | None = None,
) -> TileResult:
    """Schedule one output tile.

    Pass the activation mask ``[T, L, M]`` and/or weight mask ``[T, L, N]``
    for the sides the architecture should skip; a missing side is treated
    as dense.  With both masks the dual-sparse seven-step pipeline runs;
    with one, the corresponding single-sparse compaction (both through the
    engine's batch scheduler, as a batch of one); with none, the tile
    costs exactly ``T`` dense cycles.
    """
    if a_mask is None and b_mask is None:
        if t_steps is None:
            raise ValueError("t_steps is required when no mask is given")
        return TileResult(t_steps, t_steps, 0, 0)
    (tile,) = engine._tile_cycles_batch(config, [(a_mask, b_mask)])
    return tile if t_steps is None else replace(tile, dense_cycles=t_steps)


class TestSimulateTile:
    def test_dense_tile(self):
        res = simulate_tile(dense(), t_steps=33)
        assert res.cycles == 33 and res.speedup == 1.0

    def test_requires_t_steps_or_mask(self):
        with pytest.raises(ValueError):
            simulate_tile(dense())

    def test_b_only_dispatch(self):
        rng = np.random.default_rng(0)
        b = rng.random((32, 16, 16)) < 0.2
        res = simulate_tile(sparse_b(4, 0, 1), b_mask=b)
        assert res.dense_cycles == 32
        assert res.cycles < 32
        assert res.executed_ops == int(b.sum())

    def test_a_only_dispatch(self):
        rng = np.random.default_rng(1)
        a = rng.random((32, 16, 4)) < 0.5
        res = simulate_tile(sparse_a(2, 1, 0), a_mask=a)
        assert res.cycles < 32

    def test_dual_dispatch(self):
        rng = np.random.default_rng(2)
        a = rng.random((32, 16, 4)) < 0.5
        b = rng.random((32, 16, 16)) < 0.2
        res = simulate_tile(sparse_ab(2, 0, 0, 2, 0, 1), a_mask=a, b_mask=b)
        single = simulate_tile(sparse_b(2, 0, 1), b_mask=b)
        assert res.cycles < single.cycles  # dual skips A zeros too

    def test_shuffle_helps_imbalanced_tile(self):
        rng = np.random.default_rng(3)
        probs = np.clip(0.2 * rng.gamma(2.0, 0.5, 16), 0, 1)
        b = rng.random((64, 16, 16)) < probs[None, :, None]
        off = simulate_tile(sparse_b(6, 0, 0), b_mask=b)
        on = simulate_tile(sparse_b(6, 0, 0, shuffle=True), b_mask=b)
        assert on.cycles < off.cycles


class TestSimulateNetwork:
    @pytest.mark.parametrize(
        "info", BENCHMARKS, ids=[b.name for b in BENCHMARKS]
    )
    def test_dense_latency_in_table_iv_ballpark(self, info):
        res = simulate_network(info.network, dense(), ModelCategory.DENSE, FAST)
        assert res.speedup == 1.0
        # Absolute dense latency within ~2x of Table IV (the paper's
        # simulator carries pipeline overheads ours folds differently).
        assert res.cycles == pytest.approx(info.dense_latency_cycles, rel=0.65)

    def test_sparse_b_speeds_up_pruned_network(self):
        net = alexnet()
        res = simulate_network(net, sparse_b(4, 0, 1, shuffle=True), ModelCategory.B, FAST)
        assert 1.5 < res.speedup < 5.0

    def test_dense_category_gets_no_speedup(self):
        net = alexnet()
        res = simulate_network(net, sparse_b(4, 0, 1), ModelCategory.DENSE, FAST)
        assert res.speedup == pytest.approx(1.0)

    def test_a_arch_ignores_weight_sparsity(self):
        net = alexnet()
        res_b = simulate_network(net, sparse_a(2, 1, 0), ModelCategory.B, FAST)
        assert res_b.speedup == pytest.approx(1.0)

    def test_bert_has_no_a_speedup(self):
        net = bert_base()
        res = simulate_network(net, sparse_a(2, 1, 0, shuffle=True), ModelCategory.A, FAST)
        assert res.speedup == pytest.approx(1.0, abs=0.02)

    def test_deterministic(self):
        net = alexnet()
        r1 = simulate_network(net, sparse_b(4, 0, 0), ModelCategory.B, FAST)
        r2 = simulate_network(net, sparse_b(4, 0, 0), ModelCategory.B, FAST)
        assert r1.cycles == r2.cycles

    def test_layer_results_sum(self):
        net = alexnet()
        res = simulate_network(net, sparse_b(4, 0, 0), ModelCategory.B, FAST)
        assert res.cycles == pytest.approx(sum(l.cycles for l in res.layers))
        assert res.dense_cycles == sum(l.dense_cycles for l in res.layers)

    def test_speedup_capped_by_window_product(self):
        net = bert_base()
        cfg = sparse_b(2, 0, 0)
        res = simulate_network(net, cfg, ModelCategory.B, FAST)
        assert res.speedup <= 3.0 + 1e-9

    def test_repeated_layers_hit_cache(self):
        # BERT's 12 identical encoders simulate as 2 unique layers.
        context = EvalContext()
        simulate_network(
            bert_base(), sparse_b(4, 0, 0), ModelCategory.B, FAST, cache=context
        )
        assert context.layers.misses <= 4
        assert context.layers.hits >= 20
        assert len(context.layers) == context.layers.misses

    def test_direct_call_dedups_repeated_layers_in_a_throwaway_context(self, monkeypatch):
        # Without a context, one call still simulates each unique layer once.
        computed = []
        real = engine._compute_layer

        def counting(layer, *args):
            computed.append((args[0], layer.weight_density, layer.act_density))
            return real(layer, *args)

        monkeypatch.setattr(engine, "_compute_layer", counting)
        net = bert_base()
        simulate_network(net, sparse_b(4, 0, 0), ModelCategory.B, FAST)
        assert len(computed) == len(set(computed)) <= 4 < len(net.layers)

    def test_layer_results_keep_real_names(self):
        res = simulate_network(alexnet(), sparse_b(4, 0, 0), ModelCategory.B, FAST)
        assert [l.name for l in res.layers][:3] == ["conv1", "conv2", "conv3"]


class TestSimulateLayerNames:
    def test_simulate_layer_returns_display_name(self):
        layer = alexnet().layers[0]
        res = simulate_layer(layer, sparse_b(4, 0, 0), ModelCategory.B, FAST)
        assert res.name == "conv1"

    def test_cache_shared_across_names_without_losing_them(self):
        # Two layers identical up to the display name must share one memo
        # entry yet each come back under their own name.
        from repro.gemm.layers import GemmShape
        from repro.workloads.models import NetworkLayer, RawGemmSpec

        shapes = (GemmShape(m=48, k=160, n=48),)
        first = NetworkLayer(
            spec=RawGemmSpec(name="enc0.attn", shapes=shapes),
            weight_density=0.3, act_density=1.0,
        )
        twin = NetworkLayer(
            spec=RawGemmSpec(name="enc7.attn", shapes=shapes),
            weight_density=0.3, act_density=1.0,
        )
        context = EvalContext()
        res_a = simulate_layer(first, sparse_b(4, 0, 0), ModelCategory.B, FAST, context)
        res_b = simulate_layer(twin, sparse_b(4, 0, 0), ModelCategory.B, FAST, context)
        assert (context.layers.misses, context.layers.hits) == (1, 1)
        assert res_a.name == "enc0.attn" and res_b.name == "enc7.attn"
        assert res_a.cycles == res_b.cycles
        assert res_a.gemms == res_b.gemms


class TestGriffinMorphPerformance:
    def test_conf_b_beats_downgraded_dual_on_dnn_b(self):
        # The headline Table III / Fig. 8(b) claim.
        net = alexnet()
        dual = simulate_network(net, GRIFFIN.conf_ab, ModelCategory.B, FAST)
        morph = simulate_network(net, GRIFFIN.conf_b, ModelCategory.B, FAST)
        assert morph.speedup > dual.speedup

    def test_conf_a_beats_downgraded_dual_on_dnn_a(self):
        net = alexnet()
        dual = simulate_network(net, GRIFFIN.conf_ab, ModelCategory.A, FAST)
        morph = simulate_network(net, GRIFFIN.conf_a, ModelCategory.A, FAST)
        assert morph.speedup > dual.speedup

    def test_dual_mode_fastest_on_dual_sparse(self):
        net = alexnet()
        ab = simulate_network(net, GRIFFIN.conf_ab, ModelCategory.AB, FAST)
        b_only = simulate_network(net, GRIFFIN.conf_b, ModelCategory.AB, FAST)
        assert ab.speedup > b_only.speedup


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationOptions(passes_per_gemm=0)
        with pytest.raises(ValueError):
            SimulationOptions(max_t_steps=2)

    def test_stall_toggle_changes_results(self):
        net = benchmark("AlexNet").network
        with_stalls = simulate_network(
            net, sparse_b(4, 0, 1), ModelCategory.B,
            SimulationOptions(passes_per_gemm=2, max_t_steps=48, include_stalls=True),
        )
        without = simulate_network(
            net, sparse_b(4, 0, 1), ModelCategory.B,
            SimulationOptions(passes_per_gemm=2, max_t_steps=48, include_stalls=False),
        )
        assert with_stalls.cycles >= without.cycles

    def test_dram_ablation_slows_fc_heavy_nets(self):
        net = alexnet()
        base = simulate_network(
            net, sparse_b(4, 0, 1), ModelCategory.B,
            SimulationOptions(passes_per_gemm=2, max_t_steps=48, include_dram=False),
        )
        dram = simulate_network(
            net, sparse_b(4, 0, 1), ModelCategory.B,
            SimulationOptions(passes_per_gemm=2, max_t_steps=48, include_dram=True),
        )
        assert dram.cycles > base.cycles
