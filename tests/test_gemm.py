"""Tests for the GEMM substrate: layers and tiling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PAPER_CORE
from repro.gemm.layers import (
    AttentionSpec,
    Conv2DSpec,
    FeedForwardSpec,
    GemmShape,
    LinearSpec,
)
from repro.gemm.tiling import tile_grid


class TestGemmShape:
    def test_macs(self):
        assert GemmShape(m=2, k=3, n=4, repeats=5).macs == 120

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            GemmShape(m=0, k=1, n=1)

    def test_channels_default_is_k(self):
        assert GemmShape(m=1, k=64, n=1).k_channels == 64
        assert GemmShape(m=1, k=64, n=1, channels=8).k_channels == 8

    def test_channels_bounds(self):
        with pytest.raises(ValueError):
            GemmShape(m=1, k=4, n=1, channels=8)


class TestLayers:
    def test_conv_lowering(self):
        conv = Conv2DSpec(
            name="c", in_channels=64, out_channels=128, kernel=3,
            input_hw=56, stride=1, padding=1,
        )
        gemm = conv.gemms()[0]
        assert (gemm.m, gemm.k, gemm.n) == (3136, 576, 128)
        assert gemm.channels == 64

    def test_strided_conv_output(self):
        conv = Conv2DSpec(
            name="c", in_channels=3, out_channels=64, kernel=7,
            input_hw=224, stride=2, padding=3,
        )
        assert conv.output_hw == 112

    def test_grouped_conv_repeats(self):
        conv = Conv2DSpec(
            name="dw", in_channels=32, out_channels=32, kernel=3,
            input_hw=112, stride=1, padding=1, groups=32,
        )
        gemm = conv.gemms()[0]
        assert gemm.repeats == 32
        assert gemm.k == 9 and gemm.n == 1

    def test_grouped_conv_validation(self):
        with pytest.raises(ValueError):
            Conv2DSpec(name="bad", in_channels=10, out_channels=10, kernel=3,
                       input_hw=8, groups=3)

    def test_conv_rejects_empty_output(self):
        with pytest.raises(ValueError, match="empty output"):
            Conv2DSpec(name="bad", kernel=7, input_hw=4, padding=0)

    @pytest.mark.parametrize(
        "field,value",
        [("stride", 0), ("stride", -1), ("kernel", 0), ("padding", -1),
         ("groups", 0)],
    )
    def test_conv_rejects_bad_geometry(self, field, value):
        with pytest.raises(ValueError, match=f"{field}={value}"):
            Conv2DSpec(**{"name": "bad", "kernel": 3, "input_hw": 8, field: value})

    def test_linear(self):
        fc = LinearSpec(name="fc", in_features=2048, out_features=1000)
        gemm = fc.gemms()[0]
        assert (gemm.m, gemm.k, gemm.n) == (1, 2048, 1000)

    def test_attention_gemm_count_and_macs(self):
        attn = AttentionSpec(name="a", hidden=768, heads=12, seq_len=64)
        gemms = attn.gemms()
        assert len(gemms) == 6
        proj_macs = 4 * 64 * 768 * 768
        dyn_macs = 2 * 12 * 64 * 64 * 64
        assert attn.macs == proj_macs + dyn_macs

    def test_feed_forward(self):
        ffn = FeedForwardSpec(name="f", hidden=768, intermediate=3072, seq_len=64)
        assert ffn.macs == 2 * 64 * 768 * 3072


class TestTiling:
    def test_dense_cycles(self):
        grid = tile_grid(GemmShape(m=8, k=160, n=32), PAPER_CORE)
        assert grid.m_tiles == 2 and grid.n_tiles == 2 and grid.t_steps == 10
        assert grid.dense_cycles == 2 * 2 * 10

    def test_edge_tiles(self):
        grid = tile_grid(GemmShape(m=5, k=17, n=17), PAPER_CORE)
        assert grid.m_tiles == 2 and grid.n_tiles == 2 and grid.t_steps == 2
        assert grid.edge_m == 1 and grid.edge_n == 1

    def test_utilization_perfect_fit(self):
        grid = tile_grid(GemmShape(m=4, k=16, n=16), PAPER_CORE)
        assert grid.utilization == pytest.approx(1.0)

    def test_utilization_with_waste(self):
        grid = tile_grid(GemmShape(m=1, k=16, n=16), PAPER_CORE)
        assert grid.utilization == pytest.approx(0.25)

    def test_repeats_multiply(self):
        grid = tile_grid(GemmShape(m=4, k=16, n=16, repeats=7), PAPER_CORE)
        assert grid.total_passes == 7
        assert grid.dense_cycles == 7


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 300),
    k=st.integers(1, 600),
    n=st.integers(1, 300),
)
def test_tiling_covers_exactly(m, k, n):
    """Pass structure covers the GEMM with no gap and bounded waste."""
    grid = tile_grid(GemmShape(m=m, k=k, n=n), PAPER_CORE)
    assert grid.m_tiles * PAPER_CORE.m0 >= m > (grid.m_tiles - 1) * PAPER_CORE.m0
    assert grid.n_tiles * PAPER_CORE.n0 >= n > (grid.n_tiles - 1) * PAPER_CORE.n0
    assert grid.t_steps * PAPER_CORE.k0 >= k > (grid.t_steps - 1) * PAPER_CORE.k0
    assert 0 < grid.utilization <= 1.0
