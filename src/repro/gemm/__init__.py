"""GEMM substrate: layer descriptors, their GEMM shapes, and core tiling."""

from repro.gemm.layers import AttentionSpec, Conv2DSpec, GemmShape, LayerSpec, LinearSpec
from repro.gemm.tiling import TileGrid, tile_grid

__all__ = [
    "GemmShape",
    "LayerSpec",
    "Conv2DSpec",
    "LinearSpec",
    "AttentionSpec",
    "TileGrid",
    "tile_grid",
]
