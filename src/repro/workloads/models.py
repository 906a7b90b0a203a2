"""Layer-exact definitions of the six Table IV benchmark networks.

Each network is a sequence of :class:`NetworkLayer` -- a layer spec plus the
per-layer weight density (of the pruned variant) and input-activation
density (of the ReLU variant).  Topologies follow the standard references
the paper cites; per-layer densities are assigned by a prunability model
(first convolutions and depthwise layers resist pruning, fully-connected
layers prune hardest -- the well-documented shape of magnitude pruning) and
a single scale solved by bisection so the parameter-weighted sparsity
matches the Table IV ratio exactly.

The same network object serves all four model categories: the evaluation
picks which density schedule to apply (e.g. ``DNN.B`` uses the weight
densities with dense activations).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from repro.gemm.layers import (
    AttentionSpec,
    Conv2DSpec,
    FeedForwardSpec,
    GemmShape,
    LayerSpec,
    LinearSpec,
)


@dataclass(frozen=True)
class RawGemmSpec(LayerSpec):
    """A layer given directly as GEMM shapes (factorized convs, etc.)."""

    shapes: tuple[GemmShape, ...] = ()

    def gemms(self) -> list[GemmShape]:
        return list(self.shapes)


@dataclass(frozen=True)
class NetworkLayer:
    """One layer with its sparse-variant densities.

    ``weight_density`` / ``act_density`` are nonzero fractions of the pruned
    / ReLU variants; the dense variants use 1.0 on the respective side.
    """

    spec: LayerSpec
    weight_density: float
    act_density: float

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def weight_params(self) -> int:
        """Prunable weight count (dynamic GEMM operands carry no weights)."""
        return sum(g.k * g.n * g.repeats for g in self.spec.gemms() if not g.weight_is_dynamic)

    @property
    def act_volume(self) -> int:
        """Input-activation element count across the layer's GEMMs."""
        return sum(g.m * g.k * g.repeats for g in self.spec.gemms())


@dataclass(frozen=True)
class Network:
    """A benchmark network with its sparsity schedules."""

    name: str
    layers: tuple[NetworkLayer, ...]

    @property
    def macs(self) -> int:
        return sum(layer.spec.macs for layer in self.layers)

    @property
    def weight_sparsity(self) -> float:
        """Parameter-weighted zero fraction of the pruned variant."""
        params = sum(layer.weight_params for layer in self.layers)
        kept = sum(layer.weight_params * layer.weight_density for layer in self.layers)
        return 1.0 - kept / params if params else 0.0

    @property
    def act_sparsity(self) -> float:
        """Volume-weighted zero fraction of the ReLU variant's activations.

        Measured over the ReLU-fed layers (everything after the first),
        matching how Table IV reports activation sparsity: the first layer
        consumes the dense input image and is excluded from the average.
        """
        relu_fed = self.layers[1:]
        volume = sum(layer.act_volume for layer in relu_fed)
        kept = sum(layer.act_volume * layer.act_density for layer in relu_fed)
        return 1.0 - kept / volume if volume else 0.0

    @cached_property
    def fingerprint(self) -> str:
        """Stable content hash of the workload (see :func:`network_fingerprint`).

        Hashed once per instance: the network is immutable, and every
        network-tier cache key embeds it.
        """
        parts = [self.name]
        parts.extend(layer_content(layer) for layer in self.layers)
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def gemm_content(gemms: Iterable[GemmShape]) -> str:
    """Canonical serialization of a GEMM sequence.

    This is the exact per-layer content string the engine's
    :func:`repro.sim.engine.simulation_key` hashes, shared here so the
    workload fingerprint and the cache keys can never drift apart.
    """
    return ";".join(
        f"{g.m},{g.k},{g.n},{g.repeats},{int(g.weight_is_dynamic)},{g.channels}"
        for g in gemms
    )


def layer_content(layer: NetworkLayer) -> str:
    """Canonical serialization of one layer: name, GEMMs, densities."""
    return (
        f"{layer.name}|{gemm_content(layer.spec.gemms())}"
        f"|{layer.weight_density!r}|{layer.act_density!r}"
    )


def network_fingerprint(network: Network) -> str:
    """Stable content fingerprint of a workload.

    Hashes the network name plus every layer's canonical content (display
    name, lowered GEMM shapes, and the per-layer density assignments) --
    exactly the workload-side inputs a simulation depends on.  The
    fingerprint is stable across processes and sessions, and any edit to a
    layer or a density produces a new fingerprint; it feeds
    :func:`repro.sim.engine.network_key`, so user-defined workloads cache
    correctly without name collisions.  Memoized on the network
    (:attr:`Network.fingerprint`).
    """
    return network.fingerprint


_DENSITY_FLOOR = 0.05


def _solve_scale(weights: list[float], factors: list[float], target_kept: float) -> float:
    """Bisection for the scale making weighted clipped densities hit target."""

    def kept(scale: float) -> float:
        total = sum(weights)
        acc = sum(
            w * min(1.0, max(_DENSITY_FLOOR, scale * f))
            for w, f in zip(weights, factors)
        )
        return acc / total

    lo, hi = 1e-4, 20.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if kept(mid) < target_kept:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _weight_prunability(spec: LayerSpec, index: int) -> float:
    """Relative density factor: higher keeps more weights after pruning."""
    if isinstance(spec, Conv2DSpec):
        if index == 0:
            return 3.0  # first layer famously resists pruning
        if spec.groups > 1:
            return 2.0  # depthwise kernels are tiny and kept dense-ish
        if spec.kernel == 1:
            return 0.9
        return 1.0
    if isinstance(spec, LinearSpec):
        return 0.55  # fully-connected layers prune hardest
    return 1.0


def _assign_densities(
    specs: list[LayerSpec],
    weight_sparsity: float,
    act_sparsity: float,
) -> list[NetworkLayer]:
    """Attach per-layer densities hitting the network-level Table IV ratios."""
    n_layers = len(specs)
    w_weights = [
        sum(g.k * g.n * g.repeats for g in s.gemms() if not g.weight_is_dynamic)
        for s in specs
    ]
    w_factors = [_weight_prunability(s, i) for i, s in enumerate(specs)]
    w_scale = _solve_scale(w_weights, w_factors, 1.0 - weight_sparsity)
    w_density = [
        min(1.0, max(_DENSITY_FLOOR, w_scale * f)) if w > 0 else 1.0
        for w, f in zip(w_weights, w_factors)
    ]

    a_weights = [sum(g.m * g.k * g.repeats for g in s.gemms()) for s in specs]
    if act_sparsity <= 0.0:
        a_density = [1.0] * n_layers
    else:
        # The first layer consumes the dense input image and is excluded
        # from the Table IV ratio; deeper layers see progressively sparser
        # ReLU outputs.
        a_factors = [
            1.25 - 0.5 * (i / max(1, n_layers - 1)) for i in range(n_layers)
        ]
        a_scale = _solve_scale(a_weights[1:], a_factors[1:], 1.0 - act_sparsity)
        a_density = [1.0] + [
            min(1.0, max(_DENSITY_FLOOR, a_scale * f)) for f in a_factors[1:]
        ]

    return [
        NetworkLayer(spec=s, weight_density=wd, act_density=ad)
        for s, wd, ad in zip(specs, w_density, a_density)
    ]


#: Public name of the analytical per-layer density solver -- the default
#: sparsity profile of declarative workload specs (see
#: :mod:`repro.workloads.spec`).
def assign_densities(
    specs: list[LayerSpec],
    weight_sparsity: float,
    act_sparsity: float,
) -> list[NetworkLayer]:
    """Per-layer densities hitting network-level (weight, act) sparsity ratios.

    The prunability-model solver the Table IV presets use: first and
    depthwise convolutions resist pruning, fully-connected layers prune
    hardest, and a single scale solved by bisection makes the
    parameter-weighted sparsity match the target exactly.
    """
    return _assign_densities(specs, weight_sparsity, act_sparsity)


def _network(
    name: str, specs: list[LayerSpec], weight_sparsity: float, act_sparsity: float
) -> Network:
    return Network(name=name, layers=tuple(_assign_densities(specs, weight_sparsity, act_sparsity)))


def _conv(name, cin, cout, k, hw, stride=1, pad=None, groups=1) -> Conv2DSpec:
    if pad is None:
        pad = k // 2
    return Conv2DSpec(
        name=name, in_channels=cin, out_channels=cout, kernel=k,
        input_hw=hw, stride=stride, padding=pad, groups=groups,
    )


@lru_cache(maxsize=None)
def alexnet() -> Network:
    """AlexNet, Table IV: (B, A) sparsity (89%, 53%) -- Deep Compression."""
    specs: list[LayerSpec] = [
        _conv("conv1", 3, 64, 11, 224, stride=4, pad=2),
        _conv("conv2", 64, 192, 5, 27),
        _conv("conv3", 192, 384, 3, 13),
        _conv("conv4", 384, 256, 3, 13),
        _conv("conv5", 256, 256, 3, 13),
        LinearSpec(name="fc6", in_features=9216, out_features=4096),
        LinearSpec(name="fc7", in_features=4096, out_features=4096),
        LinearSpec(name="fc8", in_features=4096, out_features=1000),
    ]
    return _network("AlexNet", specs, 0.89, 0.53)


def _inception_block(name: str, cin: int, hw: int, cfg: tuple[int, ...]) -> list[LayerSpec]:
    c1, c3r, c3, c5r, c5, pp = cfg
    return [
        _conv(f"{name}.1x1", cin, c1, 1, hw),
        _conv(f"{name}.3x3red", cin, c3r, 1, hw),
        _conv(f"{name}.3x3", c3r, c3, 3, hw),
        _conv(f"{name}.5x5red", cin, c5r, 1, hw),
        _conv(f"{name}.5x5", c5r, c5, 5, hw),
        _conv(f"{name}.pool", cin, pp, 1, hw),
    ]


@lru_cache(maxsize=None)
def googlenet() -> Network:
    """GoogLeNet (Inception v1), Table IV: (82%, 37%)."""
    specs: list[LayerSpec] = [
        _conv("conv1", 3, 64, 7, 224, stride=2, pad=3),
        _conv("conv2.red", 64, 64, 1, 56),
        _conv("conv2", 64, 192, 3, 56),
    ]
    blocks = [
        ("3a", 192, 28, (64, 96, 128, 16, 32, 32)),
        ("3b", 256, 28, (128, 128, 192, 32, 96, 64)),
        ("4a", 480, 14, (192, 96, 208, 16, 48, 64)),
        ("4b", 512, 14, (160, 112, 224, 24, 64, 64)),
        ("4c", 512, 14, (128, 128, 256, 24, 64, 64)),
        ("4d", 512, 14, (112, 144, 288, 32, 64, 64)),
        ("4e", 528, 14, (256, 160, 320, 32, 128, 128)),
        ("5a", 832, 7, (256, 160, 320, 32, 128, 128)),
        ("5b", 832, 7, (384, 192, 384, 48, 128, 128)),
    ]
    for name, cin, hw, cfg in blocks:
        specs.extend(_inception_block(name, cin, hw, cfg))
    specs.append(LinearSpec(name="fc", in_features=1024, out_features=1000))
    return _network("GoogleNet", specs, 0.82, 0.37)


def _bottleneck(name: str, cin: int, mid: int, cout: int, hw: int, stride: int,
                downsample: bool) -> list[LayerSpec]:
    out_hw = hw // stride
    layers = [
        _conv(f"{name}.c1", cin, mid, 1, hw),
        _conv(f"{name}.c2", mid, mid, 3, hw, stride=stride),
        _conv(f"{name}.c3", mid, cout, 1, out_hw),
    ]
    if downsample:
        layers.append(_conv(f"{name}.down", cin, cout, 1, hw, stride=stride))
    return layers


@lru_cache(maxsize=None)
def resnet50() -> Network:
    """ResNet-50, Table IV: (81%, 43%)."""
    specs: list[LayerSpec] = [_conv("conv1", 3, 64, 7, 224, stride=2, pad=3)]
    stage_cfg = [
        ("layer1", 64, 64, 256, 56, 3, 1),
        ("layer2", 256, 128, 512, 56, 4, 2),
        ("layer3", 512, 256, 1024, 28, 6, 2),
        ("layer4", 1024, 512, 2048, 14, 3, 2),
    ]
    for name, cin, mid, cout, hw, blocks, stride in stage_cfg:
        specs.extend(_bottleneck(f"{name}.0", cin, mid, cout, hw, stride, downsample=True))
        out_hw = hw // stride
        for b in range(1, blocks):
            specs.extend(_bottleneck(f"{name}.{b}", cout, mid, cout, out_hw, 1, downsample=False))
    specs.append(LinearSpec(name="fc", in_features=2048, out_features=1000))
    return _network("ResNet50", specs, 0.81, 0.43)


def _sep7x7(name: str, cin: int, mid: int, cout: int, hw: int) -> RawGemmSpec:
    """A factorized 1x7 + 7x1 pair as raw GEMMs (InceptionV3 branch piece)."""
    m = hw * hw
    return RawGemmSpec(
        name=name,
        shapes=(
            GemmShape(m=m, k=cin * 7, n=mid, channels=cin),
            GemmShape(m=m, k=mid * 7, n=cout, channels=mid),
        ),
    )


@lru_cache(maxsize=None)
def inception_v3() -> Network:
    """Inception-V3 (299x299 input), Table IV: (79%, 46%)."""
    specs: list[LayerSpec] = [
        _conv("Conv2d_1a", 3, 32, 3, 299, stride=2, pad=0),
        _conv("Conv2d_2a", 32, 32, 3, 149, pad=0),
        _conv("Conv2d_2b", 32, 64, 3, 147),
        _conv("Conv2d_3b", 64, 80, 1, 73),
        _conv("Conv2d_4a", 80, 192, 3, 73, pad=0),
    ]
    # Three InceptionA blocks at 35x35 (pool_features 32/64/64).
    for idx, (cin, pool) in enumerate([(192, 32), (256, 64), (288, 64)]):
        n = f"MixedA{idx}"
        specs += [
            _conv(f"{n}.1x1", cin, 64, 1, 35),
            _conv(f"{n}.5x5red", cin, 48, 1, 35),
            _conv(f"{n}.5x5", 48, 64, 5, 35),
            _conv(f"{n}.3x3red", cin, 64, 1, 35),
            _conv(f"{n}.3x3a", 64, 96, 3, 35),
            _conv(f"{n}.3x3b", 96, 96, 3, 35),
            _conv(f"{n}.pool", cin, pool, 1, 35),
        ]
    # Grid reduction 35 -> 17.
    specs += [
        _conv("MixedB.3x3", 288, 384, 3, 35, stride=2, pad=0),
        _conv("MixedB.dbl1", 288, 64, 1, 35),
        _conv("MixedB.dbl2", 64, 96, 3, 35),
        _conv("MixedB.dbl3", 96, 96, 3, 35, stride=2, pad=0),
    ]
    # Four InceptionC blocks at 17x17 with factorized 7x7 branches.
    for idx, c7 in enumerate([128, 160, 160, 192]):
        n = f"MixedC{idx}"
        specs += [
            _conv(f"{n}.1x1", 768, 192, 1, 17),
            _conv(f"{n}.7x7red", 768, c7, 1, 17),
            _sep7x7(f"{n}.7x7", c7, c7, 192, 17),
            _conv(f"{n}.dblred", 768, c7, 1, 17),
            _sep7x7(f"{n}.dbl7a", c7, c7, c7, 17),
            _sep7x7(f"{n}.dbl7b", c7, c7, 192, 17),
            _conv(f"{n}.pool", 768, 192, 1, 17),
        ]
    # Grid reduction 17 -> 8.
    specs += [
        _conv("MixedD.red", 768, 192, 1, 17),
        _conv("MixedD.3x3", 192, 320, 3, 17, stride=2, pad=0),
        _conv("MixedD.dblred", 768, 192, 1, 17),
        _sep7x7("MixedD.dbl7", 192, 192, 192, 17),
        _conv("MixedD.dbl3", 192, 192, 3, 17, stride=2, pad=0),
    ]
    # Two InceptionE blocks at 8x8 (expanded 1x3/3x1 forks as raw GEMMs).
    for idx, cin in enumerate([1280, 2048]):
        n = f"MixedE{idx}"
        fork = RawGemmSpec(
            name=f"{n}.fork",
            shapes=(
                GemmShape(m=64, k=384 * 3, n=384, channels=384),  # 1x3
                GemmShape(m=64, k=384 * 3, n=384, channels=384),  # 3x1
            ),
        )
        dbl_fork = RawGemmSpec(
            name=f"{n}.dblfork",
            shapes=(
                GemmShape(m=64, k=384 * 3, n=384, channels=384),
                GemmShape(m=64, k=384 * 3, n=384, channels=384),
            ),
        )
        specs += [
            _conv(f"{n}.1x1", cin, 320, 1, 8),
            _conv(f"{n}.3x3red", cin, 384, 1, 8),
            fork,
            _conv(f"{n}.dblred", cin, 448, 1, 8),
            _conv(f"{n}.dbl3", 448, 384, 3, 8),
            dbl_fork,
            _conv(f"{n}.pool", cin, 192, 1, 8),
        ]
    specs.append(LinearSpec(name="fc", in_features=2048, out_features=1000))
    return _network("InceptionV3", specs, 0.79, 0.46)


@lru_cache(maxsize=None)
def mobilenet_v2() -> Network:
    """MobileNet-V2, Table IV: (81%, 52%) -- RigL-style pruning."""
    specs: list[LayerSpec] = [_conv("stem", 3, 32, 3, 224, stride=2)]
    # (expansion t, output channels c, repeats n, first stride s)
    cfg = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ]
    cin, hw = 32, 112
    for block, (t, c, n, s) in enumerate(cfg):
        for i in range(n):
            stride = s if i == 0 else 1
            mid = cin * t
            name = f"ir{block}.{i}"
            if t != 1:
                specs.append(_conv(f"{name}.expand", cin, mid, 1, hw))
            specs.append(_conv(f"{name}.dw", mid, mid, 3, hw, stride=stride, groups=mid))
            hw = hw // stride
            specs.append(_conv(f"{name}.project", mid, c, 1, hw))
            cin = c
    specs.append(_conv("head", 320, 1280, 1, 7))
    specs.append(LinearSpec(name="fc", in_features=1280, out_features=1000))
    return _network("MobileNetV2", specs, 0.81, 0.52)


@lru_cache(maxsize=None)
def relu_transformer(seq_len: int = 64, hidden: int = 512, layers: int = 12) -> Network:
    """A ReLU transformer (Table I: "Transformer+ReLU", e.g. MobileBERT).

    Same encoder structure as BERT but with ReLU feed-forward activations,
    so it populates the DNN.A / DNN.AB categories on the transformer side:
    activation sparsity ~45% (ReLU FFN statistics), weight sparsity 80%
    when pruned.  Not a Table IV benchmark -- provided so users can
    exercise every Table I row.
    """
    intermediate = 4 * hidden
    heads = max(1, hidden // 64)
    specs: list[LayerSpec] = []
    for layer in range(layers):
        specs.append(
            AttentionSpec(name=f"enc{layer}.attn", hidden=hidden, heads=heads, seq_len=seq_len)
        )
        specs.append(
            FeedForwardSpec(
                name=f"enc{layer}.ffn", hidden=hidden, intermediate=intermediate,
                seq_len=seq_len,
            )
        )
    specs.append(LinearSpec(name="classifier", in_features=hidden, out_features=3))
    return _network("ReLU-Transformer", specs, 0.80, 0.45)


@lru_cache(maxsize=None)
def bert_base(seq_len: int = 64) -> Network:
    """BERT-base (MNLI) at sentence length 64, Table IV: (82%, 0%).

    Movement pruning sparsifies the weight projections; GeLU keeps the
    activations dense, so the ``DNN.A`` variant of BERT has nothing to skip
    on the A side (Table IV lists its activation sparsity as 0%).
    """
    specs: list[LayerSpec] = []
    for layer in range(12):
        specs.append(AttentionSpec(name=f"enc{layer}.attn", hidden=768, heads=12, seq_len=seq_len))
        specs.append(FeedForwardSpec(name=f"enc{layer}.ffn", hidden=768, intermediate=3072, seq_len=seq_len))
    specs.append(LinearSpec(name="classifier", in_features=768, out_features=3))
    return _network("BERT", specs, 0.82, 0.0)
