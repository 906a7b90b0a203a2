"""Layer descriptors and their lowering to GEMM shapes (Sec. II-A).

Every compute layer of the benchmark networks is expressed as one or more
``C += A x B`` GEMMs:

* a convolution layer lowers to ``M = Hout*Wout``, ``K = Cin*R*S``,
  ``N = Cout`` (the input feature map is im2col-reshaped into A and the
  kernel flattened into B);
* a fully-connected layer is ``M = batch``, ``K = in_features``,
  ``N = out_features``;
* a transformer self-attention layer contributes the Q/K/V/output
  projections and the two score/context batched GEMMs, a feed-forward layer
  the two expansion/contraction GEMMs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class GemmShape:
    """One ``C(M,N) += A(M,K) x B(K,N)`` operation.

    ``repeats`` folds identical GEMMs (e.g. one per attention head or per
    batch element) into a single shape with a multiplier.
    ``weight_is_dynamic`` marks GEMMs whose B operand is produced at run
    time (attention scores/context), which therefore can never be pruned:
    they stay dense on the weight side regardless of the model category.
    ``channels`` is the channel count of the K dimension: convolutions use
    the channels-innermost (HWC) blocking of the paper's Figure 1, so
    element ``k`` belongs to channel ``k % channels``.  Zero (the default)
    means every K position is its own channel (fully-connected layers).
    """

    m: int
    k: int
    n: int
    repeats: int = 1
    weight_is_dynamic: bool = False
    channels: int = 0

    def __post_init__(self) -> None:
        for name in ("m", "k", "n", "repeats"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.channels < 0 or self.channels > self.k:
            raise ValueError(f"channels must be in [0, k], got {self.channels}")

    @property
    def k_channels(self) -> int:
        """Effective channel count of the K dimension."""
        return self.channels if self.channels else self.k

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations for all repeats."""
        return self.m * self.k * self.n * self.repeats


@dataclass(frozen=True)
class LayerSpec:
    """Base class: a named layer that lowers to GEMM shapes."""

    name: str

    def gemms(self) -> list[GemmShape]:
        raise NotImplementedError

    @property
    def macs(self) -> int:
        return sum(g.macs for g in self.gemms())


def _require_positive(spec: LayerSpec, *names: str) -> None:
    """Raise unless each named dimension of ``spec`` is an integer >= 1."""
    for name in names:
        value = getattr(spec, name)
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{spec.name}: {name} must be >= 1, got {value!r}")


@dataclass(frozen=True)
class Conv2DSpec(LayerSpec):
    """A 2-D convolution layer (optionally grouped / depthwise)."""

    in_channels: int = 1
    out_channels: int = 1
    kernel: int = 1
    input_hw: int = 1
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self) -> None:
        if min(self.stride, self.kernel, self.groups) < 1 or self.padding < 0:
            raise ValueError(
                f"{self.name}: need stride, kernel and groups >= 1 and "
                f"padding >= 0, got stride={self.stride}, kernel={self.kernel}, "
                f"groups={self.groups}, padding={self.padding}"
            )
        if self.output_hw < 1:
            raise ValueError(
                f"{self.name}: convolution produces empty output: "
                f"input_hw={self.input_hw}, kernel={self.kernel}, "
                f"stride={self.stride}, padding={self.padding}"
            )
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"{self.name}: channels ({self.in_channels}, {self.out_channels}) "
                f"not divisible by groups={self.groups}"
            )

    @property
    def output_hw(self) -> int:
        return (self.input_hw + 2 * self.padding - self.kernel) // self.stride + 1

    def gemms(self) -> list[GemmShape]:
        out_hw = self.output_hw
        cin_g = self.in_channels // self.groups
        cout_g = self.out_channels // self.groups
        return [
            GemmShape(
                m=out_hw * out_hw,
                k=cin_g * self.kernel * self.kernel,
                n=cout_g,
                repeats=self.groups,
                channels=cin_g,
            )
        ]


@dataclass(frozen=True)
class LinearSpec(LayerSpec):
    """A fully-connected layer over a batch (or token) dimension."""

    in_features: int = 1
    out_features: int = 1
    batch: int = 1

    def gemms(self) -> list[GemmShape]:
        return [GemmShape(m=self.batch, k=self.in_features, n=self.out_features)]


@dataclass(frozen=True)
class AttentionSpec(LayerSpec):
    """A transformer self-attention block for one sequence.

    Contributes four weight projections (prunable) plus the two dynamic
    batched GEMMs (scores ``Q x K^T`` and context ``scores x V``), which are
    marked ``weight_is_dynamic`` since both operands are activations.
    """

    hidden: int = 768
    heads: int = 12
    seq_len: int = 64

    def __post_init__(self) -> None:
        _require_positive(self, "hidden", "heads", "seq_len")
        if self.hidden % self.heads:
            raise ValueError(
                f"{self.name}: hidden={self.hidden} not divisible by "
                f"heads={self.heads}"
            )

    def gemms(self) -> list[GemmShape]:
        head_dim = self.hidden // self.heads
        proj = GemmShape(m=self.seq_len, k=self.hidden, n=self.hidden)
        scores = GemmShape(
            m=self.seq_len, k=head_dim, n=self.seq_len,
            repeats=self.heads, weight_is_dynamic=True,
        )
        context = GemmShape(
            m=self.seq_len, k=self.seq_len, n=head_dim,
            repeats=self.heads, weight_is_dynamic=True,
        )
        return [proj, proj, proj, scores, context, proj]


@dataclass(frozen=True)
class FeedForwardSpec(LayerSpec):
    """A transformer feed-forward block (expand + contract)."""

    hidden: int = 768
    intermediate: int = 3072
    seq_len: int = 64

    def __post_init__(self) -> None:
        _require_positive(self, "hidden", "intermediate", "seq_len")

    def gemms(self) -> list[GemmShape]:
        return [
            GemmShape(m=self.seq_len, k=self.hidden, n=self.intermediate),
            GemmShape(m=self.seq_len, k=self.intermediate, n=self.hidden),
        ]
