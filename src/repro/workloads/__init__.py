"""First-class workloads: declarative networks, sparsity, and the registry.

The six Table IV networks are the built-in presets of the mutable
:data:`WORKLOADS` registry; any workload token -- a registry name, a
``name:override`` derivation, or a path to a declarative
:class:`WorkloadSpec` JSON file -- resolves through :func:`parse_workload`
into a fingerprinted :class:`Workload` (see ``docs/workloads.md``).
"""

from repro.workloads.sparsity import (
    SparsityProfile,
    act_profile,
    activation_tile_mask,
    channel_factors,
    sample_act_field,
    sample_weight_field,
    weight_profile,
    weight_tile_mask,
)
from repro.workloads.models import (
    Network,
    NetworkLayer,
    RawGemmSpec,
    alexnet,
    assign_densities,
    bert_base,
    gemm_content,
    googlenet,
    inception_v3,
    layer_content,
    mobilenet_v2,
    network_fingerprint,
    relu_transformer,
    resnet50,
)
from repro.workloads.registry import (
    BENCHMARKS,
    WORKLOADS,
    BenchmarkInfo,
    Workload,
    WorkloadLike,
    WorkloadRegistry,
    benchmark,
    benchmark_names,
    parse_workload,
    suite_for,
)
from repro.workloads.spec import (
    SPARSITY_PROFILES,
    AnalyticalSparsity,
    ExplicitSparsity,
    SparsityProfileSpec,
    UniformSparsity,
    WorkloadSpec,
    register_sparsity_profile,
    sparsity_from_dict,
)

__all__ = [
    "SparsityProfile",
    "act_profile",
    "weight_profile",
    "channel_factors",
    "sample_weight_field",
    "sample_act_field",
    "weight_tile_mask",
    "activation_tile_mask",
    "Network",
    "NetworkLayer",
    "RawGemmSpec",
    "alexnet",
    "googlenet",
    "resnet50",
    "inception_v3",
    "mobilenet_v2",
    "bert_base",
    "relu_transformer",
    "assign_densities",
    "gemm_content",
    "layer_content",
    "network_fingerprint",
    "BENCHMARKS",
    "WORKLOADS",
    "BenchmarkInfo",
    "Workload",
    "WorkloadLike",
    "WorkloadRegistry",
    "benchmark",
    "benchmark_names",
    "parse_workload",
    "suite_for",
    "WorkloadSpec",
    "SparsityProfileSpec",
    "AnalyticalSparsity",
    "UniformSparsity",
    "ExplicitSparsity",
    "SPARSITY_PROFILES",
    "register_sparsity_profile",
    "sparsity_from_dict",
]
