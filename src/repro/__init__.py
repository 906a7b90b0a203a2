"""repro: a reproduction of Griffin (HPCA 2022).

Griffin is a design-space study of sparse DNN accelerators built as
*borrowing configurations* on top of an optimized dense GEMM core, plus a
hybrid architecture that morphs between dual- and single-sparse modes.  The
public API exposes the architecture configuration space, the cycle-level
performance model, the calibrated power/area cost model, the six Table IV
benchmark workloads, the SOTA baselines, and the design-space explorer that
regenerates every table and figure of the paper.  The
:class:`~repro.api.Session` facade is the unified evaluation entry point:
configs, Griffin, and baselines all score through one batched,
cache-backed ``session.evaluate(...)`` call, and declarative
:class:`~repro.api.ExperimentSpec` JSON files run via ``repro run``.
"""

from repro.config import (
    GRIFFIN,
    PAPER_CORE,
    SPARSE_A_STAR,
    SPARSE_AB_STAR,
    SPARSE_B_STAR,
    ArchConfig,
    BorrowConfig,
    CoreGeometry,
    GriffinArch,
    ModelCategory,
    dense,
    parse_notation,
    sparse_a,
    sparse_ab,
    sparse_b,
)
from repro.api import (
    ExperimentResult,
    ExperimentSpec,
    SearchResult,
    Session,
)
from repro.core.overhead import HardwareOverhead, overhead_of
from repro.obs import (
    MetricsRegistry,
    Tracer,
    current_trace_id,
    set_tracer,
    tracing,
)
from repro.dse.evaluate import (
    BaselineDesign,
    ConfigDesign,
    Design,
    GriffinDesign,
    as_design,
    design_fingerprint,
    evaluate_design,
    parse_design,
)
from repro.runtime import CacheStats, PersistentLayerCache, SweepOutcome, SweepRunner
from repro.search import (
    EvolutionarySearch,
    ExhaustiveSearch,
    ObjectiveSet,
    ParetoArchive,
    RandomSearch,
    SearchSpace,
    SearchSpec,
    SurrogateScreenedSearch,
    paper_space,
)
from repro.surrogate import (
    SurrogateConstants,
    SurrogateModel,
    load_constants,
    save_constants,
)
from repro.sim.engine import (
    NETWORK_KEY_VERSION,
    SIMULATION_KEY_VERSION,
    EvalContext,
    NetworkSimResult,
    SimulationOptions,
    network_key,
    simulate_layer,
    simulate_network,
    simulation_key,
)
from repro.workloads.models import Network, network_fingerprint
from repro.workloads.registry import (
    BENCHMARKS,
    WORKLOADS,
    Workload,
    WorkloadRegistry,
    benchmark,
    benchmark_names,
    parse_workload,
)
from repro.workloads.spec import (
    AnalyticalSparsity,
    ExplicitSparsity,
    UniformSparsity,
    WorkloadSpec,
    register_sparsity_profile,
)

__version__ = "7.0.0"

__all__ = [
    "ArchConfig",
    "BorrowConfig",
    "CoreGeometry",
    "GriffinArch",
    "ModelCategory",
    "dense",
    "sparse_a",
    "sparse_b",
    "sparse_ab",
    "parse_notation",
    "PAPER_CORE",
    "GRIFFIN",
    "SPARSE_A_STAR",
    "SPARSE_B_STAR",
    "SPARSE_AB_STAR",
    "Session",
    "ExperimentSpec",
    "ExperimentResult",
    "SearchResult",
    "SearchSpace",
    "SearchSpec",
    "paper_space",
    "ObjectiveSet",
    "ParetoArchive",
    "ExhaustiveSearch",
    "RandomSearch",
    "EvolutionarySearch",
    "SurrogateScreenedSearch",
    "SurrogateModel",
    "SurrogateConstants",
    "load_constants",
    "save_constants",
    "Design",
    "ConfigDesign",
    "GriffinDesign",
    "BaselineDesign",
    "as_design",
    "parse_design",
    "design_fingerprint",
    "evaluate_design",
    "HardwareOverhead",
    "overhead_of",
    "Tracer",
    "tracing",
    "set_tracer",
    "current_trace_id",
    "MetricsRegistry",
    "EvalContext",
    "simulate_layer",
    "simulate_network",
    "simulation_key",
    "network_key",
    "SIMULATION_KEY_VERSION",
    "NETWORK_KEY_VERSION",
    "SimulationOptions",
    "NetworkSimResult",
    "CacheStats",
    "PersistentLayerCache",
    "SweepOutcome",
    "SweepRunner",
    "BENCHMARKS",
    "WORKLOADS",
    "Network",
    "Workload",
    "WorkloadRegistry",
    "WorkloadSpec",
    "AnalyticalSparsity",
    "UniformSparsity",
    "ExplicitSparsity",
    "register_sparsity_profile",
    "network_fingerprint",
    "parse_workload",
    "benchmark",
    "benchmark_names",
    "__version__",
]
