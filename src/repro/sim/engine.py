"""End-to-end cycle simulation of networks on borrowing architectures.

The engine follows the paper's methodology (Sec. V): every layer is lowered
to GEMMs and blocked onto the core (Figure 1); weight blocks are
preprocessed and activation blocks skipped on the fly per the configured
borrowing distances; cycles per block include the output-synchronization
drain between passes, each GEMM is charged SRAM bank-conflict stalls (and,
optionally, DRAM-bandwidth stalls), and end-to-end latency sums the GEMMs.
ABUF/BBUF buffer-fullness stalls are not modeled.

Because repeated passes of one GEMM are statistically identical, the engine
samples a configurable number of passes per GEMM (including edge passes)
and extrapolates -- the same block-sampling the paper's own
PyTorch-fed simulator performs.  Everything is deterministic in the option
seed.  Reuse lives in the :class:`EvalContext` each call passes: layer
results are memoized on the content :func:`simulation_key` hashes,
sampled passes on the layer's sparsity (every design and category that
reads a GEMM's weights shares one draw of its weight factor field), and
tile cycle counts on the passes and distances.  No state outlives a call.
An in-process call may also give its context a :class:`PassDrawer`, a
thread that draws the pass sets the call will miss ahead of it.

Persistent caching is two-tiered: layer results store under
:func:`simulation_key` (:data:`SIMULATION_KEY_VERSION`), and whole-network
results under :func:`network_key` (:data:`NETWORK_KEY_VERSION`), so a warm
:func:`simulate_network` is a single read.  The store is passed explicitly
(``cache=``, alone or in a context) to :func:`simulate_network` /
:func:`simulate_layer`; the engine only knows the :class:`ResultCache`
protocol, and the disk-backed implementation lives in
:mod:`repro.runtime.cache`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable, Hashable, Iterable, Protocol, Sequence

import numpy as np

from repro.config import ArchConfig, ModelCategory, sparse_a, sparse_b
from repro.core.overhead import overhead_of
from repro.obs import trace as obs
from repro.gemm.layers import GemmShape
from repro.gemm.tiling import tile_grid
from repro.memory.dram import dram_stall_factor, layer_traffic_bytes
from repro.memory.sram import SramModel
from repro.sim.compaction import compact_schedule_batch
from repro.sim.dual import dual_sparse_cycles_batch
from repro.sim.shuffle import rotation_shuffle
from repro.workloads.models import (
    Network,
    NetworkLayer,
    gemm_content,
    network_fingerprint,
)
from repro.workloads.sparsity import (
    SparsityProfile,
    WeightFactorField,
    act_profile,
    activation_tile_mask,
    sample_act_field,
    sample_weight_field,
    weight_profile,
    weight_tile_mask,
)


@dataclass(frozen=True)
class SimulationOptions:
    """Sampling and stall-modeling knobs.

    ``passes_per_gemm`` output tiles are simulated per GEMM (edge tiles are
    sampled with their natural probability); K dimensions longer than
    ``max_t_steps`` time steps are sampled as segments and scaled.
    ``pipeline_drain`` models the output-synchronization flush between
    passes of a sparse run (capped at a quarter of the tile's depth so
    shallow tiles are not swamped).  ``include_dram`` enables the off-chip
    bandwidth check; the paper provisions 50 GB/s precisely so DRAM never
    throttles (Sec. V), so it is off by default and available for ablation.
    """

    passes_per_gemm: int = 6
    max_t_steps: int = 128
    seed: int = 2022
    pipeline_drain: int = 2
    include_stalls: bool = True
    include_dram: bool = False

    def __post_init__(self) -> None:
        if self.passes_per_gemm < 1:
            raise ValueError("passes_per_gemm must be >= 1")
        if self.max_t_steps < 4:
            raise ValueError("max_t_steps must be >= 4")

    def to_dict(self) -> dict:
        """JSON-serializable form (the spec files' ``options`` shape)."""
        return asdict(self)

    @staticmethod
    def from_dict(data: dict, defaults: dict | None = None) -> "SimulationOptions":
        """Build options from a mapping, rejecting unknown keys.

        ``defaults`` (same key set) fills in anything the mapping omits --
        what the declarative spec loaders use for their lighter default
        sampling.
        """
        known = set(SimulationOptions().to_dict())
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown simulation options {sorted(unknown)}; "
                f"accepted: {sorted(known)}"
            )
        return SimulationOptions(**{**(defaults or {}), **data})


@dataclass(frozen=True)
class TileResult:
    """Cycles for one output tile (pass)."""

    cycles: int
    dense_cycles: int
    executed_ops: int
    borrowed_ops: int

    @property
    def speedup(self) -> float:
        return self.dense_cycles / self.cycles if self.cycles else 1.0


@dataclass(frozen=True)
class GemmSimResult:
    """Extrapolated result for one GEMM (all passes, all repeats)."""

    shape: GemmShape
    cycles: float
    dense_cycles: int
    sampled_passes: int

    @property
    def speedup(self) -> float:
        return self.dense_cycles / self.cycles if self.cycles else 1.0


@dataclass(frozen=True)
class LayerSimResult:
    """Simulated cycles for one network layer."""

    name: str
    cycles: float
    dense_cycles: int
    gemms: tuple[GemmSimResult, ...]

    @property
    def speedup(self) -> float:
        return self.dense_cycles / self.cycles if self.cycles else 1.0


@dataclass(frozen=True)
class NetworkSimResult:
    """End-to-end latency of a network on an architecture.

    A result built by :meth:`lazy` (a network-tier cache hit) decodes its
    ``layers`` on first access; equality, hashing and ``repr`` decode
    first, and pickling ships the decoder until then.
    """

    network: str
    config: str
    category: ModelCategory
    cycles: float
    dense_cycles: int
    layers: tuple[LayerSimResult, ...]

    @classmethod
    def lazy(
        cls, decode: "Callable[[], tuple[LayerSimResult, ...]]", **scalars: object
    ) -> "NetworkSimResult":
        """A result from its other fields, with ``layers = decode()`` on demand."""
        result = object.__new__(cls)
        result.__dict__.update(scalars, _decode=decode)
        return result

    def __getattr__(self, name: str):
        # Reached only for unset attributes: ``layers`` of a lazy result.
        # Safe under a concurrent first access: the first decode wins.
        decode = self.__dict__.get("_decode") if name == "layers" else None
        if decode is not None:
            self.__dict__.setdefault("layers", decode())
            self.__dict__.pop("_decode", None)
        if name == "layers" and "layers" in self.__dict__:
            return self.__dict__["layers"]
        raise AttributeError(name)

    @property
    def speedup(self) -> float:
        return self.dense_cycles / self.cycles if self.cycles else 1.0


def _tile_cycles_batch(
    config: ArchConfig,
    pairs: "list[tuple[np.ndarray | None, np.ndarray | None]]",
) -> list[TileResult]:
    """Schedule a batch of output tiles, one :class:`TileResult` each.

    Each result is what the tile scheduled alone gives, but the batch runs
    through one cycle loop (``compact_schedule_batch`` /
    ``dual_sparse_cycles_batch``) so the sampled passes of a GEMM share
    each per-cycle numpy dispatch.  Every pair must have the same sparse
    sides -- true of all passes of one GEMM -- so the first pair picks the
    pipeline.  ``dense_cycles`` is each tile's depth ``T``.
    """
    if config.shuffle:
        pairs = [
            (
                rotation_shuffle(a) if a is not None else None,
                rotation_shuffle(b) if b is not None else None,
            )
            for a, b in pairs
        ]
    first_a, first_b = pairs[0]
    if first_a is not None and first_b is not None:
        return [
            TileResult(r.cycles, a.shape[0], r.executed_pairs, r.borrowed_ops)
            for r, (a, _) in zip(dual_sparse_cycles_batch(pairs, config), pairs)
        ]
    if first_b is not None:
        masks = [b for _, b in pairs]
        results = compact_schedule_batch(masks, *config.b.as_tuple())
    else:
        masks = [a for a, _ in pairs]
        results = compact_schedule_batch(masks, *config.a.as_tuple())
    return [
        TileResult(r.cycles, m.shape[0], r.executed_ops, r.borrowed_ops)
        for r, m in zip(results, masks)
    ]


def _schedule_passes(
    context: "EvalContext", sched_config: ArchConfig, tile_key: tuple, pairs: tuple
) -> tuple[TileResult, ...]:
    """One GEMM's pass tiles scheduled, through the context's tile memo
    (keyed by pass set, sides, distances and shuffle; no masks in it)."""
    with obs.ACTIVE.span("engine.tile_batch", passes=len(pairs)) as span:
        tiles = context.tiles.get(tile_key)
        span.set(memo="miss" if tiles is None else "hit")
        if tiles is None:
            tiles = tuple(_tile_cycles_batch(sched_config, list(pairs)))
            context.tiles.put(tile_key, tiles)
    return tiles


def _layer_seed(*parts: object) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class _GemmSparsity:
    """Which sides of one GEMM the simulation should treat as sparse."""

    weights: SparsityProfile | None
    activations: SparsityProfile | None

    @property
    def any(self) -> bool:
        return self.weights is not None or self.activations is not None


def effective_sparsity(
    gemm: GemmShape,
    layer: NetworkLayer,
    config: ArchConfig,
    category: ModelCategory,
) -> _GemmSparsity:
    """Combine model category, tensor properties and datapath support."""
    w_density = layer.weight_density if (
        category.weights_sparse and not gemm.weight_is_dynamic
    ) else 1.0
    a_density = layer.act_density if category.activations_sparse else 1.0
    use_b = config.supports_b_sparsity and w_density < 1.0
    use_a = config.supports_a_sparsity and a_density < 1.0
    weights = weight_profile(w_density) if use_b else None
    activations = act_profile(a_density) if use_a else None
    return _GemmSparsity(weights, activations)


def scheduling_config(config: ArchConfig, sparsity: _GemmSparsity) -> ArchConfig:
    """The borrowing distances actually exercised on this GEMM.

    A ``Sparse.AB`` datapath running single-sparse data *downgrades*
    (Table III): with dense A the per-PE pair arbitration degenerates to
    the preprocessing reach ``Sparse.B(db1, db2, db3)``; with dense B the
    lane/row coordination is lost, leaving ``Sparse.A(da1, 0, 0)``.
    """
    if config.family != "Sparse.AB":
        return config
    use_b = sparsity.weights is not None
    use_a = sparsity.activations is not None
    if use_b and not use_a:
        return sparse_b(
            config.b.d1, config.b.d2, config.b.d3,
            shuffle=config.shuffle, geometry=config.geometry,
        )
    if use_a and not use_b:
        return sparse_a(
            config.a.d1, 0, 0, shuffle=config.shuffle, geometry=config.geometry
        )
    return config


def _sampled_passes(
    seed: int,
    weights: SparsityProfile | None,
    activations: SparsityProfile | None,
    gemm: GemmShape,
    geometry: "CoreGeometry",
    passes_per_gemm: int,
    max_t_steps: int,
) -> dict[tuple[bool, bool], tuple]:
    """Sampled ``(a_mask, b_mask)`` pass tiles for one GEMM.

    :attr:`EvalContext.passes` memoizes this on its arguments, which are
    the layer's sparsity, not the sides one datapath skips:
    ``activations`` is the layer's activation profile
    whether or not the requesting design uses it.  The result maps
    ``(weights used, activations used)`` to every pass set that one draw
    of the leading factor field serves:

    * With ``weights``, the weight factor field is drawn once from
      ``default_rng(seed)``.  The weight-only set continues that stream;
      the dual-sparse set (activation field, pass choice, masks) replays
      it from the generator state right after the field.  Each set is
      bitwise what a fresh generator per set would draw, but the
      ``delta[channels, N]`` gamma field -- millions of variates per GEMM
      and the bulk of a cold run -- is drawn once, so a ``Sparse.AB``
      design downgraded to the weight-only reach (Table III) and the
      weight-only designs share it with the dual-sparse runs.
    * Without, the activation-only set, whose field leads its own fresh
      stream.

    The draw sequence is a pure function of these arguments and does
    *not* depend on the scheduling config, so a design-space sweep redraws
    byte-identical tiles for every design point and memoizing turns every
    re-visit into a lookup.  The rng is local, so a memo hit leaves no
    stream behind.  Only masks are returned, never the factor fields; the
    masks are read-only by contract (every consumer copies before
    mutating).
    """
    rng = np.random.default_rng(seed)
    draw = partial(
        _draw_passes, rng, gemm=gemm, geometry=geometry,
        passes_per_gemm=passes_per_gemm, max_t_steps=max_t_steps,
    )
    if weights is None:
        return {(False, True): draw(None, None, activations)}
    w_field = sample_weight_field(
        rng, weights, gemm.k, gemm.n, gemm.k_channels, k0=geometry.k0
    )
    after_field = rng.bit_generator.state
    sets = {(True, False): draw(weights, w_field, None)}
    if activations is not None:
        rng.bit_generator.state = after_field
        sets[True, True] = draw(weights, w_field, activations)
    return sets


def _draw_passes(
    rng: np.random.Generator,
    weights: SparsityProfile | None,
    w_field: WeightFactorField | None,
    activations: SparsityProfile | None,
    *,
    gemm: GemmShape,
    geometry: "CoreGeometry",
    passes_per_gemm: int,
    max_t_steps: int,
) -> tuple:
    """Draw the activation field, pick the passes, and draw their tile masks.

    Continues ``rng`` from wherever the caller left it (right after the
    weight field, if any), in the order every pass set has always used.
    """
    grid = tile_grid(gemm, geometry)
    a_field = None
    if activations is not None:
        a_field = sample_act_field(
            rng, activations, gemm.k, gemm.m, gemm.k_channels, k0=geometry.k0
        )

    n_passes = grid.m_tiles * grid.n_tiles
    samples = min(passes_per_gemm, n_passes)
    pass_ids = rng.choice(n_passes, size=samples, replace=False)

    full_t = grid.t_steps
    seg_t = min(full_t, max_t_steps)

    pairs = []
    for pass_id in pass_ids:
        mi, ni = divmod(int(pass_id), grid.n_tiles)
        k_start = 0
        if seg_t < full_t:
            k_start = int(rng.integers(0, full_t - seg_t + 1)) * geometry.k0
        a_mask = None
        b_mask = None
        if weights is not None:
            b_mask = weight_tile_mask(
                rng, weights, w_field,
                t_steps=seg_t, k0=geometry.k0,
                k_offset=k_start, k_total=gemm.k,
                n_offset=ni * geometry.n0, n_tile=geometry.n0, n_total=gemm.n,
            )
        if activations is not None:
            a_mask = activation_tile_mask(
                rng, activations, a_field,
                t_steps=seg_t, k0=geometry.k0,
                k_offset=k_start, k_total=gemm.k,
                m_offset=mi * geometry.m0, m_tile=geometry.m0, m_total=gemm.m,
            )
        pairs.append((a_mask, b_mask))
    return tuple(pairs)


def _pass_set(
    gemm: GemmShape,
    layer: NetworkLayer,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
) -> tuple[_GemmSparsity, tuple | None]:
    """The GEMM's sparse sides on this design, and the key its pass sets
    are memoized under -- :func:`_sampled_passes`'s arguments -- or
    ``None`` when neither side is sparse and nothing is sampled."""
    sparsity = effective_sparsity(gemm, layer, config, category)
    if not sparsity.any:
        return sparsity, None
    seed = _layer_seed(options.seed, gemm, layer.weight_density, layer.act_density)
    layer_acts = act_profile(layer.act_density) if layer.act_density < 1.0 else None
    return sparsity, (
        seed, sparsity.weights, layer_acts, gemm, config.geometry,
        options.passes_per_gemm, options.max_t_steps,
    )


def _gemm_label(gemm: GemmShape) -> str:
    return f"{gemm.m}x{gemm.k}x{gemm.n}"


def _simulate_gemm(
    gemm: GemmShape,
    layer: NetworkLayer,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
    context: "EvalContext",
) -> tuple[GemmSimResult, ArchConfig]:
    """The GEMM's extrapolated schedule cycles, before :func:`gemm_envelope`,
    and the scheduling config they ran under."""
    grid = tile_grid(gemm, config.geometry)
    sparsity, key = _pass_set(gemm, layer, config, category, options)
    sched_config = scheduling_config(config, sparsity)
    if key is None:
        return GemmSimResult(gemm, float(grid.dense_cycles), grid.dense_cycles, 0), sched_config

    sides = (sparsity.weights is not None, sparsity.activations is not None)
    with obs.ACTIVE.span(
        "engine.sample_passes", gemm=_gemm_label(gemm), seed=key[0], weights=sides[0],
    ) as span:
        sets = context.passes.get(key)
        span.set(memo="miss" if sets is None else "hit")
        if sets is None:
            sets = context.sampled_passes(key)
            context.passes.put(key, sets)
        pairs = sets[sides]
    samples = len(pairs)
    n_passes = grid.m_tiles * grid.n_tiles
    full_t = grid.t_steps
    seg_t = min(full_t, options.max_t_steps)
    scale_t = full_t / seg_t

    # Schedule the sampled passes as one batch: the tiles of a GEMM share
    # every per-cycle numpy dispatch of the scheduler's loop instead of
    # paying it per tile.
    drain = min(options.pipeline_drain, max(0, seg_t // 4))
    total_cycles = 0.0
    tile_key = (key, sides, sched_config.a, sched_config.b, sched_config.shuffle)
    for tile in _schedule_passes(context, sched_config, tile_key, pairs):
        total_cycles += (tile.cycles + drain) * scale_t

    mean_cycles = total_cycles / samples
    cycles = mean_cycles * n_passes * gemm.repeats
    return GemmSimResult(gemm, cycles, grid.dense_cycles, samples), sched_config


def gemm_envelope(
    cycles: np.ndarray,
    dense_cycles: np.ndarray,
    sched: ArchConfig | Sequence[ArchConfig],
    config: ArchConfig,
    options: SimulationOptions,
    traffic: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-GEMM envelope over rows of extrapolated cycles: the cycles
    the engine charges, and each row's floor.

    Each row is clamped to ``[floor, dense_cycles]``.  The floor is
    ``dense / ((1 + da1)(1 + db1))`` under the row's scheduling config
    (``sched``: one shared by every row, or one per row), since the
    combined window caps speedup at the ABUF depth.  With
    ``options.include_stalls``, rows below dense are then charged the
    :mod:`repro.memory` stalls at the design ``config``'s provisioning --
    SRAM bank conflicts (both operand streams advance at the compacted
    schedule rate, so both SRAMs are provisioned to the design's ideal
    speedup, Sec. V) and, with ``options.include_dram``, the DRAM stretch
    of each row's ``traffic`` bytes (:func:`dram_traffic`) -- and capped
    at dense again.  Elementwise in the scalar formulas' operation order,
    so a row is bitwise what it would be alone.  The engine calls this
    once per layer and the surrogate once per GEMM table, so the two
    cannot drift apart.
    """
    scheds = (sched,) if isinstance(sched, ArchConfig) else sched
    floor = dense_cycles / np.array([(1 + s.a.d1) * (1 + s.b.d1) for s in scheds])
    cycles = np.minimum(np.maximum(cycles, floor), dense_cycles)
    if options.include_stalls:
        # Every row is charged and the rows at dense keep their cycles:
        # cheaper than indexing the stalled rows out of a few-row table.
        speedup = dense_cycles / cycles  # the floor keeps cycles > 0
        provisioned = float((1 + config.a.d1) * (1 + config.b.d1))
        sram = SramModel(bw_scale_a=provisioned, bw_scale_b=provisioned)
        run = cycles * (1.0 + sram.stall_fraction(speedup, speedup))
        if options.include_dram:
            run = run * dram_stall_factor(traffic, run, config.geometry.frequency_mhz)
        cycles = np.where(cycles < dense_cycles, np.minimum(run, dense_cycles), cycles)
    return cycles, floor


def dram_traffic(
    gemms: Sequence[GemmShape],
    layers: Sequence[NetworkLayer],
    category: ModelCategory,
    metadata_bits: int,
) -> np.ndarray:
    """Off-chip bytes of each GEMM over all its repeats (its layer's in
    ``layers``), as :func:`gemm_envelope`'s DRAM stall charges them:
    weights compressed to the layer's density when the category's weights
    are sparse, with ``metadata_bits`` per weight."""
    m, k, n, repeats = np.array([(g.m, g.k, g.n, g.repeats) for g in gemms]).T
    density = np.array([
        layer.weight_density if category.weights_sparse else 1.0 for layer in layers
    ])
    return layer_traffic_bytes(m, k, n, density, metadata_bits=metadata_bits) * repeats


class ResultCache(Protocol):
    """A two-tier persistent result store, passed to the engine per call.

    The layer tier (``get`` / ``put``) holds one :class:`LayerSimResult`
    per :func:`simulation_key`; the network tier (``get_network`` /
    ``put_network``) holds one :class:`NetworkSimResult` per
    :func:`network_key`.  A ``get`` returns ``None`` on a miss (including
    unreadable or corrupt entries -- the engine then recomputes and
    overwrites); ``stats.count("memo_hits")`` counts a layer its
    :class:`EvalContext` memo answered.  Implementations live outside the
    engine (see :mod:`repro.runtime.cache`) so the dependency points
    runtime -> sim.
    """

    stats: Any

    def get(self, key: str) -> LayerSimResult | None: ...

    def put(self, key: str, result: LayerSimResult) -> None: ...

    def get_network(self, key: str) -> NetworkSimResult | None: ...

    def put_network(self, key: str, result: NetworkSimResult) -> None: ...


#: Version tag of the simulation-key schema.  Bump whenever the simulation
#: semantics change in a way that invalidates previously cached results.
#: (v2: workload-side content serializes through the shared
#: :func:`repro.workloads.models.gemm_content` canonical form that also
#: feeds workload fingerprints.)
SIMULATION_KEY_VERSION = "layer-sim-v2"

#: Version tag of the network-key schema.  Bump when the *aggregation* of
#: layer results into a network result, or the key derivation, changes
#: (the layer tier is covered separately: network keys hash
#: ``SIMULATION_KEY_VERSION``, so its bump invalidates both tiers at once).
#: (v2: keys embed the workload content fingerprint, so user-defined
#: networks can never collide on display names.  v3: one hash, no
#: per-layer simulation keys.)
NETWORK_KEY_VERSION = "network-sim-v3"


def _design_content(
    config: ArchConfig, category: ModelCategory, options: SimulationOptions
) -> str:
    """The config (not its label), category and options part of both keys."""
    geometry = config.geometry
    return (
        f"a={config.a.as_tuple()}|b={config.b.as_tuple()}|shuffle={int(config.shuffle)}"
        f"|geom={geometry.k0},{geometry.n0},{geometry.m0},"
        f"{geometry.frequency_mhz!r},{geometry.precision_bits}|{category.value}"
        f"|opts={options.passes_per_gemm},{options.max_t_steps},{options.seed},"
        f"{options.pipeline_drain},{int(options.include_stalls)},{int(options.include_dram)}"
    )


def simulation_key(
    gemms: tuple[GemmShape, ...],
    weight_density: float,
    act_density: float,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
) -> str:
    """Content-addressed key of one layer simulation.

    Covers exactly the inputs the simulation depends on: the GEMM shapes,
    the layer densities, the borrowing configuration (distances, shuffle,
    geometry -- but *not* the display name), the model category and the
    sampling options.  Stable across processes and sessions, so it doubles
    as the on-disk key of the persistent result cache.
    """
    parts = [
        SIMULATION_KEY_VERSION,
        gemm_content(gemms),
        repr(float(weight_density)),
        repr(float(act_density)),
        _design_content(config, category, options),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def network_key(
    network: Network,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
) -> str:
    """Content-addressed key of one whole-network simulation, in one hash.

    Hashes both key versions (a :data:`SIMULATION_KEY_VERSION` bump
    invalidates both tiers), the network name, its content fingerprint
    (:func:`repro.workloads.models.network_fingerprint`: layer names,
    GEMMs and densities, so user-defined networks never collide on a
    display name; memoized on the network), the config label the cached
    :class:`NetworkSimResult` carries, and the config, category and
    options content :func:`simulation_key` hashes.  A warm lookup costs
    one hash and one disk read, no simulation.
    """
    parts = [
        NETWORK_KEY_VERSION,
        SIMULATION_KEY_VERSION,
        network.name,
        f"fp={network_fingerprint(network)}",
        config.label,
        _design_content(config, category, options),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


class Memo:
    """A bounded, thread-safe least-recently-used map that counts lookups."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize, self.hits, self.misses = maxsize, 0, 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` is held; counts nothing and reorders nothing."""
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Any:
        """The value under ``key`` (now the most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``, evicting the least recent entry past ``maxsize``."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)


@dataclass(frozen=True)
class EvalContext:
    """Where an evaluation looks results up: a store and three memos.

    ``store`` is the persistent :class:`ResultCache` (``None``: none);
    ``layers`` memoizes layer results on the content :func:`simulation_key`
    hashes (never the display name), ``passes`` the sampled pass tiles of a
    GEMM, and ``tiles`` the per-tile cycle counts of a pass set under one
    scheduling config.  A :class:`repro.api.Session` owns one context and
    hands each call ``context.on(handle)``, so calls share its memos but
    count into their own handles.  A fresh context is a cold start.
    ``drawer`` is the call's own :class:`PassDrawer`, if it has one: a
    passes-memo miss takes its key's draw from there.  ``keys`` is the
    call's own map of the network keys it hashed, if it has one, so a
    design the call's warm probe missed is not hashed again when it runs.
    """

    store: ResultCache | None = None
    layers: Memo = field(default_factory=lambda: Memo(32768))
    passes: Memo = field(default_factory=lambda: Memo(512))
    tiles: Memo = field(default_factory=lambda: Memo(8192))
    drawer: "PassDrawer | None" = None
    keys: dict[tuple, tuple] | None = None

    def on(self, store: ResultCache | None) -> "EvalContext":
        """A context on ``store`` that shares these memos."""
        return replace(self, store=store)

    @staticmethod
    def of(cache: "EvalContext | ResultCache | None") -> "EvalContext":
        """``cache`` if it is a context, else a throwaway one on it."""
        return cache if isinstance(cache, EvalContext) else EvalContext(cache)

    def sampled_passes(self, key: tuple) -> dict[tuple[bool, bool], tuple]:
        """The pass sets under ``key``: the drawer's draw, waited for, when
        the drawer holds the key; else drawn on this thread."""
        sets = self.drawer.take(key) if self.drawer is not None else None
        return sets if sets is not None else _sampled_passes(*key)

    def network_key(
        self,
        network: Network,
        config: ArchConfig,
        category: ModelCategory,
        options: SimulationOptions,
    ) -> str:
        """:func:`network_key`, hashed once per call when ``keys`` is set.

        The call's map is keyed by the arguments' identities, which costs
        a warm hit next to nothing (hashing the frozen dataclasses cost
        it about 12%).  Each entry holds its arguments, so no id in the
        map can pass to another object while the call runs.
        """
        if self.keys is None:
            return network_key(network, config, category, options)
        ids = (id(network), id(config), id(category), id(options))
        entry = self.keys.get(ids)
        if entry is None:
            key = network_key(network, config, category, options)
            entry = self.keys[ids] = (key, network, config, category, options)
        return entry[0]


def _layer_memo_key(
    gemms: tuple[GemmShape, ...],
    layer: NetworkLayer,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
) -> tuple:
    """The layer memo's key: the content :func:`simulation_key` hashes."""
    return (
        gemms, layer.weight_density, layer.act_density,
        config.a, config.b, config.shuffle, config.geometry, category, options,
    )


def pending_pass_keys(
    network: Network,
    runs: Iterable[tuple[ArchConfig, ModelCategory]],
    options: SimulationOptions,
    context: EvalContext,
) -> list[tuple]:
    """The pass-set keys that simulating ``network`` on each ``(config,
    category)`` of ``runs``, in order, will miss in ``context``: each
    once, in first-use order.  Layers the layer memo holds draw nothing,
    and neither do keys the passes memo holds.  Counts no lookup."""
    keys: dict[tuple, None] = {}
    seen: set[tuple] = set()
    for config, category in runs:
        for layer in network.layers:
            gemms = tuple(layer.spec.gemms())
            memo_key = _layer_memo_key(gemms, layer, config, category, options)
            if memo_key in seen or memo_key in context.layers:
                continue
            seen.add(memo_key)
            for gemm in gemms:
                key = _pass_set(gemm, layer, config, category, options)[1]
                if key is not None and key not in context.passes:
                    keys.setdefault(key)
    return list(keys)


def field_elements(key: tuple) -> int:
    """Elements of the weight factor field the pass sets under ``key``
    draw (``0`` for an activation-only set): the bulk of their cost."""
    weights, gemm = key[1], key[3]
    return max(1, min(gemm.k_channels, gemm.k)) * gemm.n if weights is not None else 0


class PassDrawer:
    """Draws pass sets on one background thread, ahead of the call that
    reads them.

    Made for one call, with the keys :func:`pending_pass_keys` expects it
    to miss, in the order it will miss them.  From the call's first
    passes-memo miss on, the thread draws them one at a time (so one
    factor field is alive in it at a time) and fulfils one future per key;
    each miss :meth:`take` s its key's draw instead of drawing.  (A call
    whose layers all come from the persistent layer tier misses nothing,
    so it draws nothing.)  Every draw is a pure function of its key, so
    results are bitwise what the calling thread would draw, and numpy's
    samplers release the GIL, so the draws overlap the scheduling.

    Use as a context manager: leaving it stops the thread after the draw
    in progress, cancels the futures not drawn yet, and joins the thread.
    When tracing, the thread records an ``engine.drawer`` span and one
    ``engine.draw_passes`` span per draw in its own tracer; on leaving
    they are absorbed under the span that was open on entry, on the same
    clock.
    """

    def __init__(self, keys: Sequence[tuple]) -> None:
        self._futures = {key: Future() for key in keys}
        self._queue = list(self._futures.items())  # the thread's own view
        self._cancel = threading.Event()
        self._demand = threading.Event()  # set by the first take(), or on leaving
        self._into = obs.ACTIVE
        self._tracer = (
            obs.Tracer(epoch=self._into.epoch) if self._into.enabled else obs.NOOP
        )
        self._thread = threading.Thread(target=self._draw, name="pass-drawer", daemon=True)

    def __enter__(self) -> "PassDrawer":
        self._parent = self._into.current_span_id() if self._into.enabled else None
        # Opened here, so it starts before anything the call does next.
        self._root = self._tracer.span("engine.drawer", parent_id=None, keys=len(self._queue))
        self._root.__enter__()
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._cancel.set()
        self._demand.set()
        self._thread.join()
        self._into.absorb(self._tracer.export(), parent=self._parent, shift=0.0)

    def _draw(self) -> None:
        self._demand.wait()
        try:
            for key, future in self._queue:
                if self._cancel.is_set():
                    future.cancel()
                    continue
                try:
                    with self._tracer.span(
                        "engine.draw_passes", parent_id=self._root.span_id,
                        gemm=_gemm_label(key[3]), seed=key[0], weights=key[1] is not None,
                    ):
                        sets = _sampled_passes(*key)
                except BaseException as error:  # reaches the caller via take()
                    future.set_exception(error)
                else:
                    future.set_result(sets)
        finally:
            self._root.__exit__(None, None, None)

    def take(self, key: tuple) -> dict[tuple[bool, bool], tuple] | None:
        """The draw under ``key`` once it is made (its exception raised if
        it failed), or ``None`` when this drawer was not given ``key``
        or it was taken already."""
        self._demand.set()
        future = self._futures.pop(key, None)
        return future.result() if future is not None else None


def clear_memo_cache() -> None:
    """A no-op: the engine keeps no memo, and a fresh context is cold."""


def _compute_layer(
    layer: NetworkLayer,
    gemms: tuple[GemmShape, ...],
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions,
    context: EvalContext,
) -> LayerSimResult:
    with obs.ACTIVE.span("engine.compute_layer", gemms=len(gemms)):
        runs, scheds = zip(*(
            _simulate_gemm(gemm, layer, config, category, options, context)
            for gemm in gemms
        ))
        results = runs
        # A GEMM that sampled nothing ran dense, which the envelope keeps.
        if any(run.sampled_passes for run in runs):
            traffic = None
            if options.include_dram:
                meta_bits = overhead_of(config).metadata_bits
                traffic = dram_traffic(gemms, (layer,) * len(gemms), category, meta_bits)
            charged, _ = gemm_envelope(
                np.array([run.cycles for run in runs]),
                np.array([run.dense_cycles for run in runs]),
                scheds, config, options, traffic,
            )
            results = tuple(
                GemmSimResult(run.shape, value, run.dense_cycles, run.sampled_passes)
                for run, value in zip(runs, charged.tolist())
            )
    cycles = 0.0
    for res in results:
        cycles += res.cycles
    dense = sum(res.dense_cycles for res in results)
    return LayerSimResult(name="layer", cycles=cycles, dense_cycles=dense, gemms=results)


def simulate_layer(
    layer: NetworkLayer,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions | None = None,
    cache: EvalContext | ResultCache | None = None,
) -> LayerSimResult:
    """Simulate one layer through the context's memo, then its store.

    ``cache`` is an :class:`EvalContext`, or a store (or ``None``) to wrap
    in a throwaway one.  The memo key excludes the layer and config
    *names*, so repeated blocks (ResNet stages, BERT encoders) and label
    twins simulate once; the result still carries the layer's own name.
    A memo hit reads nothing and counts in the store's ``memo_hits``.
    """
    options = options or SimulationOptions()
    context = EvalContext.of(cache)
    store = context.store
    gemms = tuple(layer.spec.gemms())
    args = (gemms, layer.weight_density, layer.act_density, config, category, options)
    memo_key = _layer_memo_key(gemms, layer, config, category, options)
    result = context.layers.get(memo_key)
    if result is not None:
        if store is not None:
            store.stats.count("memo_hits")
    else:
        key = simulation_key(*args) if store is not None else None
        result = store.get(key) if key is not None else None
        if result is None:
            result = _compute_layer(layer, gemms, config, category, options, context)
            if key is not None:
                store.put(key, result)
        context.layers.put(memo_key, result)
    if result.name != layer.name:
        result = replace(result, name=layer.name)
    return result


def simulate_network(
    network: Network,
    config: ArchConfig,
    category: ModelCategory,
    options: SimulationOptions | None = None,
    cache: EvalContext | ResultCache | None = None,
) -> NetworkSimResult:
    """End-to-end latency of a network on an architecture configuration.

    ``cache`` is an :class:`EvalContext`, or a store (or ``None``) to wrap
    in a throwaway one.  Resolution is tiered: with a store, the whole
    network is looked up under its :func:`network_key` first -- a warm
    run answers in one read with zero layer simulations.  On a miss the
    layers go through :func:`simulate_layer`, and the aggregated result
    is written back to the network tier for the next run.
    """
    options = options or SimulationOptions()
    context = EvalContext.of(cache)
    store = context.store
    key = None
    if store is not None:
        key = context.network_key(network, config, category, options)
        hit = store.get_network(key)
        if hit is not None:
            return hit
    layer_results = []
    cycles = 0.0
    dense = 0
    with obs.ACTIVE.span(
        "engine.network_compute",
        network=network.name,
        config=config.label,
        layers=len(network.layers),
    ):
        for layer in network.layers:
            res = simulate_layer(layer, config, category, options, cache=context)
            layer_results.append(res)
            cycles += res.cycles
            dense += res.dense_cycles
    result = NetworkSimResult(
        network=network.name,
        config=config.label,
        category=category,
        cycles=cycles,
        dense_cycles=dense,
        layers=tuple(layer_results),
    )
    if store is not None:
        store.put_network(key, result)
    return result
