"""Content-addressed, two-tier persistent cache of simulation results.

Layer simulations are pure functions of the :func:`repro.sim.engine.simulation_key`
inputs, so their results can be stored on disk and reused across processes
and sessions: a design-space sweep that re-runs after a crash, a warm
re-generation of a figure, or a pool of worker processes all hit the same
store.  The store has two tiers:

* the **layer tier** holds one :class:`~repro.sim.engine.LayerSimResult`
  per :func:`~repro.sim.engine.simulation_key`;
* the **network tier** holds one :class:`~repro.sim.engine.NetworkSimResult`
  per :func:`~repro.sim.engine.network_key`, so a warm full-figure run
  resolves each network in a single read (zero layer simulations, zero
  layer-tier lookups) and falls back to the layer tier -- and then to
  simulation -- on a miss or a corrupt entry.

Entries are one JSON file per key, sharded by key prefix::

    <root>/layers/<key[:2]>/<key>.json      # layer tier
    <root>/networks/<key[:2]>/<key>.json    # network tier

Writes are atomic (temp file + rename) so concurrent workers may race on
the same key without corrupting it -- last writer wins and every winner
wrote identical bytes.  Unreadable or corrupt entries are treated as misses
and recomputed (and counted in :attr:`CacheStats.errors`).

The root directory defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
Delete the directory (or call :meth:`PersistentLayerCache.clear`) to
invalidate; the engine also versions keys with
:data:`repro.sim.engine.SIMULATION_KEY_VERSION` and
:data:`repro.sim.engine.NETWORK_KEY_VERSION`, so stale schema entries are
simply never looked up again (network keys hash the simulation key
version too, hence a simulation-semantics bump invalidates both tiers at
once).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

from repro.config import ModelCategory
from repro.gemm.layers import GemmShape
from repro.obs import trace as obs
from repro.sim.engine import GemmSimResult, LayerSimResult, NetworkSimResult

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: On-disk layer-entry schema version (independent of the key versions).
ENTRY_VERSION = 1

#: On-disk network-entry schema version (2: scalars first, layers as an
#: embedded JSON string decoded on demand).
NETWORK_ENTRY_VERSION = 2


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


@dataclass
class CacheStats:
    """Counters of one cache handle's activity (or an aggregate of them).

    ``hits`` / ``misses`` / ``puts`` / ``errors`` are **unified totals
    across both tiers**; the ``network_*`` fields record the network-tier
    share of each, so the layer-tier share is always the difference (also
    exposed as the ``layer_*`` properties).  ``memo_hits`` counts layers
    answered by the in-process memo of an
    :class:`~repro.sim.engine.EvalContext`, which read nothing from disk,
    so it stays out of ``hits``.  Keeping one flat object makes the tier
    breakdown survive every aggregation path -- worker chunks, session
    totals, sweep outcomes -- unchanged.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0
    network_hits: int = 0
    network_misses: int = 0
    network_puts: int = 0
    network_errors: int = 0
    memo_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when none happened)."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def layer_hits(self) -> int:
        return self.hits - self.network_hits

    @property
    def layer_misses(self) -> int:
        return self.misses - self.network_misses

    @property
    def layer_puts(self) -> int:
        return self.puts - self.network_puts

    @property
    def layer_errors(self) -> int:
        return self.errors - self.network_errors

    @property
    def layer_lookups(self) -> int:
        return self.layer_hits + self.layer_misses

    @property
    def network_lookups(self) -> int:
        return self.network_hits + self.network_misses

    def count(self, event: str, tier: str = "layer") -> None:
        """Count one ``event`` (``"hits"``, ``"misses"``, ``"puts"``,
        ``"errors"`` or ``"memo_hits"``) in the totals and, for the
        network tier, its share."""
        setattr(self, event, getattr(self, event) + 1)
        if tier == "network":
            share = f"network_{event}"
            setattr(self, share, getattr(self, share) + 1)

    def merge(self, other: "CacheStats") -> None:
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict[str, int]) -> "CacheStats":
        return CacheStats(**{name: int(data.get(name, 0)) for name in _COUNTERS})


#: The counter fields of :class:`CacheStats`, in order.
_COUNTERS = tuple(f.name for f in fields(CacheStats))


def _gemm_shape_from_dict(data: dict) -> GemmShape:
    return GemmShape(
        m=int(data["m"]),
        k=int(data["k"]),
        n=int(data["n"]),
        repeats=int(data["repeats"]),
        weight_is_dynamic=bool(data["weight_is_dynamic"]),
        channels=int(data["channels"]),
    )


def result_to_dict(result: LayerSimResult) -> dict:
    """JSON-serializable form of a layer result (exact float round-trip)."""
    return {
        "v": ENTRY_VERSION,
        "name": result.name,
        "cycles": result.cycles,
        "dense_cycles": result.dense_cycles,
        "gemms": [
            {
                "shape": asdict(g.shape),
                "cycles": g.cycles,
                "dense_cycles": g.dense_cycles,
                "sampled_passes": g.sampled_passes,
            }
            for g in result.gemms
        ],
    }


def result_from_dict(data: dict) -> LayerSimResult:
    """Inverse of :func:`result_to_dict`; raises on any malformed entry."""
    if data.get("v") != ENTRY_VERSION:
        raise ValueError(f"unsupported cache entry version: {data.get('v')!r}")
    gemms = tuple(
        GemmSimResult(
            shape=_gemm_shape_from_dict(g["shape"]),
            cycles=float(g["cycles"]),
            dense_cycles=int(g["dense_cycles"]),
            sampled_passes=int(g["sampled_passes"]),
        )
        for g in data["gemms"]
    )
    return LayerSimResult(
        name=str(data["name"]),
        cycles=float(data["cycles"]),
        dense_cycles=int(data["dense_cycles"]),
        gemms=gemms,
    )


def network_result_to_dict(result: NetworkSimResult) -> dict:
    """JSON-serializable form of a network result (exact float round-trip).

    Scalars first, then the layer list as one embedded JSON string: a hit
    parses only the string's bytes and decodes it on first ``.layers``.
    """
    return {
        "v": NETWORK_ENTRY_VERSION,
        "network": result.network,
        "config": result.config,
        "category": result.category.value,
        "cycles": result.cycles,
        "dense_cycles": result.dense_cycles,
        "layers": json.dumps(
            [result_to_dict(layer) for layer in result.layers], separators=(",", ":")
        ),
    }


def _layers_from_json(text: str) -> tuple[LayerSimResult, ...]:
    return tuple(result_from_dict(layer) for layer in json.loads(text))


def network_result_from_dict(data: dict) -> NetworkSimResult:
    """Inverse of :func:`network_result_to_dict` (layers decoded lazily);
    raises on malformed entries."""
    if data.get("v") != NETWORK_ENTRY_VERSION:
        raise ValueError(
            f"unsupported network cache entry version: {data.get('v')!r}"
        )
    return NetworkSimResult.lazy(
        partial(_layers_from_json, data["layers"]),
        network=str(data["network"]),
        config=str(data["config"]),
        category=ModelCategory(data["category"]),
        cycles=float(data["cycles"]),
        dense_cycles=int(data["dense_cycles"]),
    )


class _CorruptEntry(Exception):
    """Internal: a cache file existed but did not decode."""


class PersistentLayerCache:
    """Disk-backed two-tier result cache: a handle on the store at ``root``.

    Implements the engine's :class:`~repro.sim.engine.ResultCache`
    protocol: the layer tier (``get`` / ``put``) and the network tier
    (``get_network`` / ``put_network``) share the root directory and the
    atomic-write discipline.  A handle is cheap -- a root and the
    :class:`CacheStats` it records into (tier shares in its ``network_*``
    / ``layer_*`` views) -- so each evaluation call opens its own handle
    on the shared store and its ``stats`` are exactly its own activity,
    however many calls overlap.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()

    @property
    def layers_dir(self) -> Path:
        return self.root / "layers"

    @property
    def networks_dir(self) -> Path:
        return self.root / "networks"

    def path_for(self, key: str) -> Path:
        return self.layers_dir / key[:2] / f"{key}.json"

    def network_path_for(self, key: str) -> Path:
        return self.networks_dir / key[:2] / f"{key}.json"

    def _read(self, path: Path, decode) -> object | None:
        """One tier-agnostic lookup.

        Returns the decoded result, ``None`` for a plain miss (absent or
        unreadable file), or raises ``_CorruptEntry`` after unlinking a
        malformed file so callers can count the error against the right
        tier.
        """
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return decode(json.loads(text))
        except (ValueError, KeyError, TypeError):
            # Corrupt or stale-schema entry: drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            raise _CorruptEntry from None

    def _write(self, path: Path, payload: str, key: str) -> bool:
        """Atomic write; ``False`` (never an exception) on disk errors."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full disk never fails the simulation.
            return False
        return True

    def _lookup(self, tier: str, key: str, path: Path, decode) -> object | None:
        """Read one entry of ``tier`` under its span, counting the outcome."""
        with obs.ACTIVE.span(f"cache.{tier}.get", key=key) as span:
            try:
                result = self._read(path, decode)
            except _CorruptEntry:
                result = None
                self.stats.count("errors", tier)
            self.stats.count("misses" if result is None else "hits", tier)
            span.set(hit=result is not None)
        return result

    def _store(self, tier: str, key: str, path: Path, encode, result) -> None:
        """Write one entry of ``tier`` under its span, counting the outcome."""
        with obs.ACTIVE.span(f"cache.{tier}.put", key=key):
            payload = json.dumps(encode(result), separators=(",", ":"))
            written = self._write(path, payload, key)
            self.stats.count("puts" if written else "errors", tier)

    def get(self, key: str) -> LayerSimResult | None:
        return self._lookup("layer", key, self.path_for(key), result_from_dict)

    def put(self, key: str, result: LayerSimResult) -> None:
        self._store("layer", key, self.path_for(key), result_to_dict, result)

    def get_network(self, key: str) -> NetworkSimResult | None:
        return self._lookup(
            "network", key, self.network_path_for(key), network_result_from_dict
        )

    def put_network(self, key: str, result: NetworkSimResult) -> None:
        self._store(
            "network", key, self.network_path_for(key), network_result_to_dict, result
        )

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Total entries on disk across both tiers."""
        total = 0
        for tier in (self.layers_dir, self.networks_dir):
            if tier.is_dir():
                total += sum(1 for _ in sorted(tier.glob("*/*.json")))
        return total

    def clear(self) -> int:
        """Delete every cached entry (both tiers); returns how many."""
        removed = 0
        for tier in (self.layers_dir, self.networks_dir):
            if not tier.is_dir():
                continue
            for entry in sorted(tier.glob("*/*.json")):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


class ProbeMiss(Exception):
    """A :class:`NetworkTierProbe` met something other than a network-tier hit."""


class NetworkTierProbe(PersistentLayerCache):
    """A handle that answers network-tier hits and raises :class:`ProbeMiss`
    on anything else (the warm pass of :meth:`repro.api.Session.evaluate`).

    A missing or corrupt entry raises uncounted and stays on disk, so the
    pool's own read counts it as the serial path does.  Layer reads and
    writes raise too; the engine reaches them only after a network miss.
    """

    def _read(self, path: Path, decode) -> object:
        try:
            return decode(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError):
            raise ProbeMiss(path.name) from None

    def get(self, key: str) -> LayerSimResult | None:
        raise ProbeMiss(key)

    def _write(self, path: Path, payload: str, key: str) -> bool:
        raise ProbeMiss(key)
