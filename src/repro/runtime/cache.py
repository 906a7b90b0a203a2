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

Both tiers live in one SQLite database, ``<root>/cache.sqlite``: tables
``layers`` and ``networks`` map a key to its payload (a layer's JSON; a
network's scalars as one JSON line, then its layer list's JSON).  Each put is
one autocommitted ``INSERT OR REPLACE`` in WAL mode, so threads, worker
processes and concurrent ``repro`` invocations share the store (racing
writers of a key write identical payloads).  Rows that fail to decode
are deleted, recomputed and counted in :attr:`CacheStats.errors`; a store
that cannot be opened or written never fails the simulation.

The root defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.  Keys
carry :data:`~repro.sim.engine.SIMULATION_KEY_VERSION` and
:data:`~repro.sim.engine.NETWORK_KEY_VERSION` (network keys hash both), so
entries of an older schema are simply never looked up again; delete the
directory or call :meth:`PersistentLayerCache.clear` to drop them.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
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

#: On-disk network-entry schema version (3: the scalars' JSON on the first
#: line, the layer list's JSON after it, decoded on demand).
NETWORK_ENTRY_VERSION = 3


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
    across both tiers**; the ``network_*`` fields hold the network tier's
    share and the ``layer_*`` properties the rest.  ``memo_hits`` counts
    layers answered by an :class:`~repro.sim.engine.EvalContext` memo,
    which read nothing from the store, so it stays out of ``hits``.  One
    flat object keeps the tier breakdown through every aggregation path
    (worker chunks, session totals, sweep outcomes).
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


#: ``GemmShape``'s fields in order (``asdict`` costs ~13 µs per shape).
_SHAPE_FIELDS = tuple(f.name for f in fields(GemmShape))


def result_to_dict(result: LayerSimResult) -> dict:
    """JSON-serializable form of a layer result (exact float round-trip)."""
    return {
        "v": ENTRY_VERSION,
        "name": result.name,
        "cycles": result.cycles,
        "dense_cycles": result.dense_cycles,
        "gemms": [
            {
                "shape": {name: getattr(g.shape, name) for name in _SHAPE_FIELDS},
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
            shape=GemmShape(**g["shape"]),
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
    """JSON-serializable form of a network result (exact float round-trip):
    the scalars, then the layer list as one JSON string."""
    return {
        "v": NETWORK_ENTRY_VERSION,
        "network": result.network,
        "config": result.config,
        "category": result.category.value,
        "cycles": result.cycles,
        "dense_cycles": result.dense_cycles,
        "layers": _dumps([result_to_dict(layer) for layer in result.layers]),
    }


def _dumps(data: object) -> str:
    return json.dumps(data, separators=(",", ":"))


def _layers_from_json(text: str) -> tuple[LayerSimResult, ...]:
    return tuple(result_from_dict(layer) for layer in json.loads(text))


def _layer_to_text(result: LayerSimResult) -> str:
    return _dumps(result_to_dict(result))


def _layer_from_text(text: str) -> LayerSimResult:
    return result_from_dict(json.loads(text))


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


def network_result_to_text(result: NetworkSimResult) -> str:
    """The stored payload: the scalars' JSON, a newline, the layers' JSON
    (compact JSON has no raw newline: a hit parses the first line only)."""
    entry = network_result_to_dict(result)
    layers = entry.pop("layers")
    return f"{_dumps(entry)}\n{layers}"


def network_result_from_text(text: str) -> NetworkSimResult:
    """Inverse of :func:`network_result_to_text` (layers decoded lazily)."""
    head, newline, layers = text.partition("\n")
    if not newline:
        raise ValueError("network cache entry has no layer line")
    return network_result_from_dict({**json.loads(head), "layers": layers})


#: The store's database file, under its root.
DB_NAME = "cache.sqlite"

#: Connections one thread keeps open (one per store, oldest closed first).
MAX_OPEN_STORES = 8

#: Seconds a statement waits for another connection's write lock.
BUSY_TIMEOUT_S = 30.0

_TABLE = {"layer": "layers", "network": "networks"}


#: This thread's ``pid`` and ``open`` connections: path -> (connection,
#: file identity).
_LOCAL = threading.local()
#: A forked child's inherited connections, held so it never closes them.
_INHERITED: list[tuple] = []


def _use_wal(db: sqlite3.Connection) -> None:
    """Switch ``db``'s store to WAL, retried for up to the busy timeout:
    while another connection writes to a store still in rollback mode,
    sqlite fails the switch at once with ``database is locked``."""
    pause = 0.005
    for attempt in reversed(range(int(BUSY_TIMEOUT_S / pause))):
        try:
            db.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or not attempt:
                raise
            time.sleep(pause)


def _connect(path: Path) -> sqlite3.Connection:
    """This process's and thread's connection to the database at ``path``,
    opened on first use and reused while ``path`` is the file it opened
    (a deleted store gets a fresh one); raises ``OSError`` or
    ``sqlite3.Error`` when the store cannot be opened."""
    local = _LOCAL
    if getattr(local, "pid", None) != os.getpid():  # a new thread or a fork
        _INHERITED.extend(getattr(local, "open", {}).values())
        local.pid, local.open = os.getpid(), {}
    name = str(path)
    try:
        identity = os.stat(name)[1:3]  # (st_ino, st_dev)
    except OSError:
        identity = None
    cached = local.open.pop(name, None)
    if cached is not None and cached[1] == identity:
        local.open[name] = cached
        return cached[0]
    if cached is not None:
        cached[0].close()
    path.parent.mkdir(parents=True, exist_ok=True)
    db = sqlite3.connect(name, timeout=BUSY_TIMEOUT_S, isolation_level=None)
    try:
        _use_wal(db)
        db.execute("PRAGMA synchronous=NORMAL")
        for table in _TABLE.values():
            db.execute(f"CREATE TABLE IF NOT EXISTS {table}"
                       "(key TEXT PRIMARY KEY, payload)")
    except sqlite3.Error:
        db.close()
        raise
    if len(local.open) >= MAX_OPEN_STORES:
        local.open.pop(next(iter(local.open)))[0].close()
    local.open[name] = (db, os.stat(name)[1:3])
    return db


class _CorruptEntry(Exception):
    """Internal: a cache row existed but did not decode."""


class PersistentLayerCache:
    """Two-tier result cache: a handle on the store at ``root``.

    Implements the engine's :class:`~repro.sim.engine.ResultCache`
    protocol: the layer tier (``get`` / ``put``) and the network tier
    (``get_network`` / ``put_network``).  A handle is cheap -- a root and
    the :class:`CacheStats` it records into; connections are per thread
    and shared by every handle -- so each evaluation call opens its own
    and its ``stats`` are exactly its own activity, however many overlap.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.db_path = self.root / DB_NAME
        self.stats = CacheStats()

    def _execute(self, sql: str, *params) -> sqlite3.Cursor | None:
        """``sql`` run on the store; ``None`` (never an exception) when the
        store cannot be opened, read or written."""
        try:
            return _connect(self.db_path).execute(sql, params)
        except (OSError, sqlite3.Error):
            return None

    def _payload(self, tier: str, key: str) -> str | None:
        sql = f"SELECT payload FROM {_TABLE[tier]} WHERE key = ?"
        cursor = self._execute(sql, key)
        row = cursor and cursor.fetchone()
        return row[0] if row else None

    def _read(self, tier: str, key: str, decode) -> object | None:
        """The decoded result, ``None`` for a plain miss (no row, or no
        store to read); raises ``_CorruptEntry`` after deleting a malformed
        row, so callers count the error against the right tier."""
        payload = self._payload(tier, key)
        if payload is None:
            return None
        try:
            return decode(payload)
        except (ValueError, KeyError, TypeError):
            # Corrupt or stale-schema entry: drop it and recompute.
            self._execute(f"DELETE FROM {_TABLE[tier]} WHERE key = ?", key)
            raise _CorruptEntry from None

    def _write(self, tier: str, key: str, payload: str) -> bool:
        sql = f"INSERT OR REPLACE INTO {_TABLE[tier]} VALUES (?, ?)"
        return self._execute(sql, key, payload) is not None

    def _lookup(self, tier: str, key: str, decode) -> object | None:
        """Read one entry of ``tier`` under its span, counting the outcome."""
        with obs.ACTIVE.span(f"cache.{tier}.get", key=key) as span:
            try:
                result = self._read(tier, key, decode)
            except _CorruptEntry:
                result = None
                self.stats.count("errors", tier)
            self.stats.count("misses" if result is None else "hits", tier)
            span.set(hit=result is not None)
        return result

    def _store(self, tier: str, key: str, encode, result) -> None:
        """Write one entry of ``tier`` under its span, counting the outcome."""
        with obs.ACTIVE.span(f"cache.{tier}.put", key=key):
            written = self._write(tier, key, encode(result))
            self.stats.count("puts" if written else "errors", tier)

    def get(self, key: str) -> LayerSimResult | None:
        return self._lookup("layer", key, _layer_from_text)

    def put(self, key: str, result: LayerSimResult) -> None:
        self._store("layer", key, _layer_to_text, result)

    def get_network(self, key: str) -> NetworkSimResult | None:
        return self._lookup("network", key, network_result_from_text)

    def put_network(self, key: str, result: NetworkSimResult) -> None:
        self._store("network", key, network_result_to_text, result)

    def _each_table(self, sql: str) -> list[sqlite3.Cursor]:
        """``sql`` (``{}`` for the table) run on both tables of the store,
        if it has a database that opens."""
        if not self.db_path.is_file():
            return []
        cursors = (self._execute(sql.format(table)) for table in _TABLE.values())
        return [cursor for cursor in cursors if cursor is not None]

    def __len__(self) -> int:
        """Total entries in the store across both tiers."""
        counts = self._each_table("SELECT count(*) FROM {}")
        return sum(cursor.fetchone()[0] for cursor in counts)

    def clear(self) -> int:
        """Delete every cached entry (both tiers); returns how many."""
        return sum(cursor.rowcount for cursor in self._each_table("DELETE FROM {}"))


class ProbeMiss(Exception):
    """A :class:`NetworkTierProbe` met something other than a network-tier hit."""


class NetworkTierProbe(PersistentLayerCache):
    """A handle that answers network-tier hits and raises :class:`ProbeMiss`
    on anything else (the warm pass of :meth:`repro.api.Session.evaluate`).

    A missing or corrupt entry raises uncounted and stays stored, so the
    pool's own read counts it as the serial path does.  Layer reads and
    writes raise too; the engine reaches them only after a network miss.
    """

    def _read(self, tier: str, key: str, decode) -> object:
        try:
            return decode(self._payload(tier, key))  # None: AttributeError
        except (ValueError, KeyError, TypeError, AttributeError):
            raise ProbeMiss(key) from None

    def get(self, key: str) -> LayerSimResult | None:
        raise ProbeMiss(key)

    def _write(self, tier: str, key: str, payload: str) -> bool:
        raise ProbeMiss(key)
