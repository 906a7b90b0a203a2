"""Span tracing with a cheap disabled path.

A :class:`Tracer` records a tree of timed spans.  Instrumented code,
hot paths (engine, cache) included, is written as::

    from repro.obs import trace as obs
    ...
    with obs.ACTIVE.span("engine.tile_batch", passes=n) as span:
        work()
        span.set(hit=True)

With tracing off, the no-op tracer returns a shared no-op span whose
context-manager protocol and ``set`` do nothing: under a microsecond
per span, a few milliseconds over the ~8k spans of a cold Fig. 8 run.

Determinism contract: spans are collected out-of-band and never feed
simulation inputs or cache keys, so traced results are bitwise-identical
to untraced results.  Worker processes install their own local tracer,
export span records as plain dicts, and the parent re-parents them with
:meth:`Tracer.absorb` in deterministic chunk order -- two traced runs of
the same command produce structurally identical span trees regardless of
worker completion order.

Span records are plain dicts::

    {"name": str, "id": int, "parent": int | None,
     "t0": float, "t1": float, "attrs": {str: json-scalar}}

with ``t0``/``t1`` in seconds relative to the owning tracer's epoch.
"""

from __future__ import annotations

import itertools
import threading
import uuid
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator, List, Optional, Sequence

TRACE_SCHEMA_VERSION = 1

_FROM_STACK = object()


class _NoopSpan:
    """Shared do-nothing span returned by the no-op tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    @property
    def span_id(self) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _NoopTracer:
    """Inactive tracer: ``enabled`` is False and spans do nothing."""

    __slots__ = ()

    enabled = False
    trace_id: Optional[str] = None

    def span(self, name: str, parent_id: Any = _FROM_STACK, **attrs: Any) -> _NoopSpan:
        return NOOP_SPAN

    def export(self) -> List[dict]:
        return []

    def absorb(
        self,
        spans: Sequence[dict],
        parent: Any = None,
        shift: Optional[float] = None,
    ) -> None:
        return None


NOOP = _NoopTracer()

# The active tracer.  Hot paths read this through the module
# (``obs.ACTIVE``) so ``set_tracer`` rebinds for every caller at once.
ACTIVE: Any = NOOP


class Span:
    """A single timed span; use as a context manager."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "attrs", "t0", "t1")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Any,
        attrs: dict,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.t0 = 0.0
        self.t1 = 0.0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        if self.parent_id is _FROM_STACK:
            self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self.t0 = self.tracer._now()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.t1 = self.tracer._now()
        # Remove rather than pop: concurrent asyncio requests on one
        # thread may interleave detached spans out of LIFO order.
        stack = self.tracer._stack()
        try:
            stack.remove(self)
        except ValueError:
            pass
        self.tracer._record(self)
        return False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects span records; thread-safe, one per traced command.

    Times count from ``epoch`` (a ``perf_counter`` reading; default: now).
    A tracer made with another's ``epoch`` shares its clock, so its spans
    absorb into the other with ``shift=0.0``.
    """

    enabled = True

    def __init__(self, trace_id: Optional[str] = None, epoch: Optional[float] = None) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.epoch = perf_counter() if epoch is None else epoch
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._records: List[dict] = []
        self._local = threading.local()

    # -- internal ----------------------------------------------------

    def _now(self) -> float:
        return perf_counter() - self.epoch

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self._records.append(span.as_dict())

    # -- public ------------------------------------------------------

    def span(self, name: str, parent_id: Any = _FROM_STACK, **attrs: Any) -> Span:
        """Create a span.

        Without ``parent_id`` the parent is the innermost open span on
        the *current thread*.  Pass ``parent_id`` explicitly (an id or
        ``None`` for a root) to stitch across threads or async tasks;
        the span is still pushed on the current thread's stack so its
        own children nest under it.
        """
        with self._lock:
            span_id = next(self._ids)
        return Span(self, name, span_id, parent_id, dict(attrs))

    def current_span_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def absorb(
        self,
        spans: Sequence[dict],
        parent: Any = None,
        shift: Optional[float] = None,
    ) -> None:
        """Adopt span records exported by another tracer (e.g. a worker).

        Ids are remapped from this tracer's counter (in input order, so
        the result is deterministic for a deterministic input order),
        orphan spans are parented under ``parent`` (a :class:`Span`, an
        id, or ``None``), and timestamps are shifted by ``shift`` --
        defaulting to aligning the earliest absorbed span with the
        parent span's start when ``parent`` is a :class:`Span`.
        """
        if not spans:
            return
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        if shift is None:
            if isinstance(parent, Span):
                shift = parent.t0 - min(rec["t0"] for rec in spans)
            else:
                shift = 0.0
        with self._lock:
            remap = {rec["id"]: next(self._ids) for rec in spans}
            for rec in spans:
                self._records.append(
                    {
                        "name": rec["name"],
                        "id": remap[rec["id"]],
                        "parent": remap.get(rec["parent"], parent_id),
                        "t0": rec["t0"] + shift,
                        "t1": rec["t1"] + shift,
                        "attrs": dict(rec.get("attrs") or {}),
                    }
                )

    def export(self) -> List[dict]:
        """Return a copy of all recorded spans, sorted by (t0, id)."""
        with self._lock:
            records = [dict(rec, attrs=dict(rec["attrs"])) for rec in self._records]
        records.sort(key=lambda rec: (rec["t0"], rec["id"]))
        return records


def get_tracer() -> Any:
    """Return the active tracer (the no-op tracer when tracing is off)."""
    return ACTIVE


def set_tracer(tracer: Any) -> Any:
    """Install ``tracer`` (or the no-op tracer for ``None``); return the previous one."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = tracer if tracer is not None else NOOP
    return previous


@contextmanager
def tracing(tracer: Any) -> Iterator[Any]:
    """Context manager: install ``tracer`` for the duration of the block."""
    previous = set_tracer(tracer)
    try:
        yield ACTIVE
    finally:
        set_tracer(previous)


def current_trace_id() -> Optional[str]:
    """Trace id of the active tracer, or ``None`` when tracing is off."""
    return ACTIVE.trace_id
