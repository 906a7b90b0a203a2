"""Per-request and aggregate telemetry of the ``repro serve`` service.

One :class:`ServeTelemetry` instance lives for the lifetime of the
server, built on the unified :class:`repro.obs.metrics.MetricsRegistry`.
Request handlers record events through it (received, coalesced,
computed, failed) and every computation folds in its latency split --
*queue* time (accepted -> evaluation thread picks it up) and *compute*
time (evaluation wall clock) -- plus the per-run persistent-cache delta,
so ``/stats`` can answer the deployment questions directly:

* is coalescing working?  ``coalesce.hits`` vs ``coalesce.computations``
  (the acceptance bar: 8 identical concurrent requests -> 1 computation,
  7 hits);
* is the cache warm?  ``cache.network_hits`` climbing while
  ``cache.layer_lookups`` and ``runner.chunks`` (``/run`` and
  ``/search`` work sent to the process pool) stay flat;
* where does latency go?  queue vs compute totals / max, plus the
  per-endpoint p50/p90/max summaries under ``latency.endpoints``.

The same registry renders as Prometheus text exposition format behind
``GET /metrics``, so one set of counters backs both views.  Metrics are
individually locked and only ever increase, so readers need no further
coordination.
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import MetricsRegistry, cache_metrics
from repro.runtime.cache import CacheStats

#: Bump on incompatible changes to the ``/stats`` payload shape.
STATS_VERSION = 1

#: Additive ``/stats`` schema revision: 2 added ``schema_version``,
#: ``latency.endpoints`` (p50/p90/max per endpoint), and ``GET /metrics``;
#: 3 added ``runner.chunks``; 4 added ``cache.memo_hits``.
STATS_SCHEMA_VERSION = 4


def _series_dict(summary: dict) -> dict:
    """The legacy total/max/mean latency block from a histogram summary."""
    count = int(summary["count"])
    total_ms = summary["sum"]
    return {
        "count": count,
        "total_ms": round(total_ms, 3),
        "max_ms": round(summary["max"], 3),
        "mean_ms": round(total_ms / count, 3) if count else 0.0,
    }


class ServeTelemetry:
    """Thread-safe counters behind ``/stats`` and ``GET /metrics``."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._started = time.monotonic()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._received = self.registry.counter(
            "repro_serve_requests_received_total",
            "Requests accepted, by endpoint.",
            labelnames=("endpoint",),
        )
        self._completed = self.registry.counter(
            "repro_serve_requests_completed_total",
            "Requests answered successfully.",
        )
        self._errors = self.registry.counter(
            "repro_serve_requests_errors_total",
            "Requests answered with an error envelope.",
        )
        self._streamed = self.registry.counter(
            "repro_serve_requests_streamed_total",
            "Requests served as progress streams.",
        )
        self._coalesce_hits = self.registry.counter(
            "repro_serve_coalesce_hits_total",
            "Requests that joined an in-flight identical computation.",
        )
        self._computations = self.registry.counter(
            "repro_serve_computations_total",
            "Distinct evaluations actually computed.",
        )
        self._runner_chunks = self.registry.counter(
            "repro_serve_runner_chunks_total",
            "Pool chunks sent by /run and /search evaluations (0 when warm).",
        )
        self._in_flight = self.registry.gauge(
            "repro_serve_computations_in_flight",
            "Evaluations currently running.",
        )
        self._uptime = self.registry.gauge(
            "repro_serve_uptime_seconds",
            "Seconds since the server started.",
        )
        self._queue = self.registry.histogram(
            "repro_serve_queue_ms",
            "Queue latency: accepted to evaluation start, in ms.",
        )
        self._compute = self.registry.histogram(
            "repro_serve_compute_ms",
            "Compute latency: evaluation wall clock, in ms.",
        )
        self._endpoint_latency = self.registry.histogram(
            "repro_serve_request_ms",
            "End-to-end request latency by endpoint, in ms.",
            labelnames=("endpoint",),
        )
        self._cache = CacheStats()
        self._cache_lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def request_received(self, endpoint: str) -> None:
        self._received.inc(endpoint=endpoint)

    def request_completed(
        self, endpoint: str | None = None, latency_s: float | None = None
    ) -> None:
        self._completed.inc()
        if endpoint is not None and latency_s is not None:
            self._endpoint_latency.observe(latency_s * 1000.0, endpoint=endpoint)

    def request_failed(self) -> None:
        self._errors.inc()

    def request_streamed(self) -> None:
        self._streamed.inc()

    def coalesce_hit(self) -> None:
        """A request joined an already-in-flight identical computation."""
        self._coalesce_hits.inc()

    def computation_started(self) -> None:
        self._computations.inc()
        self._in_flight.inc()

    def computation_finished(
        self,
        queue_s: float,
        compute_s: float,
        cache_delta: CacheStats | None = None,
        runner_chunks: int = 0,
    ) -> None:
        self._in_flight.dec()
        self._runner_chunks.inc(runner_chunks)
        self._queue.observe(queue_s * 1000.0)
        self._compute.observe(compute_s * 1000.0)
        if cache_delta is not None:
            with self._cache_lock:
                self._cache.merge(cache_delta)

    # -- reading -------------------------------------------------------

    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def as_dict(self, session_cache: CacheStats | None = None) -> dict:
        """The ``/stats`` payload.

        ``session_cache`` (the shared session's lifetime totals) is
        preferred for the ``cache`` block when given; the telemetry's own
        per-computation merge is the fallback for embedders without a
        session handle.  Each computation's counts are exactly its own,
        so the two agree whenever no computation is in flight.
        """
        with self._cache_lock:
            cache = (
                session_cache if session_cache is not None else self._cache
            ).snapshot()
        endpoints = {}
        for key in self._endpoint_latency.label_keys():
            summary = self._endpoint_latency.summary(endpoint=key[0])
            endpoints[key[0]] = {
                "count": int(summary["count"]),
                "p50_ms": round(summary["p50"], 3),
                "p90_ms": round(summary["p90"], 3),
                "max_ms": round(summary["max"], 3),
            }
        received = self._received.values()
        return {
            "v": STATS_VERSION,
            "schema_version": STATS_SCHEMA_VERSION,
            "uptime_s": round(self.uptime_s(), 3),
            "requests": {
                "received": int(sum(received.values())),
                "by_endpoint": {
                    key[0]: int(value) for key, value in sorted(received.items())
                },
                "completed": int(self._completed.value()),
                "errors": int(self._errors.value()),
                "streamed": int(self._streamed.value()),
            },
            "coalesce": {
                "computations": int(self._computations.value()),
                "hits": int(self._coalesce_hits.value()),
                "in_flight": int(self._in_flight.value()),
            },
            "runner": {"chunks": int(self._runner_chunks.value())},
            "latency": {
                "queue": _series_dict(self._queue.summary()),
                "compute": _series_dict(self._compute.summary()),
                "endpoints": endpoints,
            },
            "cache": cache.as_dict(),
        }

    def render_prometheus(self, session_cache: CacheStats | None = None) -> str:
        """The ``GET /metrics`` body: registry + cache counters."""
        self._uptime.set(round(self.uptime_s(), 3))
        text = self.registry.render()
        with self._cache_lock:
            cache = (
                session_cache if session_cache is not None else self._cache
            ).snapshot()
        cache_registry = MetricsRegistry()
        cache_metrics(cache_registry, cache)
        return text + cache_registry.render()
