"""The benchmark's own spans and the per-layer metrics of a trace.

The program records spans for sampling, scheduling, cache tiers, the
runner, search and serve.  Key hashing and client calls have none, so
the benchmark wraps those public entry points itself.  A wrapper checks
the active tracer on every call, so an untraced run pays one attribute
check.  Installed before a server's process pool forks, the wrappers are
inherited by its workers too.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Callable

from perfbench.harness import Gauge
from repro.obs import trace as obs
from repro.obs.report import summarize

#: (module, attribute, span name) of the key-hashing entry points.
KEY_ENTRY_POINTS = (
    ("repro.sim.engine", "simulation_key", "keys.simulation_key"),
    ("repro.sim.engine", "network_key", "keys.network_key"),
    ("repro.sim.engine", "network_fingerprint", "keys.network_fingerprint"),
)


def spanned(name: str, fn: Callable) -> Callable:
    """``fn`` inside a span called ``name`` whenever tracing is on."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = obs.ACTIVE
        if not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def timed(fn: Callable, sink: list[float], gauge: Gauge) -> Callable:
    """``fn`` appending the wall time of each call to ``sink``, then ticking ``gauge``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(perf_counter() - start)
            gauge.tick()

    return wrapper


def install_key_spans() -> None:
    """Wrap the key-hashing entry points in spans (idempotent)."""
    for module_name, attr, span_name in KEY_ENTRY_POINTS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        if getattr(fn, "__wrapped__", None) is None:
            setattr(module, attr, spanned(span_name, fn))


def _dispatch_s(spans: list[dict]) -> float:
    """Self time of ``runner.parallel``: its duration minus the union of its children.

    Worker chunks run side by side, so the sum of their durations can
    exceed the parent's; the union is the part of the interval they cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["t0"], span["t1"]))
    total = 0.0
    for span in spans:
        if span["name"] != "runner.parallel":
            continue
        covered, reach = 0.0, span["t0"]
        for t0, t1 in sorted(children.get(span["id"], [])):
            t0, t1 = max(t0, reach), min(t1, span["t1"])
            if t1 > t0:
                covered += t1 - t0
                reach = t1
        total += max(span["t1"] - span["t0"] - covered, 0.0)
    return total


def layer_metrics(spans: list[dict], client_s: float = 0.0) -> dict[str, float]:
    """Per-layer self times and counts of one traced window.

    ``client_s`` is the summed client-side latency of the served requests
    in ``spans`` (0 for in-process workloads).
    """
    summary = summarize(spans)
    by_name = {entry["name"]: entry for entry in summary["top"]}
    cache = summary["cache"]

    def self_s(*names: str) -> float:
        return sum(by_name[n]["self_s"] for n in names if n in by_name)

    def total_s(name: str) -> float:
        return by_name[name]["total_s"] if name in by_name else 0.0

    def calls(name: str) -> int:
        return by_name[name]["count"] if name in by_name else 0

    def attr_sum(name: str, attr: str) -> int:
        return sum(int(s["attrs"].get(attr, 0)) for s in spans if s["name"] == name)

    request_s = total_s("serve.request")
    return {
        "sim.sample_passes.self_s": self_s("engine.sample_passes"),
        "sim.sample_passes.calls": calls("engine.sample_passes"),
        "sim.tile_batch.self_s": self_s("engine.tile_batch"),
        "sim.tile_batch.calls": calls("engine.tile_batch"),
        "sim.layer.self_s": self_s("engine.compute_layer", "engine.network_compute"),
        "cache.layer.put_s": self_s("cache.layer.put"),
        "cache.network.put_s": self_s("cache.network.put"),
        "cache.layer.puts": cache["layer"]["puts"],
        "cache.network.puts": cache["network"]["puts"],
        "cache.layer.get_s": self_s("cache.layer.get"),
        "cache.network.get_s": self_s("cache.network.get"),
        "cache.layer.hits": cache["layer"]["hits"],
        "cache.layer.misses": cache["layer"]["misses"],
        "cache.network.hits": cache["network"]["hits"],
        "keys.simulation_key_s": self_s("keys.simulation_key"),
        "keys.network_key_s": self_s("keys.network_key"),
        "keys.fingerprint_s": self_s("keys.network_fingerprint"),
        "keys.calls": calls("keys.simulation_key") + calls("keys.network_key"),
        "surrogate.screen_s": self_s("surrogate.screen"),
        "surrogate.configs": attr_sum("surrogate.screen", "configs"),
        "search.screen_s": self_s("search.screen"),
        "search.exact_evals": attr_sum("search.confirm", "fresh"),
        "runner.dispatch_s": _dispatch_s(spans),
        "runner.chunks": calls("runner.chunk"),
        "serve.compute_s": total_s("serve.compute"),
        "serve.queue_s": self_s("serve.request"),
        "serve.client_overhead_s": max(client_s - request_s, 0.0) if client_s else 0.0,
    }


def subtrees(spans: list[dict], keep: Callable[[dict], bool]) -> list[dict]:
    """The spans that descend from (or are) a root span accepted by ``keep``."""
    by_id = {span["id"]: span for span in spans}
    verdict: dict[int, bool] = {}

    def kept(span: dict) -> bool:
        chain = []
        while span["id"] not in verdict:
            parent = by_id.get(span["parent"])
            if parent is None:
                verdict[span["id"]] = keep(span)
                break
            chain.append(span)
            span = parent
        result = verdict[span["id"]]
        for item in chain:
            verdict[item["id"]] = result
        return result

    return [span for span in spans if kept(span)]
