"""serve-warm: warm ``/run`` requests against a ``repro serve --workers 2`` process.

Set-up boots the server on a fresh cache and prefills it with one POST
of the full fig8 grid; a run sets up :data:`SETUPS` servers one after
the other and loads each of them.  The load is a closed loop on one
client connection, replaying a seeded pool of distinct subset specs
(1-4 fig8 designs x 1-4 categories, same sampling options as the
prefill).  One connection keeps the busy processes (the server's two
pool workers) within the two CPUs the benchmark is sized for: a second
connection queues each request behind the other's on the CPUs, which
measures the scheduler (p50 34 ms against 19 ms on a 2-vCPU Xeon VM).
Every request is answered from the network cache tier, so the load
measures key hashing, cache reads, runner dispatch into a warm pool and
the HTTP/JSON path, and no sampling or scheduling at all.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from perfbench import harness
from perfbench.layers import layer_metrics, spanned, subtrees
from perfbench.workloads import Outcome, check_fig8, fig8_spec
from repro.obs import read_trace
from repro.obs import trace as obs
from repro.serve.client import ServeClient, ServeError

SERVE_ENTRY = Path(__file__).resolve().parent / "serve_entry.py"

#: Distinct request specs replayed by the client.
POOL_SIZE = 96
#: Server set-ups (boot + prefill) per run; each one takes a load.
SETUPS = 2
#: Load size: requests per second of ``--seconds`` (a little under the
#: warm rate), split over the SETUPS loads, and at least MIN_REQUESTS per
#: load so p95 keeps 20 samples beyond it.
REQUESTS_PER_SECOND = 45
MIN_REQUESTS = 200
#: Requests of each load in a traced run (the trace holds ~450 key
#: spans per request, so the traced load is kept small).
TRACE_REQUESTS = 200

_METRICS = ("speedup", "TOPS/W", "TOPS/mm2")


def request_pool(seed: int) -> list[dict]:
    """POOL_SIZE distinct subset specs."""
    fig8 = fig8_spec(seed)
    designs, categories = fig8["designs"], fig8["categories"]
    rng = random.Random(f"serve-warm:{seed}")
    seen: set[tuple] = set()
    pool: list[dict] = []
    while len(pool) < POOL_SIZE:
        picked = (
            tuple(sorted(rng.sample(range(len(designs)), rng.randint(1, 4)))),
            tuple(sorted(rng.sample(range(len(categories)), rng.randint(1, 4)))),
        )
        if picked in seen:
            continue
        seen.add(picked)
        pool.append({
            "name": f"warm-{len(pool)}",
            "designs": [designs[i] for i in picked[0]],
            "categories": [categories[i] for i in picked[1]],
            "quick": fig8["quick"],
            "options": fig8["options"],
        })
    return pool


def request_stream(seed: int, count: int) -> list[bytes]:
    """``count`` request bodies: the pool replayed in seeded shuffled rounds."""
    rng = random.Random(f"serve-warm-order:{seed}")
    bodies = [json.dumps(spec, sort_keys=True).encode() for spec in request_pool(seed)]
    stream: list[bytes] = []
    while len(stream) < count:
        order = list(range(len(bodies)))
        rng.shuffle(order)
        stream.extend(bodies[i] for i in order)
    return stream[:count]


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def cell_mismatch(doc: dict, spec: dict, reference: dict[str, dict]) -> bool:
    """True unless every served cell is bitwise-equal to the prefill's cell."""
    tags = [c.removeprefix("DNN.") for c in spec["categories"]]
    keys = {"Config"} | {f"{tag} {m}" for tag in tags for m in _METRICS}
    if doc.get("categories") != spec["categories"]:
        return True
    if [row.get("Config") for row in doc.get("rows", [])] != spec["designs"]:
        return True
    for row in doc["rows"]:
        ref = reference[row["Config"]]
        if set(row) != keys or any(_bits(row[k]) != _bits(ref.get(k)) for k in keys):
            return True
    return False


class Server:
    """A ``repro serve --workers 2`` process on a fresh cache directory."""

    def __init__(self, work: Path, label: str, trace: Path | None = None) -> None:
        argv = [sys.executable, "-m", "repro"] if trace is None else [
            sys.executable, str(SERVE_ENTRY)]
        argv += ["serve", "--workers", "2", "--port", "0",
                 "--cache-dir", str(work / f"{label}-cache")]
        if trace is not None:
            argv += ["--trace", str(trace)]
        env = dict(os.environ, PYTHONPATH=str(harness.SRC))
        self.log = work / f"{label}.log"
        with self.log.open("w") as log:
            self.proc = subprocess.Popen(
                argv, cwd=harness.ROOT, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match is None:
            self.kill()
            raise RuntimeError(
                f"server did not start: {line!r}\n{self.log.read_text()}"
            )
        self.port = int(match.group(1))
        self.client = ServeClient(port=self.port, timeout=120)

    def stop(self) -> float:
        """Shut down and reap; return the live peak RSS (MB) read just before."""
        peak = harness.live_peak_mb(self.proc.pid)
        try:
            self.client.shutdown()
            self.proc.stdout.read()
            self.proc.wait(timeout=90)
        finally:
            self.kill()
        return peak

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def boot(work: Path, label: str, seed: int, trace: Path | None = None):
    """One set-up: start a server and prefill it; ``(server, prefill doc, seconds)``."""
    start = perf_counter()
    server = Server(work, label, trace)
    try:
        prefill = server.client.run(json.dumps(fig8_spec(seed)))
    except BaseException:
        server.kill()
        raise
    return server, prefill, perf_counter() - start


@dataclass
class Load:
    """One load's latencies and wall time, scaled by its gauge factor."""

    latencies: list[float]
    failed: int
    wall: float
    factor: float


def drive(port: int, stream: list[bytes], prefill: dict) -> Load:
    """Replay the stream on one connection, closed loop; check each answer.

    The gauge is read between requests, while the server is idle.
    """
    reference = {row["Config"]: row for row in prefill["rows"]}
    run = spanned("serve.client.run", ServeClient(port=port, timeout=120).run)
    gauge = harness.Gauge()
    latencies, failed = [], 0
    start = perf_counter()
    for body in stream:
        sent = perf_counter()
        try:
            doc = run(body.decode())
        except (ServeError, OSError, ValueError):
            failed += 1
            continue
        latencies.append(perf_counter() - sent)
        failed += cell_mismatch(doc, json.loads(body), reference)
        gauge.tick()
    wall = perf_counter() - start - gauge.spent
    factor = gauge.factor()
    return Load([lat * factor for lat in latencies], failed, wall * factor, factor)


def _stream_detail(stream: list[bytes]) -> dict:
    return {
        "requests_per_load": len(stream),
        "connections": 1,
        "distinct_specs": len(set(stream)),
    }


def measure(seed: int, seconds: float, work: Path) -> Outcome:
    per_load = max(MIN_REQUESTS, REQUESTS_PER_SECOND * int(seconds) // SETUPS)
    stream = request_stream(seed, per_load)
    setups, peaks, loads, prefill_checks, prefill_failed = [], [], [], 0, 0
    for index in range(SETUPS):
        server, prefill, elapsed = boot(work, f"setup{index}", seed)
        try:
            setups.append(elapsed)
            prefill_checks += len(prefill["categories"])
            prefill_failed += len(check_fig8(prefill))
            loads.append(drive(server.port, stream, prefill))
        finally:
            peaks.append(server.stop())
    requests = SETUPS * len(stream)
    attempted = requests + prefill_checks
    failed = sum(load.failed for load in loads) + prefill_failed
    wall = sum(load.wall for load in loads)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": max(harness.peak_rss_mb(), *peaks),
        "ok_ratio": (attempted - failed) / attempted,
        **harness.latency_metrics([lat for load in loads for lat in load.latencies]),
        "throughput_rps": requests / wall,
    }
    detail = dict(_stream_detail(stream), loads=SETUPS, setups_s=setups,
                  load_walls_s=[load.wall for load in loads],
                  gauge_factors=[load.factor for load in loads],
                  server_peaks_mb=peaks, sampling_seed=seed)
    return Outcome(attempted, failed, metrics, detail)


def trace(seed: int, work: Path) -> Outcome:
    """An untraced then a traced server, same seed and load; per-layer metrics."""
    stream = request_stream(seed, TRACE_REQUESTS)
    server, prefill, _ = boot(work, "untraced", seed)
    try:
        plain = drive(server.port, stream, prefill)
    finally:
        server.stop()
    path = work / "serve-trace.jsonl"
    server, prefill, _ = boot(work, "traced", seed, trace=path)
    tracer = obs.Tracer()
    try:
        with obs.tracing(tracer):
            traced = drive(server.port, stream, prefill)
    finally:
        server.stop()
    _, spans = read_trace(path)
    # Only the load: the prefill is the first evaluation request.
    load_spans = subtrees(
        spans,
        lambda span: span["name"] == "serve.request"
        and span["attrs"].get("request_id", 0) > 1,
    )
    client_s = sum(
        span["t1"] - span["t0"] for span in tracer.export()
        if span["name"] == "serve.client.run"
    )
    metrics = layer_metrics(load_spans, client_s)
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.overhead_pct"] = 100.0 * (traced.wall / plain.wall - 1.0)
    requests = 2 * len(stream)
    detail = dict(_stream_detail(stream), untraced_wall_s=plain.wall)
    return Outcome(requests, plain.failed + traced.failed, metrics, detail)
