"""Measurement helpers shared by every workload.

Percentiles follow one rule: a percentile is reported only when at
least :data:`MIN_BEYOND` samples lie beyond it, so a tail figure never
rests on a handful of requests.  Times measured in a timed window are
reported at one reference host speed, read by a :class:`Gauge` inside
the window.  Peak memory covers the benchmark process, every child it
has reaped and any live process it names.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN = Path(__file__).resolve().parent / "run.py"

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

_SUFFIX_UNITS = (
    ("_pct", "%"),
    ("_ms", "ms"),
    ("_mb", "MB"),
    ("_rps", "1/s"),
    ("_ratio", "ratio"),
    ("_s", "s"),
)


def unit_of(name: str) -> str:
    """The unit a metric name carries: its suffix, or ``count``."""
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(samples: Iterable[float], q: float) -> float | None:
    """Nearest-rank ``q`` quantile, or None with under MIN_BEYOND samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def latency_metrics(samples_s: list[float]) -> dict[str, float]:
    """p50/p95 of latency samples, in milliseconds."""
    p50 = percentile(samples_s, 0.50)
    p95 = percentile(samples_s, 0.95)
    if p50 is None or p95 is None:
        raise RuntimeError(
            f"{len(samples_s)} latency samples leave fewer than {MIN_BEYOND} "
            f"beyond p95; the workload must measure more operations"
        )
    return {
        "p50_ms": p50 * 1000.0,
        "p95_ms": p95 * 1000.0,
    }


def blocks(samples: list[float], size: int) -> list[float]:
    """Sums of ``size`` samples each, every sum taken at an even stride across them.

    Block ``j`` of ``n = len(samples) // size`` blocks sums samples ``j``,
    ``j + n``, ``j + 2n``, ..., so every block draws the same mix from
    the whole sequence; the last ``len(samples) % size`` samples are
    left out.
    """
    count = len(samples) // size
    return [sum(samples[j:count * size:count]) for j in range(count)]


# -- host speed ---------------------------------------------------------

#: Seconds between gauge readings inside a timed window.
GAUGE_INTERVAL_S = 0.05
#: Time of one gauge reading on an unloaded 2-vCPU Xeon VM: adjusted
#: times are the times the window would have taken at that speed.
GAUGE_REFERENCE_S = 0.0008

_GAUGE_VECTOR = numpy.random.default_rng(0).random(4096)
_GAUGE_MATRIX = numpy.random.default_rng(1).random((64, 64))


def _gauge_kernel() -> int:
    """Fixed interpreter and numpy work, about GAUGE_REFERENCE_S long."""
    total = 0
    for i in range(6000):
        total += i * i
    for _ in range(10):
        numpy.sort(_GAUGE_VECTOR)
        _GAUGE_MATRIX @ _GAUGE_MATRIX
    return total


class Gauge:
    """Host speed, read at intervals between the operations of a timed window.

    On a shared host the speed of this process swings by a third within
    seconds and drifts over minutes, as other tenants load the physical
    cores; wall times of identical runs then spread by 15-20% between
    runs.  A fixed kernel timed every GAUGE_INTERVAL_S on the same thread
    slows down with the workload (over 9 fig8 reps their log times
    correlated at 0.9), so scaling a window's times by :meth:`factor`
    halves that spread.  The readings' own time is left out of the window.
    """

    def __init__(self) -> None:
        self.start()

    def start(self) -> None:
        """Begin a window: forget earlier readings."""
        self.readings: list[float] = []
        self.spent = 0.0
        self._last = perf_counter()

    def tick(self) -> None:
        """Take a reading if GAUGE_INTERVAL_S has passed since the last one."""
        if perf_counter() - self._last >= GAUGE_INTERVAL_S:
            self._read()

    def _read(self) -> None:
        start = perf_counter()
        _gauge_kernel()
        self._last = perf_counter()
        self.readings.append(self._last - start)
        self.spent += self._last - start

    def factor(self) -> float:
        """Reference over measured speed for the window (below 1 on a slow host)."""
        if not self.readings:
            self._read()
        return GAUGE_REFERENCE_S / (sum(self.readings) / len(self.readings))


def repeat(rep: Callable[[], float], seconds: float, min_reps: int) -> list[float]:
    """Run ``rep`` (which returns its own timed window) for ``seconds``, at least ``min_reps`` times."""
    walls: list[float] = []
    start = perf_counter()
    while len(walls) < min_reps or perf_counter() - start < seconds:
        walls.append(rep())
    return walls


# -- memory -----------------------------------------------------------


def _status_kb(pid: int, field: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def descendants(pid: int) -> list[int]:
    """Live descendants of ``pid`` (from ``/proc``; empty where unavailable)."""
    parents: dict[int, list[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parents.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def live_peak_mb(pid: int) -> float:
    """Largest peak RSS (VmHWM) of a live process and of its descendants."""
    return max(_status_kb(p, "VmHWM") for p in [pid, *descendants(pid)]) / 1024.0


def peak_rss_mb() -> float:
    """Largest RSS of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- set-up, environment, result --------------------------------------


def time_setups(workload: str, seed: int, count: int) -> list[float]:
    """Wall time of ``count`` fresh benchmark processes that only set up.

    The wait blocks until the child exits: a wait with a timeout polls
    every 50 ms, which rounded these 0.3-0.5 s times to 50 ms steps.  A
    timer kills a child that hangs instead.
    """
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--setup-only"]
    times = []
    for _ in range(count):
        start = perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        killer = threading.Timer(120, child.kill)
        killer.start()
        try:
            code = child.wait()
        finally:
            killer.cancel()
        times.append(perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
    return times


@contextmanager
def workdir() -> Iterator[Path]:
    """A private scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def loadavg() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def result_line(attempted: int, failed: int, metrics: dict[str, float]) -> str:
    """The final output line: correctness counts plus metrics with units."""
    out = {}
    for name, value in metrics.items():
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value!r}")
        out[name] = {"value": value, "unit": unit_of(name)}
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    })
