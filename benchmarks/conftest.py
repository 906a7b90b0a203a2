"""Shared fixtures for the table/figure reproduction benchmarks.

Every module regenerates one table or figure of the paper and prints a
paper-vs-measured comparison (run with ``pytest benchmarks/
--benchmark-only -s`` to see the tables).  By default the expensive sweeps
use the quick evaluation settings (three-benchmark suite, light tile
sampling); set ``REPRO_FULL_EVAL=1`` for the full six-network Table IV
suite.

All modules evaluate through one shared :class:`repro.api.Session` -- the
same unified path the CLI drives -- backed by a run-scoped two-tier
persistent cache, so a layer or network simulated for one figure is read
from disk by every later figure that needs it.  The cache directory is a
pytest temp dir: benchmark runs never touch (or depend on) the user's
``~/.cache/repro``.

These modules are tier-1 correctness tests: each asserts the paper's
claims, not a timing.  Performance is measured by ``perfbench/`` and
gated by ``tools/bench_gate.py`` (see ``docs/benchmarks.md``).
"""

import os

import pytest

from repro.api import Session
from repro.dse.evaluate import EvalSettings
from repro.sim.engine import SimulationOptions


def full_eval_requested() -> bool:
    return os.environ.get("REPRO_FULL_EVAL", "0") == "1"


@pytest.fixture(scope="session")
def settings() -> EvalSettings:
    if full_eval_requested():
        return EvalSettings(
            quick=False,
            options=SimulationOptions(passes_per_gemm=6, max_t_steps=128),
        )
    return EvalSettings(quick=True)


@pytest.fixture(scope="session")
def session(tmp_path_factory) -> Session:
    """One session (and one persistent cache) for the whole benchmark run."""
    return Session(cache_dir=tmp_path_factory.mktemp("repro-cache"))


def show(text: str) -> None:
    """Print a reproduction table (visible with -s)."""
    print("\n" + text)
