"""Golden bitwise-equivalence lock on the simulation engine.

The vectorization passes over ``repro.sim.compaction`` / ``repro.sim.engine``
promise *bitwise-identical* results: same cycles, same energy, same cache
keys (``SIMULATION_KEY_VERSION`` / ``NETWORK_KEY_VERSION`` unchanged), so a
warm cache keeps returning values indistinguishable from a cold recompute.
This module pins that promise to a committed fixture generated on the
pre-vectorization engine: exact per-layer cycles and per-inference energy
for all six Table IV workloads across a representative configuration grid
(Sparse.A*/B*/AB* plus a dense run), serial and through the parallel
session path.

Floats are stored as ``repr`` strings, so equality below is genuine
bit-for-bit equality of the IEEE doubles, not an approximate comparison.

Regenerate (ONLY when simulation semantics intentionally change, together
with a ``SIMULATION_KEY_VERSION`` bump)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_engine_golden.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.config import (
    SPARSE_A_STAR,
    SPARSE_AB_STAR,
    SPARSE_B_STAR,
    ModelCategory,
    dense,
)
from repro.api import Session
from repro.dse.evaluate import EvalSettings
from repro.hw.energy import inference_energy
from repro.sim.engine import (
    NETWORK_KEY_VERSION,
    SIMULATION_KEY_VERSION,
    SimulationOptions,
    simulate_network,
)
from repro.workloads.registry import WORKLOADS

GOLDEN_PATH = Path(__file__).parent / "golden" / "engine_golden.json"

#: Light sampling that still exercises every engine path: segment sampling
#: (max_t_steps below the longest K), edge passes, the dual-sparse pipeline
#: and the single-sparse downgrades.
GOLDEN_OPTIONS = SimulationOptions(passes_per_gemm=2, max_t_steps=48)

#: The key versions the fixture was generated under.  If these fail, cached
#: results from older trees would be served for new semantics (or vice
#: versa) -- regenerate the fixture *and* bump the version, never just one.
GOLDEN_KEY_VERSIONS = {
    "simulation": "layer-sim-v2",
    "network": "network-sim-v3",
}

_CONFIGS = {
    "Dense": dense(),
    "Sparse.A*": SPARSE_A_STAR,
    "Sparse.B*": SPARSE_B_STAR,
    "Sparse.AB*": SPARSE_AB_STAR,
}


def _grid() -> list[tuple[str, str, ModelCategory]]:
    """(workload, config key, category) cases covering every engine path."""
    cases: list[tuple[str, str, ModelCategory]] = []
    for info in WORKLOADS:
        categories = info.categories()
        if ModelCategory.B in categories:
            cases.append((info.name, "Sparse.B*", ModelCategory.B))
        if ModelCategory.A in categories:
            cases.append((info.name, "Sparse.A*", ModelCategory.A))
        if ModelCategory.AB in categories:
            cases.append((info.name, "Sparse.AB*", ModelCategory.AB))
        # The cross-category runs Fig. 8 makes: a dual-sparse datapath on
        # single-sparse data (the Table III downgrades) and a weight-only
        # datapath on dual-sparse data.
        if ModelCategory.B in categories:
            cases.append((info.name, "Sparse.AB*", ModelCategory.B))
        if ModelCategory.A in categories:
            cases.append((info.name, "Sparse.AB*", ModelCategory.A))
        if ModelCategory.AB in categories:
            cases.append((info.name, "Sparse.B*", ModelCategory.AB))
    # One dense-datapath run (trivial scheduling path, stall model off-path).
    cases.append(("AlexNet", "Dense", ModelCategory.DENSE))
    return cases


def _case_id(case: tuple[str, str, ModelCategory]) -> str:
    workload, config_key, category = case
    return f"{workload}|{config_key}|{category.value}"


def _simulate_case(case: tuple[str, str, ModelCategory]) -> dict:
    workload, config_key, category = case
    config = _CONFIGS[config_key]
    network = WORKLOADS.get(workload).network
    result = simulate_network(network, config, category, GOLDEN_OPTIONS)
    energy = inference_energy(result, config)
    return {
        "workload": workload,
        "config": config_key,
        "category": category.value,
        "cycles": repr(result.cycles),
        "dense_cycles": result.dense_cycles,
        "energy_mj": repr(energy.energy_mj),
        "layers": [
            {
                "name": layer.name,
                "cycles": repr(layer.cycles),
                "dense_cycles": layer.dense_cycles,
            }
            for layer in result.layers
        ],
    }


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"{GOLDEN_PATH} is missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_regenerate_golden_fixture():
    """Writes the fixture when REPRO_REGEN_GOLDEN=1; otherwise a no-op."""
    if os.environ.get("REPRO_REGEN_GOLDEN", "0") != "1":
        pytest.skip("set REPRO_REGEN_GOLDEN=1 to regenerate the fixture")
    cases = {_case_id(case): _simulate_case(case) for case in _grid()}
    payload = {
        "key_versions": {
            "simulation": SIMULATION_KEY_VERSION,
            "network": NETWORK_KEY_VERSION,
        },
        "options": GOLDEN_OPTIONS.to_dict(),
        "cases": cases,
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_key_versions_unchanged():
    """The vectorized engine must keep serving the same cache namespace."""
    assert SIMULATION_KEY_VERSION == GOLDEN_KEY_VERSIONS["simulation"]
    assert NETWORK_KEY_VERSION == GOLDEN_KEY_VERSIONS["network"]
    golden = _load_golden()
    assert golden["key_versions"] == GOLDEN_KEY_VERSIONS
    assert golden["options"] == GOLDEN_OPTIONS.to_dict()


@pytest.mark.parametrize("case", _grid(), ids=_case_id)
def test_engine_matches_golden(case):
    """Every workload x config case reproduces the fixture bit-for-bit."""
    golden = _load_golden()
    expected = golden["cases"][_case_id(case)]
    actual = _simulate_case(case)
    assert actual["dense_cycles"] == expected["dense_cycles"]
    assert actual["cycles"] == expected["cycles"], (
        f"{_case_id(case)}: network cycles drifted "
        f"{expected['cycles']} -> {actual['cycles']}"
    )
    assert actual["energy_mj"] == expected["energy_mj"]
    assert len(actual["layers"]) == len(expected["layers"])
    for got, want in zip(actual["layers"], expected["layers"]):
        assert got == want, (
            f"{_case_id(case)}: layer {want['name']} drifted "
            f"{want['cycles']} -> {got['cycles']}"
        )


def test_parallel_session_matches_golden(tmp_path):
    """The parallel (process-pool) path returns the same golden cycles.

    Two workers fan the six B-category simulations out over a process
    pool; per-network cycles must equal both the serial session and the
    committed fixture exactly.
    """
    golden = _load_golden()
    networks = [info.name for info in WORKLOADS]
    settings = EvalSettings(options=GOLDEN_OPTIONS, networks=tuple(networks))
    with Session(cache_dir=tmp_path / "par", workers=2) as par, Session(
        cache_dir=tmp_path / "ser", workers=1
    ) as ser:
        par_out = par.evaluate(["Sparse.B*"], [ModelCategory.B], settings)
        ser_out = ser.evaluate(["Sparse.B*"], [ModelCategory.B], settings)
    assert par_out.evaluations == ser_out.evaluations
    # The geometric-mean speedup is a pure function of the per-network
    # cycles the fixture locks; recompute it from the golden records.
    import math

    ratios = []
    for name in networks:
        rec = golden["cases"][f"{name}|Sparse.B*|{ModelCategory.B.value}"]
        ratios.append(rec["dense_cycles"] / float(rec["cycles"]))
    expected = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    got = par_out.evaluations[0].speedup(ModelCategory.B)
    assert repr(got) == repr(expected)
