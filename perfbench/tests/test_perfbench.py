"""Tests of the benchmark itself: names, percentiles, gauge, inputs, checks, memory."""

import json
import math
import subprocess
import sys
import time

import pytest

from perfbench import harness
from perfbench.layers import layer_metrics
from perfbench.serve_load import POOL_SIZE, cell_mismatch, request_pool, request_stream
from perfbench.workloads import SEARCH_BUDGET, SEARCH_GRID, check_fig8, check_search

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
#: Per-layer metrics the run adds next to those of a trace.
RUN_LAYER_METRICS = {"startup.import_s", "trace.wall_s", "trace.overhead_pct"}


def test_every_metric_name_is_well_formed_and_carries_its_unit():
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert harness.NAME_RE.fullmatch(metric["name"]), metric
        assert harness.unit_of(metric["name"]) == metric["unit"], metric
    emitted = set(layer_metrics([])) | RUN_LAYER_METRICS
    assert emitted == {m["name"] for m in BENCHMARK["per_layer"]}


def test_result_line_gives_every_metric_a_unit():
    metrics = {m["name"]: 1.5 for m in BENCHMARK["end_to_end"]}
    result = json.loads(harness.result_line(3, 0, metrics))
    assert result["correct"] and result["attempted"] == 3
    for name, entry in result["metrics"].items():
        assert entry == {"value": 1.5, "unit": harness.unit_of(name)}
    with pytest.raises(ValueError):
        harness.result_line(1, 0, {"bad name": 1.0})
    with pytest.raises(ValueError):
        harness.result_line(1, 0, {"wall_s": math.nan})


def test_percentile_needs_ten_samples_beyond_it():
    assert harness.percentile(range(199), 0.95) is None
    assert harness.percentile(range(200), 0.95) == 189
    assert harness.percentile(range(21), 0.50) == 10
    assert harness.percentile(range(19), 0.50) is None
    with pytest.raises(RuntimeError):
        harness.latency_metrics([0.01] * 150)
    metrics = harness.latency_metrics([i / 1000 for i in range(1, 201)])
    assert metrics == pytest.approx({"p50_ms": 100.0, "p95_ms": 190.0})


def test_gauge_scales_to_the_reference_speed_and_leaves_out_its_readings(monkeypatch):
    monkeypatch.setattr(harness, "GAUGE_INTERVAL_S", 0.0)
    gauge = harness.Gauge()
    gauge.tick()
    gauge.tick()
    assert len(gauge.readings) == 2
    assert gauge.spent == pytest.approx(sum(gauge.readings))
    mean = sum(gauge.readings) / 2
    assert gauge.factor() == pytest.approx(harness.GAUGE_REFERENCE_S / mean)
    gauge.start()
    assert gauge.readings == [] and gauge.spent == 0.0
    assert gauge.factor() > 0 and len(gauge.readings) == 1  # never an empty window
    # A host at half the reference speed halves the times it reports.
    monkeypatch.setattr(harness, "_gauge_kernel",
                        lambda: time.sleep(2 * harness.GAUGE_REFERENCE_S))
    gauge.start()
    for _ in range(5):
        gauge.tick()
    assert 0.3 < gauge.factor() <= 0.5


def test_blocks_sum_strided_samples_and_drop_a_short_remainder():
    assert harness.blocks([1, 2, 3, 4, 5, 6, 7], 3) == [1 + 3 + 5, 2 + 4 + 6]
    assert harness.blocks([0.5, 0.25], 1) == [0.5, 0.25]


def test_same_seed_gives_a_byte_identical_request_stream():
    first, again = request_stream(7, 400), request_stream(7, 400)
    assert b"\n".join(first) == b"\n".join(again)
    assert request_stream(8, 400) != first
    assert len(first) == 400
    pool = request_pool(7)
    assert len({(tuple(s["designs"]), tuple(s["categories"])) for s in pool}) == POOL_SIZE
    assert {json.loads(body)["name"] for body in first} == {s["name"] for s in pool}


def _fig8_doc():
    categories = ["DNN.dense", "DNN.B", "DNN.A", "DNN.AB"]
    speedups = {
        "Baseline": [1.0, 1.0, 1.0, 1.0],
        "Sparse.B*": [1.0, 2.3, 1.0, 2.2],
        "Sparse.AB*": [1.0, 2.0, 1.4, 2.8],
        "Griffin": [1.0, 2.5, 1.5, 2.8],
    }
    rows = []
    for name, values in speedups.items():
        row = {"Config": name}
        for category, value in zip(categories, values):
            tag = category.removeprefix("DNN.")
            row.update({f"{tag} speedup": value, f"{tag} TOPS/W": 9.0 * value,
                        f"{tag} TOPS/mm2": 7.0 * value})
        rows.append(row)
    return {"categories": categories, "rows": rows}


def test_fig8_check_fails_when_griffin_is_not_top():
    doc = _fig8_doc()
    assert check_fig8(doc) == []
    doc["rows"][3]["B speedup"] = 2.2
    assert check_fig8(doc) == ["DNN.B"]
    doc = _fig8_doc()
    doc["rows"][0]["A TOPS/W"] = math.inf
    assert check_fig8(doc) == ["DNN.A"]


def _search_doc():
    front = [{"key": f"AB({i})"} for i in range(3)]
    return {"evaluations": SEARCH_BUDGET, "fresh_evaluations": SEARCH_BUDGET,
            "grid_size": SEARCH_GRID, "screened": SEARCH_GRID,
            "front": front, "optimal": {"key": "AB(1)"}}


@pytest.mark.parametrize("field, value", [
    ("fresh_evaluations", SEARCH_BUDGET - 1),
    ("evaluations", SEARCH_BUDGET + 1),
    ("screened", SEARCH_GRID - 1),
    ("grid_size", SEARCH_GRID // 2),
    ("optimal", {"key": "AB(9)"}),
])
def test_search_check_fails_on_a_broken_invariant(field, value):
    assert check_search(_search_doc()) == []
    doc = _search_doc()
    doc[field] = value
    assert check_search(doc)


def test_serve_check_requires_bitwise_equal_cells():
    reference = {row["Config"]: row for row in _fig8_doc()["rows"]}
    spec = {"designs": ["Griffin", "Baseline"], "categories": ["DNN.B", "DNN.AB"]}
    served = {"categories": spec["categories"], "rows": [
        {k: v for k, v in reference[name].items()
         if k == "Config" or k.split()[0] in ("B", "AB")}
        for name in spec["designs"]
    ]}
    assert not cell_mismatch(served, spec, reference)
    nudged = json.loads(json.dumps(served))
    nudged["rows"][0]["AB TOPS/W"] = math.nextafter(nudged["rows"][0]["AB TOPS/W"], 0)
    assert cell_mismatch(nudged, spec, reference)
    missing = json.loads(json.dumps(served))
    del missing["rows"][1]["B TOPS/mm2"]
    assert cell_mismatch(missing, spec, reference)
    reordered = dict(served, rows=served["rows"][::-1])
    assert cell_mismatch(reordered, spec, reference)


def _python(code: str, **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", code], cwd=harness.ROOT,
                            text=True, **kwargs)


ALLOCATE = "b = bytearray(b'\\x01') * (160 << 20)"


def test_peak_rss_counts_a_reaped_child():
    probe = (
        "import subprocess, sys\n"
        "from perfbench import harness\n"
        "before = harness.peak_rss_mb()\n"
        f"subprocess.run([sys.executable, '-c', {ALLOCATE!r}], check=True)\n"
        "print(before, harness.peak_rss_mb())\n"
    )
    # A process starts with its parent's RSS high-water mark (Linux keeps
    # it across fork and exec), so the probe runs one hop away from this
    # large test process.
    probe = _python(
        f"import subprocess, sys; subprocess.run([sys.executable, '-c', {probe!r}], check=True)",
        stdout=subprocess.PIPE,
    )
    out, _ = probe.communicate(timeout=60)
    before, after = map(float, out.split())
    assert before < 100 < 160 <= after


def test_live_peak_reads_a_running_child():
    child = _python(f"{ALLOCATE}\nimport sys\nprint('ready', flush=True)\nsys.stdin.read()",
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        assert child.stdout.readline().strip() == "ready"
        assert harness.live_peak_mb(child.pid) >= 160
    finally:
        child.stdin.close()
        child.wait(timeout=30)
    assert child.returncode == 0
