"""Tests for ``repro.lint`` -- the AST-based invariant checker.

Three layers of coverage:

* per-rule positive/negative fixtures on throwaway tmp files (never the
  live tree), including waiver parsing and placement;
* the key-manifest drift simulation: mutate an engine function body in a
  copied module set -> ``KEY001``; bump the key version or refresh the
  manifest -> clean; comment/docstring-only edits -> never drift;
* the real repo: ``run_lint()`` over all of ``src/`` is clean, and the
  committed ``key_manifest.json`` is exactly fresh (the acceptance gate
  CI enforces too).
"""

import json
import shutil
from pathlib import Path

import pytest

import repro.lint
from repro.cli import main
from repro.lint import (
    MANIFEST_ENTRIES,
    canonical_source_hash,
    compute_manifest,
    known_codes,
    manifest_is_fresh,
    parse_waivers,
    refresh_manifest,
    run_lint,
)
from repro.lint.manifest import manifest_findings

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, source, name="snippet.py", codes=None):
    """Lint one out-of-tree fixture file (all file rules apply)."""
    path = tmp_path / name
    path.write_text(source)
    report = run_lint(REPO_ROOT, paths=[str(path)], codes=codes)
    return report.findings


class TestWaiverParsing:
    def test_own_line(self):
        waivers = parse_waivers("x = 1  # repro: lint-ok[DET001] timing only\n")
        assert waivers == {1: frozenset({"DET001"})}

    def test_standalone_comment_covers_next_line(self):
        source = "# repro: lint-ok[DET004] order irrelevant here\nx = 1\n"
        waivers = parse_waivers(source)
        assert waivers[1] == frozenset({"DET004"})
        assert waivers[2] == frozenset({"DET004"})

    def test_multiple_codes(self):
        waivers = parse_waivers("x = 1  # repro: lint-ok[DET001, LOCK001] why\n")
        assert waivers[1] == frozenset({"DET001", "LOCK001"})

    def test_no_blanket_waiver(self):
        assert parse_waivers("x = 1  # repro: lint-ok\n") == {}
        assert parse_waivers("x = 1  # repro: lint-ok[] oops\n") == {}


class TestDeterminismRules:
    def test_wall_clock_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import time\n\ndef f():\n    return time.time()\n"
        )
        assert [f.rule for f in findings] == ["DET001"]
        assert findings[0].line == 4

    def test_wall_clock_through_alias(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "from time import perf_counter as pc\n\ndef f():\n    return pc()\n",
        )
        assert [f.rule for f in findings] == ["DET001"]

    def test_datetime_now_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "from datetime import datetime\n\ndef f():\n"
            "    return datetime.now()\n",
        )
        assert [f.rule for f in findings] == ["DET001"]

    def test_global_rng_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import numpy as np\n\ndef f():\n    return np.random.rand(3)\n",
        )
        assert [f.rule for f in findings] == ["DET002"]

    def test_unseeded_constructor_flagged_seeded_passes(self, tmp_path):
        bad = lint_snippet(
            tmp_path,
            "import numpy as np\n\ndef f():\n"
            "    return np.random.default_rng()\n",
            name="bad_rng.py",
        )
        assert [f.rule for f in bad] == ["DET002"]
        good = lint_snippet(
            tmp_path,
            "import numpy as np\n\ndef f(seed):\n"
            "    return np.random.default_rng(seed)\n",
            name="good_rng.py",
        )
        assert good == []

    def test_random_random_module_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import random\n\ndef f():\n    return random.random()\n"
        )
        assert [f.rule for f in findings] == ["DET002"]
        assert lint_snippet(
            tmp_path,
            "import random\n\ndef f(seed):\n    return random.Random(seed)\n",
            name="seeded.py",
        ) == []

    def test_set_iteration_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "def f(xs):\n    for x in set(xs):\n        print(x)\n"
        )
        assert [f.rule for f in findings] == ["DET003"]

    def test_list_of_set_flagged_sorted_passes(self, tmp_path):
        assert [
            f.rule
            for f in lint_snippet(
                tmp_path, "def f(xs):\n    return list(set(xs))\n", name="b.py"
            )
        ] == ["DET003"]
        assert lint_snippet(
            tmp_path, "def f(xs):\n    return sorted(set(xs))\n", name="g.py"
        ) == []

    def test_set_membership_not_flagged(self, tmp_path):
        assert lint_snippet(
            tmp_path, "def f(x, xs):\n    return x in set(xs)\n"
        ) == []

    def test_set_comprehension_source_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "def f(xs):\n    return [x for x in {1, 2, 3}]\n"
        )
        assert [f.rule for f in findings] == ["DET003"]

    def test_listdir_flagged_sorted_passes(self, tmp_path):
        assert [
            f.rule
            for f in lint_snippet(
                tmp_path,
                "import os\n\ndef f(p):\n    return os.listdir(p)\n",
                name="b.py",
            )
        ] == ["DET004"]
        assert lint_snippet(
            tmp_path,
            "import os\n\ndef f(p):\n    return sorted(os.listdir(p))\n",
            name="g.py",
        ) == []

    def test_path_glob_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f(p):\n    return [x for x in p.glob('*.json')]\n",
        )
        assert [f.rule for f in findings] == ["DET004"]

    def test_waiver_suppresses_finding(self, tmp_path):
        source = (
            "def f(p):\n"
            "    return list(p.iterdir())  # repro: lint-ok[DET004] logged only\n"
        )
        assert lint_snippet(tmp_path, source) == []

    def test_waiver_for_wrong_code_does_not_suppress(self, tmp_path):
        source = (
            "def f(p):\n"
            "    return list(p.iterdir())  # repro: lint-ok[DET001] wrong code\n"
        )
        assert [f.rule for f in lint_snippet(tmp_path, source)] == ["DET004"]

    def test_rule_filter_restricts(self, tmp_path):
        source = (
            "import time, os\n\ndef f(p):\n"
            "    return time.time(), os.listdir(p)\n"
        )
        only_clock = lint_snippet(tmp_path, source, codes={"DET001"})
        assert [f.rule for f in only_clock] == ["DET001"]

    def test_unknown_rule_code_raises(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            run_lint(REPO_ROOT, codes={"NOPE999"})


LOCKED_CLASS = """\
import threading

class Telemetry:
    def __init__(self):
        self._state_lock = threading.RLock()
        self.count = 0

    def unsafe_bump(self):
        self.count += 1

    def safe_bump(self):
        with self._state_lock:
            self.count += 1

    def waived_bump(self):
        self.count += 1  # repro: lint-ok[LOCK001] single-threaded test hook

class NoLock:
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1
"""


class TestLockHygiene:
    def test_unlocked_write_flagged_locked_and_waived_pass(self, tmp_path):
        findings = lint_snippet(tmp_path, LOCKED_CLASS)
        assert [f.rule for f in findings] == ["LOCK001"]
        assert "Telemetry.unsafe_bump" in findings[0].message
        assert findings[0].line == 9

    def test_lockless_class_exempt(self, tmp_path):
        source = (
            "class NoLock:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        assert lint_snippet(tmp_path, source) == []

    def test_init_writes_exempt(self, tmp_path):
        source = (
            "import threading\n\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.a = 1\n"
            "        self.b = 2\n"
        )
        assert lint_snippet(tmp_path, source) == []

    def test_tuple_assignment_under_lock_passes(self, tmp_path):
        source = (
            "import threading\n\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.pool = None\n"
            "    def close(self):\n"
            "        with self._lock:\n"
            "            pool, self.pool = self.pool, None\n"
            "        return pool\n"
        )
        assert lint_snippet(tmp_path, source) == []


def make_mini_repo(tmp_path):
    """Copy just the manifest module sets (plus version module) to tmp."""
    root = tmp_path / "repo"
    modules = {
        module
        for entry in MANIFEST_ENTRIES.values()
        for module in entry["modules"]
    } | {entry["version_module"] for entry in MANIFEST_ENTRIES.values()}
    for relpath in sorted(modules):
        dest = root / relpath
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO_ROOT / relpath, dest)
    manifest_path = root / "src/repro/lint/key_manifest.json"
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    refresh_manifest(root, manifest_path)
    return root, manifest_path


class TestKeyManifest:
    def test_fresh_mini_repo_is_clean(self, tmp_path):
        root, manifest_path = make_mini_repo(tmp_path)
        assert list(manifest_findings(root, manifest_path)) == []

    def test_engine_body_mutation_without_bump_fails(self, tmp_path):
        root, manifest_path = make_mini_repo(tmp_path)
        engine = root / "src/repro/sim/engine.py"
        source = engine.read_text()
        # Inject a real semantic change into a function body.
        needle = "def simulate_layer("
        assert needle in source
        mutated = source.replace(
            needle, "def _drifted():\n    return 41\n\n\ndef simulate_layer(", 1
        )
        engine.write_text(mutated)
        findings = list(manifest_findings(root, manifest_path))
        # engine.py is in both module sets, so both key versions drift.
        symbols = {f.message.split()[3] for f in findings}
        assert all(f.rule == "KEY001" for f in findings)
        assert symbols == {"SIMULATION_KEY_VERSION", "NETWORK_KEY_VERSION"}
        assert all(f.path == "src/repro/sim/engine.py" for f in findings)

    def test_key_version_bump_acknowledges_drift(self, tmp_path):
        # Mutate a module only the simulation set contains, so exactly
        # one key version drifts -- then a bump of that version passes.
        root, manifest_path = make_mini_repo(tmp_path)
        compaction = root / "src/repro/sim/compaction.py"
        compaction.write_text(
            compaction.read_text() + "\n\ndef _drifted():\n    return 41\n"
        )
        findings = list(manifest_findings(root, manifest_path))
        assert [f.rule for f in findings] == ["KEY001"]
        assert "SIMULATION_KEY_VERSION" in findings[0].message
        engine = root / "src/repro/sim/engine.py"
        engine.write_text(
            engine.read_text().replace(
                'SIMULATION_KEY_VERSION = "layer-sim-v2"',
                'SIMULATION_KEY_VERSION = "layer-sim-v3"',
            )
        )
        assert list(manifest_findings(root, manifest_path)) == []

    def test_refresh_acknowledges_bitwise_identical_rewrite(self, tmp_path):
        root, manifest_path = make_mini_repo(tmp_path)
        engine = root / "src/repro/sim/engine.py"
        engine.write_text(
            engine.read_text().replace(
                "def simulate_layer(",
                "def _identical_helper():\n    return None\n\n\n"
                "def simulate_layer(",
                1,
            )
        )
        assert list(manifest_findings(root, manifest_path)) != []
        refresh_manifest(root, manifest_path)
        assert list(manifest_findings(root, manifest_path)) == []

    def test_comment_and_docstring_edits_never_drift(self, tmp_path):
        root, manifest_path = make_mini_repo(tmp_path)
        engine = root / "src/repro/sim/engine.py"
        source = engine.read_text()
        engine.write_text(
            '"""Completely rewritten module docstring."""\n'
            "# a brand new comment\n" + source.split('"""', 2)[2]
            if source.startswith('"""')
            else "# a brand new comment\n" + source
        )
        assert list(manifest_findings(root, manifest_path)) == []

    def test_missing_manifest_is_key002(self, tmp_path):
        root, manifest_path = make_mini_repo(tmp_path)
        manifest_path.unlink()
        findings = list(manifest_findings(root, manifest_path))
        assert [f.rule for f in findings] == ["KEY002"]

    def test_corrupt_manifest_is_key002(self, tmp_path):
        root, manifest_path = make_mini_repo(tmp_path)
        manifest_path.write_text("{not json")
        findings = list(manifest_findings(root, manifest_path))
        assert [f.rule for f in findings] == ["KEY002"]

    def test_canonical_hash_ignores_formatting_and_docstrings(self):
        a = 'def f(x):\n    """doc."""\n    return x + 1\n'
        b = "# comment\ndef f(x):\n    return (x + 1)\n"
        c = "def f(x):\n    return x + 2\n"
        assert canonical_source_hash(a) == canonical_source_hash(b)
        assert canonical_source_hash(a) != canonical_source_hash(c)


class TestRealRepo:
    def test_whole_repo_lints_clean(self):
        report = run_lint(REPO_ROOT)
        assert report.findings == [], "\n".join(
            f.format() for f in report.findings
        )
        assert report.files_checked > 50

    def test_committed_manifest_is_exactly_fresh(self):
        # Stronger than KEY001 (which lets a just-bumped version pass):
        # a stale committed manifest cannot merge.
        assert manifest_is_fresh(REPO_ROOT)

    def test_every_registered_code_is_documented_in_lint_md(self):
        catalogue = (REPO_ROOT / "docs" / "lint.md").read_text()
        for code in known_codes():
            assert code in catalogue


class TestLintCli:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "repro lint: clean" in out

    def test_json_clean_payload(self, capsys):
        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["v"] == 1

    def test_findings_exit_one_and_envelope(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main(["lint", "--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "lint-findings"
        assert payload["error"]["v"] == 1
        findings = payload["error"]["detail"]["findings"]
        assert findings[0]["rule"] == "DET001"
        assert findings[0]["line"] == 4
        assert findings[0]["path"].endswith("bad.py")
        assert "time.time" in findings[0]["message"]

    def test_human_findings_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import os\n\ndef f(p):\n    return os.listdir(p)\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert ": DET004 " in out
        assert "1 finding(s)" in out

    def test_rule_filter_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time, os\n\ndef f(p):\n"
            "    return time.time(), os.listdir(p)\n"
        )
        assert main(["lint", "--json", "--rule", "DET004", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in payload["error"]["detail"]["findings"]}
        assert rules == {"DET004"}

    def test_refresh_manifest_verb(self, tmp_path, monkeypatch, capsys):
        # The verb runs against a copy of the root: if the suite rewrote
        # the committed manifest, a stale one would never be reported.
        root, manifest_path = make_mini_repo(tmp_path)
        manifest_path.write_text("{}\n")
        committed = REPO_ROOT / "src/repro/lint/key_manifest.json"
        before = committed.read_text()
        monkeypatch.setattr(repro.lint, "default_root", lambda: root)
        assert main(["lint", "refresh-manifest"]) == 0
        assert "refreshed" in capsys.readouterr().out
        assert manifest_is_fresh(root)
        assert committed.read_text() == before

    def test_refresh_manifest_rejects_extra_args(self, capsys):
        assert main(["lint", "refresh-manifest", "src"]) == 2
        assert "takes no paths" in capsys.readouterr().err
