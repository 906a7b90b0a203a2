"""The documentation suite must stay executable and internally linked.

Runs ``tools/check_docs.py`` -- the same gate the CI docs job uses -- so
a code change that breaks a ``docs/`` example or a moved file that breaks
a link fails tier-1 locally, not just in CI.  The doc examples are
written against quick sampling (BERT-only suites, one pass per GEMM) and
their own temp cache dirs, so this stays cheap and hermetic.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_docs.py"
DOCS = REPO_ROOT / "docs"


def test_docs_suite_exists():
    for name in ("architecture.md", "benchmarks.md", "caching.md",
                 "figures.md", "search.md", "workloads.md"):
        assert (DOCS / name).is_file(), f"docs/{name} is missing"


def test_docs_code_blocks_execute_and_links_resolve():
    proc = subprocess.run(
        [sys.executable, str(CHECKER)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"docs check failed\n--- stdout ---\n{proc.stdout}"
        f"\n--- stderr ---\n{proc.stderr}"
    )
    assert "all documentation checks passed" in proc.stdout


def test_a_stale_cross_reference_fails(tmp_path):
    """The cross-reference pass rejects a name that does not import, and
    takes a dataclass field as an attribute."""
    sys.path.insert(0, str(CHECKER.parent))
    try:
        import check_docs
    finally:
        sys.path.remove(str(CHECKER.parent))
    source = tmp_path / "module.py"
    source.write_text(
        '"""See :class:`~repro.api.Session`, its :meth:`repro.api.Session.evaluate`,\n'
        ":attr:`repro.runtime.runner.SweepOutcome.cache_stats` and\n"
        ':func:`repro.runtime.runner.no_such_function`."""\n'
    )
    errors = check_docs.check_xrefs(source)
    assert len(errors) == 1
    assert f"{source}:3:" in errors[0] and "no_such_function" in errors[0]
