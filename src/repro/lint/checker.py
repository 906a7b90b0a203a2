"""The lint driver: collect files, run rules, report findings.

:func:`run_lint` is the single entry point used by the CLI, the tier-1
suite, and CI.  Given a repo root it walks ``src/**/*.py`` in sorted
order, parses each file once, applies every file-level rule whose scope
covers it, runs repo-level rules (the key manifest) once, filters waived
findings, and returns a :class:`LintReport` with deterministic ordering.

Explicitly named paths restrict the run.  A named file that falls under
no rule's scope (a fixture, a scratch snippet) gets *all* file-level
rules applied -- naming the file is the opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.lint import determinism as _determinism  # noqa: F401  (registers rules)
from repro.lint import locks as _locks  # noqa: F401  (registers rules)
from repro.lint import manifest as _manifest  # noqa: F401  (registers rules)
from repro.lint.framework import (
    LINT_SCHEMA_VERSION,
    Finding,
    ModuleSource,
    rules_for_codes,
)


def default_root() -> Path:
    """The repo root this installed tree belongs to (``src/repro/lint/../../..``)."""
    return Path(__file__).resolve().parents[3]


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    waived: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict:
        return {
            "v": LINT_SCHEMA_VERSION,
            "clean": self.clean,
            "files_checked": self.files_checked,
            "waived": self.waived,
            "rules": list(self.rules_run),
            "findings": [finding.as_dict() for finding in self.findings],
        }


def _relpath(path: Path, root: Path) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(root).as_posix()
    except ValueError:
        # Explicitly named file outside the repo (a fixture, a scratch
        # snippet): report it by its absolute path.
        return resolved.as_posix()


def collect_files(root: Path, paths: list[str] | None = None) -> list[Path]:
    """The Python files a run covers, sorted for deterministic output.

    With no ``paths``, the whole ``src/`` tree.  Named directories are
    walked recursively; named files are taken as-is.
    """
    if not paths:
        return sorted((root / "src").rglob("*.py"))
    collected: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        path = path.resolve()
        if path.is_dir():
            collected.update(path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            collected.add(path)
        else:
            raise ValueError(f"lint path {raw!r} is not a Python file or directory")
    return sorted(collected)


def run_lint(
    root: Path | None = None,
    paths: list[str] | None = None,
    codes: set[str] | None = None,
) -> LintReport:
    """Lint ``paths`` (default: all of ``src/``) under ``root``.

    ``codes`` restricts to rules emitting those codes (``ValueError`` on
    an unknown code).  Findings come back sorted by (path, line, rule).
    """
    root = (root if root is not None else default_root()).resolve()
    rules = rules_for_codes(codes)
    file_rules = [rule for rule in rules if not rule.repo_level]
    repo_rules = [rule for rule in rules if rule.repo_level]

    explicit = bool(paths)
    files = collect_files(root, paths)
    findings: list[Finding] = []
    waived = 0

    for path in files:
        relpath = _relpath(path, root)
        applicable = [rule for rule in file_rules if rule.applies_to(relpath)]
        if not applicable:
            if not explicit:
                continue
            # Explicitly named, out of every scope: run every file rule.
            applicable = file_rules
        module = ModuleSource.load(path, relpath)
        for rule in applicable:
            for finding in rule.check(module):
                if module.waived(finding):
                    waived += 1
                else:
                    findings.append(finding)

    # Repo-level rules run when the target set isn't narrowed away from
    # their scope: always on a full run, and on an explicit run that
    # names at least one file inside the rule's scope.
    checked_rels = {_relpath(path, root) for path in files}
    for rule in repo_rules:
        if explicit and not any(rule.applies_to(rel) for rel in checked_rels):
            continue
        for finding in rule.check_repo(root):
            waiver_site = root / finding.path
            if waiver_site.exists():
                module = ModuleSource.load(waiver_site, finding.path)
                if module.waived(finding):
                    waived += 1
                    continue
            findings.append(finding)

    return LintReport(
        findings=sorted(findings),
        files_checked=len(files),
        waived=waived,
        rules_run=tuple(
            sorted({code for rule in rules for code in rule.codes})
        ),
    )
