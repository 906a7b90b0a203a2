"""Key-version drift detection (``KEY001``/``KEY002``).

The caching contract says: bump
:data:`repro.sim.engine.SIMULATION_KEY_VERSION` whenever simulation
semantics change (and :data:`~repro.sim.engine.NETWORK_KEY_VERSION` when
network aggregation or fingerprinting changes).  Until now that was a
README sentence enforced by reviewer memory.  This module turns it into a
mechanical gate:

* a committed **manifest** (``src/repro/lint/key_manifest.json``) records,
  for each key version, an AST-normalized content hash of the
  semantics-bearing module set;
* the **hash** is computed from the parsed AST with docstrings,
  comments, and formatting stripped (see :func:`canonical_source_hash`),
  so reformatting, renaming nothing, or editing prose never trips the
  gate -- only code structure does;
* the lint **fails (KEY001)** when the module set's hash has drifted from
  the manifest while the key version string is unchanged: semantics moved
  without an invalidation bump;
* bumping the key version makes the drift finding go away (the bump *is*
  the acknowledgement); run ``repro lint refresh-manifest`` in the same
  change to record the new ``(version, hash)`` pair.  The tier-1 suite
  asserts the committed manifest is exactly fresh, so a stale manifest
  cannot merge;
* for provably-bitwise-identical refactors (the PR 6 hot-path rewrite),
  ``repro lint refresh-manifest`` alone re-records the hash under the
  *unchanged* version -- the golden-result tests are the proof the
  refresh is legitimate.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Iterator

from repro.lint.framework import Finding, Rule, register

#: The committed manifest, next to this module.
MANIFEST_PATH = Path(__file__).resolve().parent / "key_manifest.json"

#: Manifest schema version.
MANIFEST_VERSION = 1

#: The two guarded key versions and their semantics-bearing module sets
#: (repo-relative).  ``version_module``/``version_symbol`` locate the
#: key-version string assignment that acknowledges a semantic change.
MANIFEST_ENTRIES: dict[str, dict] = {
    "simulation": {
        "version_module": "src/repro/sim/engine.py",
        "version_symbol": "SIMULATION_KEY_VERSION",
        "modules": (
            "src/repro/config.py",
            "src/repro/core/overhead.py",
            "src/repro/gemm/layers.py",
            "src/repro/gemm/tiling.py",
            "src/repro/memory/dram.py",
            "src/repro/memory/sram.py",
            "src/repro/sim/compaction.py",
            "src/repro/sim/dual.py",
            "src/repro/sim/engine.py",
            "src/repro/sim/shuffle.py",
            "src/repro/workloads/sparsity.py",
        ),
    },
    "network": {
        "version_module": "src/repro/sim/engine.py",
        "version_symbol": "NETWORK_KEY_VERSION",
        "modules": (
            "src/repro/sim/engine.py",
            "src/repro/workloads/models.py",
        ),
    },
}

#: AST fields that carry formatting/position/typing noise, not semantics.
#: ``type_params`` (3.12) and ``type_comment`` are skipped so the hash is
#: stable across the CI interpreter matrix (3.10-3.12); ``ctx`` is
#: derivable from position; ``kind`` only distinguishes ``u""`` prefixes.
_SKIP_FIELDS = frozenset({
    "lineno", "col_offset", "end_lineno", "end_col_offset",
    "ctx", "type_comment", "type_ignores", "type_params", "kind",
})


def _is_docstring_stmt(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_key_version_assign(node: ast.AST) -> bool:
    """A ``*_KEY_VERSION = "..."`` assignment.

    Excluded from the hash: the version string is the *acknowledgement*
    of a semantic change, not semantics itself.  Keeping it out means a
    bump to one key version never reads as drift of another entry that
    happens to share the module (``engine.py`` carries both symbols).
    """
    return (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.endswith("_KEY_VERSION")
    )


def _emit(node: object, out: list[str]) -> None:
    """Serialize an AST into a canonical, interpreter-stable form."""
    if isinstance(node, ast.AST):
        out.append(type(node).__name__)
        out.append("(")
        for name, value in ast.iter_fields(node):
            if name in _SKIP_FIELDS:
                continue
            out.append(name)
            out.append("=")
            _emit(value, out)
            out.append(",")
        out.append(")")
    elif isinstance(node, list):
        out.append("[")
        for item in node:
            # Bare string-constant statements are docstrings (module,
            # class, function) or no-op prose: never semantics.
            if _is_docstring_stmt(item) or _is_key_version_assign(item):
                continue
            _emit(item, out)
            out.append(",")
        out.append("]")
    else:
        out.append(repr(node))


def canonical_source_hash(source: str, filename: str = "<lint>") -> str:
    """SHA-256 of the AST-normalized source.

    Comments never reach the AST; docstrings, positions, and
    version-specific fields are stripped by :func:`_emit`, so two sources
    hash equal iff they are structurally the same program.
    """
    tree = ast.parse(source, filename=filename)
    out: list[str] = []
    _emit(tree, out)
    return hashlib.sha256("".join(out).encode()).hexdigest()


def module_set_hash(root: Path, modules: tuple[str, ...]) -> str:
    """Combined hash of a module set: per-file canonical hashes, in order."""
    parts = []
    for relpath in sorted(modules):
        source = (root / relpath).read_text()
        parts.append(f"{relpath}={canonical_source_hash(source, relpath)}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def extract_key_version(root: Path, entry: dict) -> str:
    """The current key-version string, read statically from the source."""
    path = root / entry["version_module"]
    tree = ast.parse(path.read_text(), filename=str(path))
    symbol = entry["version_symbol"]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == symbol:
                if isinstance(node.value, ast.Constant) and isinstance(
                    node.value.value, str
                ):
                    return node.value.value
    raise ValueError(
        f"{entry['version_module']} does not assign a string to {symbol}"
    )


def _version_line(root: Path, entry: dict) -> int:
    """Line of the key-version assignment (where drift findings anchor)."""
    path = root / entry["version_module"]
    symbol = entry["version_symbol"]
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        if text.startswith(f"{symbol} ="):
            return lineno
    return 1


def compute_manifest(root: Path) -> dict:
    """The manifest the current tree *should* commit."""
    entries = {}
    for name, entry in sorted(MANIFEST_ENTRIES.items()):
        entries[name] = {
            "key_version": extract_key_version(root, entry),
            "content_hash": module_set_hash(root, entry["modules"]),
            "modules": list(entry["modules"]),
        }
    return {"v": MANIFEST_VERSION, "entries": entries}


def load_manifest(path: Path | None = None) -> dict:
    """The committed manifest; raises ``ValueError`` when unusable."""
    path = path if path is not None else MANIFEST_PATH
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(
            f"key manifest {path} is missing ({exc}); run "
            f"`repro lint refresh-manifest`"
        ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"key manifest {path} is not valid JSON: {exc}") from None
    if data.get("v") != MANIFEST_VERSION or "entries" not in data:
        raise ValueError(
            f"key manifest {path} has unsupported schema "
            f"(expected v={MANIFEST_VERSION}); run `repro lint refresh-manifest`"
        )
    return data


def refresh_manifest(root: Path, path: Path | None = None) -> dict:
    """Recompute and write the manifest; returns what was written."""
    path = path if path is not None else root / "src/repro/lint/key_manifest.json"
    manifest = compute_manifest(root)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def manifest_is_fresh(root: Path, path: Path | None = None) -> bool:
    """True when the committed manifest matches the tree exactly.

    Stronger than the lint gate (which lets a just-bumped version pass
    before its refresh): the tier-1 suite pins this, so a stale manifest
    never merges.
    """
    try:
        committed = load_manifest(
            path if path is not None else root / "src/repro/lint/key_manifest.json"
        )
    except ValueError:
        return False
    return committed == compute_manifest(root)


def manifest_findings(root: Path, path: Path | None = None) -> Iterator[Finding]:
    """KEY001 drift findings (or one KEY002 for an unusable manifest)."""
    manifest_rel = "src/repro/lint/key_manifest.json"
    try:
        committed = load_manifest(
            path if path is not None else root / manifest_rel
        )
    except ValueError as exc:
        yield Finding(path=manifest_rel, line=1, rule="KEY002", message=str(exc))
        return
    for name, entry in sorted(MANIFEST_ENTRIES.items()):
        recorded = committed["entries"].get(name)
        if recorded is None:
            yield Finding(
                path=manifest_rel, line=1, rule="KEY002",
                message=(
                    f"manifest has no entry for {name!r}; run "
                    f"`repro lint refresh-manifest`"
                ),
            )
            continue
        current_version = extract_key_version(root, entry)
        if current_version != recorded.get("key_version"):
            # A version bump acknowledges the semantic change; the
            # freshness test (and the next refresh) records the new pair.
            continue
        current_hash = module_set_hash(root, entry["modules"])
        if current_hash != recorded.get("content_hash"):
            symbol = entry["version_symbol"]
            yield Finding(
                path=entry["version_module"],
                line=_version_line(root, entry),
                rule="KEY001",
                message=(
                    f"semantics-bearing modules of {symbol} "
                    f"({current_version!r}) changed without a key-version "
                    f"bump; bump {symbol} (cache entries are stale) or, for "
                    f"a provably-bitwise-identical refactor, run "
                    f"`repro lint refresh-manifest`"
                ),
            )


@register
class KeyManifestRule(Rule):
    code = "KEY001"
    name = "key-version-drift"
    summary = "key-versioned module sets must not drift from the manifest"
    scope = tuple(
        sorted({
            module
            for entry in MANIFEST_ENTRIES.values()
            for module in entry["modules"]
        })
    )
    repo_level = True

    @property
    def codes(self) -> tuple[str, ...]:
        return ("KEY001", "KEY002")

    def check_repo(self, root: Path) -> Iterator[Finding]:
        return manifest_findings(root)
