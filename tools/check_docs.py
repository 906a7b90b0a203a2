#!/usr/bin/env python
"""Documentation checker: code blocks must run, links and references resolve.

Two passes over the repo's markdown, and one over its source:

1. **Code blocks.**  Every fenced ````` ```python ````` block in
   ``docs/*.md`` is *executed*, in file order, in one namespace per file
   (so a later block can use an earlier block's imports -- the same
   doctest-style contract a reader assumes when following a guide top to
   bottom).  Blocks in ``README.md`` are compile-checked only: the README
   quickstart showcases a full-suite evaluation that is deliberately too
   heavy for a lint gate.  A block annotated with an HTML comment
   ``<!-- docs-check: skip -->`` on the line directly above its fence is
   skipped entirely.
2. **Links.**  Every relative markdown link target (``[x](docs/foo.md)``,
   images included) must exist on disk.  External links (``http(s)://``,
   ``mailto:``) and pure in-page anchors (``#section``) are not checked.
3. **Cross-references.**  Every fully qualified docstring reference to
   the package in ``src/**/*.py`` -- ``:class:`~repro.api.Session```,
   and likewise ``:func:``, ``:meth:``, ``:attr:``, ``:mod:``,
   ``:data:`` and ``:exc:`` -- must import: its longest importable
   module prefix, then one attribute per remaining name.  A dataclass
   field counts as an attribute.

Exit status 0 when everything passes; 1 with a per-failure report
otherwise.  Run from the repo root::

    python tools/check_docs.py

The checker adds ``src/`` to ``sys.path`` itself, so no ``PYTHONPATH``
setup is needed.
"""

from __future__ import annotations

import dataclasses
import importlib
import re
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files whose python blocks are executed.
EXEC_GLOBS = ("docs/*.md",)

#: Files whose python blocks are only compiled (and links checked).
COMPILE_GLOBS = ("README.md",)

#: Source files whose cross-references must resolve.
XREF_GLOB = "src/**/*.py"

SKIP_MARKER = "docs-check: skip"

_FENCE_RE = re.compile(r"^```(\w*)\s*$")
# [text](target) -- but not images' alt brackets differently; images share
# the same (target) shape with a leading !, which this matches too.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_XREF_RE = re.compile(r":(?:class|func|meth|attr|mod|data|exc):`~?(repro(?:\.\w+)+)`")


@dataclass
class CodeBlock:
    path: Path
    line: int  # 1-based line of the opening fence
    language: str
    source: str
    skipped: bool


def extract_blocks(path: Path) -> list[CodeBlock]:
    blocks: list[CodeBlock] = []
    lines = path.read_text().splitlines()
    in_block = False
    language = ""
    start = 0
    buf: list[str] = []
    skip_next = False
    for i, raw in enumerate(lines, start=1):
        fence = _FENCE_RE.match(raw.strip())
        if not in_block:
            if fence:
                in_block = True
                language = fence.group(1).lower()
                start = i
                buf = []
            elif SKIP_MARKER in raw:
                skip_next = True
            else:
                # The marker only applies to the line directly above a
                # fence; any other intervening line cancels it.
                skip_next = False
            continue
        if raw.strip() == "```":
            blocks.append(
                CodeBlock(path, start, language, "\n".join(buf), skip_next)
            )
            in_block = False
            skip_next = False
        else:
            buf.append(raw)
    return blocks


def check_code(path: Path, execute: bool) -> list[str]:
    """Compile (and optionally run) a file's python blocks; return errors."""
    errors: list[str] = []
    namespace: dict = {"__name__": f"docs_check_{path.stem}"}
    for block in extract_blocks(path):
        if block.language != "python":
            continue
        where = f"{path.relative_to(REPO_ROOT)}:{block.line}"
        if block.skipped:
            print(f"  skip  {where} (marked {SKIP_MARKER!r})")
            continue
        try:
            code = compile(block.source, where, "exec")
        except SyntaxError:
            errors.append(f"{where}: syntax error\n{traceback.format_exc()}")
            continue
        if not execute:
            print(f"  ok    {where} (compile only)")
            continue
        try:
            exec(code, namespace)
        except Exception:
            errors.append(f"{where}: raised\n{traceback.format_exc()}")
        else:
            print(f"  ok    {where} (executed)")
    return errors


def check_links(path: Path) -> list[str]:
    """Every relative link target must exist on disk; return errors."""
    errors: list[str] = []
    text = path.read_text()
    # Drop fenced blocks: code samples may contain bracket/paren noise.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            errors.append(
                f"{path.relative_to(REPO_ROOT)}: broken link {target!r} "
                f"(no such file: {relative})"
            )
    return errors


def resolves(name: str) -> bool:
    """Whether the dotted ``name`` imports (a dataclass field counts as an
    attribute)."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            fields = (
                {field.name for field in dataclasses.fields(target)}
                if dataclasses.is_dataclass(target) else set()
            )
            if not hasattr(target, attr) and attr not in fields:
                return False
            target = getattr(target, attr, None)
        return True
    return False


def check_xrefs(path: Path) -> list[str]:
    """Every fully qualified cross-reference must resolve; return errors."""
    errors: list[str] = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        for match in _XREF_RE.finditer(line):
            if not resolves(match.group(1)):
                where = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
                errors.append(f"{where}:{number}: unresolved reference {match.group(0)}")
    return errors


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    failures: list[str] = []
    seen = 0
    for globs, execute in ((EXEC_GLOBS, True), (COMPILE_GLOBS, False)):
        for pattern in globs:
            for path in sorted(REPO_ROOT.glob(pattern)):
                seen += 1
                print(f"checking {path.relative_to(REPO_ROOT)}")
                failures += check_code(path, execute=execute)
                failures += check_links(path)
    sources = sorted(REPO_ROOT.glob(XREF_GLOB))
    print(f"checking cross-references in {len(sources)} source files")
    for path in sources:
        failures += check_xrefs(path)
    if seen == 0:
        print("error: no documentation files found", file=sys.stderr)
        return 1
    if failures:
        print(f"\n{len(failures)} documentation failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"- {failure}", file=sys.stderr)
        return 1
    print(f"\nall documentation checks passed ({seen} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
