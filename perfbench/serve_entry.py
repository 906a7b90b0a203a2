"""Start ``repro serve`` with the benchmark's key-hashing spans installed.

    python3 perfbench/serve_entry.py serve --port 0 --trace trace.jsonl

Arguments are those of ``python -m repro``.  The spans are installed
before the server creates its process pool, so forked workers inherit
them.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.layers import install_key_spans  # noqa: E402
from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    install_key_spans()
    sys.exit(main())
