"""Trace reports: summary, critical path, cache breakdown, structure.

:func:`summarize` turns a list of span records into a plain dict report;
:func:`render_summary` prints it (``repro trace summarize``).  The
``cache spans: network Nh/Nm, layer Nh/Nm`` line is grepped by the CI
``obs-smoke`` job -- keep its format stable.  :func:`span_structure`
normalizes ids and timestamps away so two traced runs of the same
command can be compared structurally.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

_CACHE_GET_SPANS = {
    "cache.layer.get": "layer",
    "cache.network.get": "network",
}
_CACHE_PUT_SPANS = {
    "cache.layer.put": "layer",
    "cache.network.put": "network",
}


def _children_index(spans: List[dict]) -> Dict[Optional[int], List[dict]]:
    children: Dict[Optional[int], List[dict]] = {}
    ids = {span["id"] for span in spans}
    for span in spans:
        parent = span.get("parent")
        if parent not in ids:
            parent = None  # orphan (e.g. a filtered parent) counts as a root
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda span: (span["t0"], span["id"]))
    return children


def _duration(span: dict) -> float:
    return max(span["t1"] - span["t0"], 0.0)


def _critical_path(spans: List[dict]) -> List[dict]:
    """Longest-duration chain from a root down to a leaf."""
    if not spans:
        return []
    children = _children_index(spans)
    path = []
    node = max(children.get(None, []), key=_duration, default=None)
    while node is not None:
        path.append({"name": node["name"], "dur_s": _duration(node)})
        node = max(children.get(node["id"], []), key=_duration, default=None)
    return path


def _cache_breakdown(spans: List[dict]) -> Dict[str, Dict[str, int]]:
    breakdown = {
        "layer": {"hits": 0, "misses": 0, "puts": 0},
        "network": {"hits": 0, "misses": 0, "puts": 0},
    }
    for span in spans:
        tier = _CACHE_GET_SPANS.get(span["name"])
        if tier is not None:
            hit = (span.get("attrs") or {}).get("hit")
            if hit is not None:  # None: the lookup raised (a warm probe's miss)
                breakdown[tier]["hits" if hit else "misses"] += 1
            continue
        tier = _CACHE_PUT_SPANS.get(span["name"])
        if tier is not None:
            breakdown[tier]["puts"] += 1
    return breakdown


def summarize(spans: List[dict], meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build the summary report dict for a list of span records."""
    children = _children_index(spans)
    roots = children.get(None, [])
    wall_s = max((span["t1"] for span in spans), default=0.0) - min(
        (span["t0"] for span in spans), default=0.0
    )

    # Self time: a span's duration minus the time covered by its children.
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        dur = _duration(span)
        child_time = sum(_duration(child) for child in children.get(span["id"], []))
        entry = totals.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += dur
        entry["self_s"] += max(dur - child_time, 0.0)

    top = [
        {"name": name, **values}
        for name, values in sorted(
            totals.items(), key=lambda item: (-item[1]["self_s"], item[0])
        )
    ]

    return {
        "trace_id": (meta or {}).get("trace_id"),
        "command": (meta or {}).get("command"),
        "spans": len(spans),
        "roots": len(roots),
        "wall_s": wall_s,
        "critical_path": _critical_path(spans),
        "top": top,
        "cache": _cache_breakdown(spans),
    }


def render_summary(summary: Dict[str, Any], top_n: int = 10) -> str:
    """Human-readable report for ``repro trace summarize``."""
    lines = []
    title = "trace summary"
    if summary.get("trace_id"):
        title += " (id %s)" % summary["trace_id"]
    if summary.get("command"):
        title += " -- %s" % summary["command"]
    lines.append(title)
    lines.append(
        "spans: %d (%d roots), wall %.3fs"
        % (summary["spans"], summary["roots"], summary["wall_s"])
    )
    cache = summary["cache"]
    lines.append(
        "cache spans: network %dh/%dm, layer %dh/%dm (puts: %d network, %d layer)"
        % (
            cache["network"]["hits"],
            cache["network"]["misses"],
            cache["layer"]["hits"],
            cache["layer"]["misses"],
            cache["network"]["puts"],
            cache["layer"]["puts"],
        )
    )
    if summary["critical_path"]:
        lines.append("critical path:")
        for depth, step in enumerate(summary["critical_path"]):
            lines.append(
                "  %s%s  %.3fs" % ("  " * depth, step["name"], step["dur_s"])
            )
    if summary["top"]:
        lines.append("top spans by self time:")
        width = max(len(entry["name"]) for entry in summary["top"][:top_n])
        for entry in summary["top"][:top_n]:
            lines.append(
                "  %-*s  x%-5d self %8.3fs  total %8.3fs"
                % (
                    width,
                    entry["name"],
                    entry["count"],
                    entry["self_s"],
                    entry["total_s"],
                )
            )
    return "\n".join(lines)


def span_structure(spans: List[dict], with_attrs: bool = False) -> Tuple:
    """Normalize a span list to a nested structure tree.

    Ids and timestamps are dropped; only names, parent/child topology,
    and sibling order (by start time, which is deterministic for a
    deterministic execution) remain -- optionally with attrs.  Two
    traced runs of the same command compare equal under this projection.
    """

    children = _children_index(spans)

    def build(span: dict) -> Tuple:
        kids = tuple(build(child) for child in children.get(span["id"], []))
        if with_attrs:
            attrs = tuple(sorted((span.get("attrs") or {}).items()))
            return (span["name"], attrs, kids)
        return (span["name"], kids)

    return tuple(build(root) for root in children.get(None, []))
