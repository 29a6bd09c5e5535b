"""The per-layer span table of a traced run.

A traced job records ``repro.telemetry.spans.SpanTracer`` records (job
› stage › layer call: name, span id, parent id, start, seconds, and
attributes; ``accesses`` feeds the acc/s column) into an in-memory
ring buffer.  ``run.py`` gathers them from every traced job, writes
them out once, when the run ends, and prints :func:`format_table` of
:func:`summarize`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


def summarize(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and self seconds, accesses per second.

    Self time is a span's duration minus the time its direct children
    cover (children never overlap: the job is one thread).
    """
    child_time: Dict[str, float] = {}
    for s in spans:
        if s["parent_id"] is not None:
            child_time[s["parent_id"]] = child_time.get(s["parent_id"], 0.0) + s["seconds"]
    table: Dict[str, Dict[str, float]] = {}
    for s in sorted(spans, key=lambda s: s["ts"]):  # rows in order of first start
        row = table.setdefault(
            s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "accesses": 0}
        )
        row["count"] += 1
        row["total_s"] += s["seconds"]
        row["self_s"] += s["seconds"] - child_time.get(s["span_id"], 0.0)
        row["accesses"] += int(s.get("attrs", {}).get("accesses", 0))
    for row in table.values():
        row["acc_per_s"] = row["accesses"] / row["total_s"] if row["total_s"] > 0 else 0.0
    return table


def format_table(table: Dict[str, Dict[str, float]], title: Optional[str] = None) -> str:
    lines = [title] if title else []
    lines.append(f"{'span':<34} {'count':>5} {'total_s':>9} {'self_s':>9} {'acc/s':>12}")
    for name, row in table.items():
        rate = f"{row['acc_per_s']:.0f}" if row["accesses"] else "-"
        lines.append(
            f"{name:<34} {row['count']:>5} {row['total_s']:>9.4f} "
            f"{row['self_s']:>9.4f} {rate:>12}"
        )
    return "\n".join(lines)
