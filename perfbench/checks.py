"""Output checks of one benchmark run, counted as failed operations.

The operations a job attempts are one per matrix cell, the cluster
run, the serve, the observed run, and one per store row.  Every check
reads the job's JSON output (see ``job.py``) after the timed region.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import bootstrap  # noqa: F401  (puts the checkout's src/ first on sys.path)
from repro.core.conformance import check_multi_policy
from repro.core.rtc import open_rtc
from repro.core.trace import Trace
from repro.serving.histograms import LatencyHistogram

#: The SimResult counters every cross-stage comparison uses.
RESULT_FIELDS = (
    "accesses", "misses", "temporal_hits", "spatial_hits", "loaded_items", "evicted_items",
)

#: Accesses of each workload's trace prefix diffed against the referee.
CONFORMANCE_PREFIX = 2000


def conformance_by_cell(cells: Sequence[Sequence[Any]], rtc_path) -> List[bool]:
    """Per matrix cell: is its single-pass replay of the trace prefix
    bit-identical (counters and per-access outcomes) to the referee?"""
    trace = open_rtc(rtc_path)
    prefix = Trace(np.array(trace.items[:CONFORMANCE_PREFIX]), trace.mapping)
    reports = check_multi_policy([tuple(c) for c in cells], prefix)
    return [r.ok for r in reports]


def _sim(row: Dict[str, Any]) -> Tuple[Any, ...]:
    return tuple(row[f] for f in RESULT_FIELDS)


def _consistent(row: Dict[str, Any], n: int) -> bool:
    """Taxonomy invariants of one SimResult payload over ``n`` accesses."""
    hits = row["temporal_hits"] + row["spatial_hits"]
    return (
        row["accesses"] == n
        and row["misses"] + hits == n
        and row["loaded_items"] >= row["misses"]
        and row["evicted_items"] <= row["loaded_items"]
    )


def check_job(out: Dict[str, Any], conformant: Sequence[bool]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, messages)`` for one job's output."""
    n = out["accesses"]
    cells = out["cells"]
    rows = out["rows"]
    matrix, (cluster, served, observed) = rows[: len(cells)], rows[len(cells):]
    failures: List[str] = []
    attempted = 0

    def op(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    for (policy, cap), row, conf in zip(cells, matrix, conformant):
        op(
            conf and _consistent(row, n) and (row["policy"], row["capacity"]) == (policy, cap),
            f"matrix cell {policy}@{cap}",
        )
    ref = _sim(next(r for (p, _c), r in zip(cells, matrix) if p == "iblp"))
    shard_sum = sum(out["cluster_shard_accesses"])
    op(
        shard_sum == n
        and out["cluster_blocks_split"] == 0
        and _consistent(cluster["sim"], n)
        and _sim(cluster["sim"]) == tuple(map(sum, zip(*(_sim(s) for s in cluster["shards"])))),
        "cluster run",
    )
    op(
        _sim(served["sim"]) == ref
        and served["completions"] == n
        and served["dropped_admission"] + served["dropped_timeout"] == 0,
        "serve (FIFO/no-drop stream equals the matrix IBLP row)",
    )
    op(
        _sim(observed) == ref and sum(observed["window_misses"]) == observed["misses"],
        "observed run (result and window misses equal the matrix IBLP row)",
    )
    for i, (put, got) in enumerate(zip(rows, out["store_got"])):
        op(put == got, f"store row {i} ({put.get('stage')}) read back differs")
    return attempted, len(failures), failures


def row_digest(rows: Sequence[Dict[str, Any]]) -> str:
    """sha256 of every result row, canonical JSON (speed-independent)."""
    blob = json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def simulated_stats(out: Dict[str, Any]) -> Dict[str, Any]:
    """The simulated (not perf) statistics of one job's rows."""
    cells = out["cells"]
    rows = out["rows"]
    matrix, served = rows[: len(cells)], rows[len(cells) + 1]
    stats: Dict[str, Any] = {"cells": {}}
    for (policy, cap), row in zip(cells, matrix):
        hits = row["temporal_hits"] + row["spatial_hits"]
        stats["cells"][f"{policy}@{cap}"] = {
            "miss_ratio": row["misses"] / row["accesses"],
            "spatial_hit_fraction": row["spatial_hits"] / hits if hits else 0.0,
        }
    latency = LatencyHistogram.from_dict(served["latency"])
    stats["serve"] = {"p50": latency.quantile(0.5), "p99": latency.quantile(0.99)}
    stats["cluster_imbalance"] = out["cluster_imbalance"]
    return stats
