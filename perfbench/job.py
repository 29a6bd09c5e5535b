"""The replay job, end to end, run over and over in one process.

trace file -> ``convert_to_rtc`` -> ``open_rtc`` -> ``compile_trace``
-> ``multi_policy_replay`` over the workload's cells -> 4-shard IBLP
``replay_cluster`` -> IBLP ``serve`` -> telemetry-observed IBLP
``simulate`` -> every row ``put`` into and read back from a
``ResultStore``.

``run.py`` starts one of these processes per benchmark run.  It runs
one warm-up job, then jobs back to back until ``--seconds`` have
passed, each with a cold compile memo, a new ``.rtc`` file and an empty
store.  It starts no other process or thread, and writes every job's
timings and rows, and the peak RSS after the warm-up job, as JSON to
``--out``.  With ``--trace 1`` every untraced job is followed by a
traced one, which records spans around each layer call and then runs
the per-layer probes (each layer's public function called alone).

At every stage boundary the job first runs :func:`calibrate`, a fixed
loop that uses no repository code, and then reads the clock; stage
times leave the loop out.  The loop's time beside a stage measures how
fast the shared host runs just then (see README.md, *Steadiness*).

Run: ``python3 perfbench/job.py --workload NAME --seed N --source-dir D
--work-dir W --seconds S --out OUT.json [--trace 1]``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import bootstrap  # noqa: F401  (puts the checkout's src/ first on sys.path)

from repro.campaign.runner import result_fields
from repro.campaign.spec import cell_hash
from repro.campaign.store import ResultStore
from repro.cluster import ClusterSpec, replay_cluster
from repro.core.engine import simulate
import repro.core.fast as fast
from repro.core.fast import (
    FAST_POLICY_NAMES,
    compile_trace,
    fast_simulate,
    multi_capacity_replay,
    multi_capacity_supported,
    multi_policy_replay,
)
from repro.core.rtc import open_rtc
from repro.experiments.latency_vs_load import serving_config
from repro.policies.base import make_policy
from repro.serving import serve
from repro.telemetry import Recorder
from repro.telemetry.sinks import RingBufferSink
from repro.telemetry.spans import SpanTracer
from repro.workloads.stream import MsrTraceStream, TextTraceStream, convert_to_rtc

from workloads import WORKLOADS, Workload

#: Serving: Poisson arrivals at this share of the all-miss capacity
#: ``concurrency / (t_hit + t_miss)``; FIFO, no queue limit, no timeout.
LOAD = 0.8
CONCURRENCY = 4
T_HIT, T_MISS, T_ITEM = 1.0, 100.0, 1.0
CLUSTER = ClusterSpec(n_shards=4, scheme="block")
#: Recorder window of the observed run, in accesses.
WINDOW = 1000

_NO_SPAN = contextlib.nullcontext()

#: The calibration loop's keys: a fixed sequence, so every call does the
#: same work.
_CAL_KEYS = [random.Random(0).randrange(2048) for _ in range(20_000)]
#: About what :func:`calibrate` takes, as a median over a run, on the
#: 2-core VM the bounds were set on (it read 3.6-4.1 ms there); see
#: :meth:`Clock.stage`.
CAL_NOMINAL_S = 0.004

#: The job's stage boundaries, in the order it passes them.
BOUNDARIES = ("start", "converted", "opened", "compiled", "matrix", "cluster",
              "served", "observed", "put", "got")
#: Stage name -> (first, last) boundary.
STAGES = {
    "convert_s": ("start", "converted"),
    "open_s": ("converted", "opened"),
    "compile_s": ("opened", "compiled"),
    "setup_s": ("start", "compiled"),
    "matrix_s": ("compiled", "matrix"),
    "cluster_s": ("matrix", "cluster"),
    "serve_s": ("cluster", "served"),
    "observe_s": ("served", "observed"),
    "put_s": ("observed", "put"),
    "get_s": ("put", "got"),
    "wall_s": ("start", "got"),
}


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop: dict and list work like
    the simulator's inner loops, no repository code, collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        table: Dict[int, int] = {}
        order: List[int] = []
        for k in _CAL_KEYS:
            if k in table:
                table[k] += 1
            else:
                table[k] = 1
                order.append(k)
                if len(order) > 512:
                    del table[order.pop(0)]
        seconds = time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()
    return seconds


class Clock:
    """The job's stage boundaries.

    :meth:`mark` runs :func:`calibrate` and then reads the clock, so a
    stage's host time runs from the end of one boundary's loop to the
    start of the next one's and never includes a loop.
    """

    def __init__(self) -> None:
        self.marks: Dict[str, Tuple[float, float, float]] = {}

    def mark(self, name: str) -> None:
        before = time.perf_counter()
        cal = calibrate()
        self.marks[name] = (before, time.perf_counter(), cal)

    def stage(self, first: str, last: str) -> Tuple[float, float]:
        """``(host seconds, normalised seconds)`` from ``first`` to ``last``.

        Normalised seconds are the host seconds times ``CAL_NOMINAL_S``
        over the mean calibration time at the boundaries the stage
        spans: the stage's time on a host that runs the loop at its
        nominal speed.
        """
        names = BOUNDARIES[BOUNDARIES.index(first): BOUNDARIES.index(last) + 1]
        host = sum(self.marks[b][0] - self.marks[a][1] for a, b in zip(names, names[1:]))
        cal = sum(self.marks[n][2] for n in names) / len(names)
        return host, host * CAL_NOMINAL_S / cal


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(
    wl: Workload, seed: int, source: Path, source_accesses: int, job_dir: Path,
    tracer: Optional[SpanTracer],
) -> Dict[str, Any]:
    """One timed job.  Returns host and normalised stage times (see
    :meth:`Clock.stage`), rows, and the store round trip.

    ``source_accesses`` is the source file's access count (its
    ``source.json``), for the acc/s of the conversion span.  ``tracer``
    (``None`` when untraced) records a span around each layer call.  It
    is passed explicitly, never enabled as the ambient tracer, so the
    program's own in-library spans stay off.
    """

    def span(name: str, **attrs: Any):
        return tracer.span(name, **attrs) if tracer is not None else _NO_SPAN

    rtc_path = job_dir / "trace.rtc"
    config = serving_config(
        LOAD * CONCURRENCY / (T_HIT + T_MISS),
        t_hit=T_HIT, t_miss=T_MISS, t_item=T_ITEM, concurrency=CONCURRENCY, seed=seed,
    )
    cells = wl.cells()
    clock = Clock()
    clock.mark("start")
    with span("job", workload=wl.name):
        with span("stage.setup"):
            with span("stream.convert_to_rtc", accesses=source_accesses):
                convert_to_rtc(
                    source, rtc_path, wl.fmt, block_size=wl.block_size,
                    metadata={"source": source.name},
                )
            clock.mark("converted")
            with span("rtc.open_rtc"):
                trace = open_rtc(rtc_path)
            clock.mark("opened")
            with span("fast.compile_trace", accesses=len(trace)):
                compile_trace(trace)
            clock.mark("compiled")
        n = len(trace)
        with span("stage.matrix"):
            with span("fast.multi_policy_replay", accesses=n * len(cells)):
                matrix = multi_policy_replay(cells, trace)
            clock.mark("matrix")
        with span("stage.cluster"):
            with span("cluster.replay_cluster", accesses=n):
                cluster = replay_cluster("iblp", wl.k, trace, CLUSTER)
            clock.mark("cluster")
        with span("stage.serve"):
            with span("serving.serve", accesses=n):
                served = serve(make_policy("iblp", wl.k, trace.mapping), trace, config)
            clock.mark("served")
        with span("stage.observe"):
            recorder = Recorder(window=WINDOW)
            with span("engine.simulate.observed", accesses=n):
                observed = simulate(
                    make_policy("iblp", wl.k, trace.mapping), trace, recorder=recorder
                )
            clock.mark("observed")
        with span("stage.store"):
            fp = trace.fingerprint()
            keyed = [
                (cell_hash(p, c, fp), {"stage": "matrix", **result_fields(r)})
                for (p, c), r in zip(cells, matrix)
            ]
            keyed.append(
                (
                    cell_hash("iblp", wl.k, fp, cluster=CLUSTER.as_dict()),
                    {"stage": "cluster", **cluster.fields()},
                )
            )
            keyed.append(
                (
                    cell_hash("iblp", wl.k, fp, fast=False, serving=config.as_dict()),
                    {"stage": "serve", **served.fields()},
                )
            )
            window_misses = [row.misses for row in recorder.window_rows]
            keyed.append(
                (
                    cell_hash("iblp", wl.k, fp, fast=False, policy_kwargs={"window": WINDOW}),
                    {"stage": "observe", **result_fields(observed), "window_misses": window_misses},
                )
            )
            store = ResultStore(job_dir / "store")
            try:
                with span("store.put_all", accesses=0):
                    for h, payload in keyed:
                        with span("store.put"):
                            store.put(h, payload)
                clock.mark("put")
                with span("store.get_all", accesses=0):
                    got = []
                    for h, _payload in keyed:
                        with span("store.get"):
                            got.append(store.get(h))
                clock.mark("got")
                store_stats = {"rows": len(store), "hits": store.hits, "lookups": store.lookups}
            finally:
                store.close()
    stages = {name: clock.stage(*ends) for name, ends in STAGES.items()}
    return {
        "trace": trace,
        "times": {name: host for name, (host, _norm) in stages.items()},
        "norm_times": {name: norm for name, (_host, norm) in stages.items()},
        "calibration_s": [cal for _before, _after, cal in clock.marks.values()],
        "accesses": n,
        "rtc_bytes": rtc_path.stat().st_size,
        "fingerprint": trace.fingerprint(),
        "cells": [list(c) for c in cells],
        "rows": [payload for _h, payload in keyed],
        "store_got": got,
        "store": store_stats,
        "requests": served.completions,
        "serve_events": served.arrivals + served.completions + served.dropped,
        "cluster_imbalance": cluster.load_imbalance,
        "cluster_shard_accesses": [s.accesses for s in cluster.shards],
        "cluster_blocks_split": cluster.blocks_split,
        "observe_windows": len(window_misses),
    }


def run_probes(wl: Workload, source: Path, trace, tracer: SpanTracer) -> None:
    """Each layer's public function called alone, under ``probe`` spans.

    Runs after the timed job, on the job's compiled (memoized) trace.
    """
    span = tracer.span
    n = len(trace)
    stream_cls = MsrTraceStream if wl.fmt == "msr" else TextTraceStream
    with span("probe"):
        with span("stream.parse", accesses=n):
            for _chunk in stream_cls(source):
                pass
        solo = dict.fromkeys([tuple(c) for c in wl.cells()])
        solo.update(dict.fromkeys((p, wl.k) for p in FAST_POLICY_NAMES))
        for policy, cap in solo:
            with span(f"kernel.{policy}@{cap}", accesses=n) as rec:
                res = fast_simulate(make_policy(policy, cap, trace.mapping), trace)
                rec.set("misses", res.misses)
                rec.set("loaded_items", res.loaded_items)
        caps = list(wl.mattson_caps or (wl.k,))
        for policy in ("item-lru", "block-lru"):
            if multi_capacity_supported(policy, trace, caps):
                with span("fast.multi_capacity_replay", accesses=n):
                    multi_capacity_replay(policy, trace, caps)
        router = CLUSTER.router()
        with span("cluster.route", accesses=n):
            plan = router.split(trace)
        shard_cap = CLUSTER.shard_capacity(wl.k)
        for sub in plan.subtraces:
            with span("cluster.shard", accesses=len(sub)):
                simulate(make_policy("iblp", shard_cap, sub.mapping), sub, fast=True)
        with span("referee.simulate", accesses=n):
            simulate(make_policy("iblp", wl.k, trace.mapping), trace, validate=True)


def layer_metrics(
    wl: Workload, out: Dict[str, Any], spans: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The per-layer metrics of one traced job (see README.md).

    ``spans`` are the job's span records (``SpanTracer`` format).
    """
    n = out["accesses"]

    def tot(name: str) -> float:
        return sum(s["seconds"] for s in spans if s["name"] == name)

    times = out["times"]
    m: Dict[str, float] = {
        "stream.parse_acc_per_s": n / tot("stream.parse"),
        "rtc.convert_acc_per_s": n / tot("stream.convert_to_rtc"),
        "rtc.open_s": tot("rtc.open_rtc"),
        "rtc.bytes": float(out["rtc_bytes"]),
        "fast.compile_acc_per_s": n / tot("fast.compile_trace"),
    }
    kernels = {}
    for s in spans:
        name = str(s["name"])
        if name.startswith("kernel."):
            policy, cap = name[len("kernel."):].rsplit("@", 1)
            kernels[(policy, int(cap))] = s
    for policy in FAST_POLICY_NAMES:
        s = kernels[(policy, wl.k)]
        m[f"kernel.{policy}.acc_per_s"] = n / s["seconds"]
        m[f"kernel.{policy}.misses"] = float(s["attrs"]["misses"])
        m[f"kernel.{policy}.loaded_items"] = float(s["attrs"]["loaded_items"])
    solo_s = sum(kernels[tuple(c)]["seconds"] for c in out["cells"])
    m["matrix.sharing_gain"] = solo_s / times["matrix_s"]
    passes = sum(1 for s in spans if s["name"] == "fast.multi_capacity_replay")
    m["fast.mattson_acc_per_s"] = passes * n / tot("fast.multi_capacity_replay")
    route, shards = tot("cluster.route"), tot("cluster.shard")
    m["cluster.route_s"] = route
    m["cluster.shards_s"] = shards
    m["cluster.merge_s"] = times["cluster_s"] - route - shards
    m["cluster.imbalance"] = out["cluster_imbalance"]
    m["cluster.blocks_split"] = float(out["cluster_blocks_split"])
    referee = tot("referee.simulate")
    m["referee.acc_per_s"] = n / referee
    m["serve.loop_s"] = times["serve_s"] - referee
    m["serve.events"] = float(out["serve_events"])
    m["observe.overhead_x"] = times["observe_s"] / referee
    m["observe.windows"] = float(out["observe_windows"])
    m["store.put_s"] = times["put_s"]
    m["store.get_s"] = times["get_s"]
    m["store.rows"] = float(out["store"]["rows"])
    lookups = out["store"]["lookups"]
    m["store.hit_ratio"] = out["store"]["hits"] / lookups if lookups else 0.0
    return m


def one_job(wl: Workload, seed: int, source: Path, info: Dict[str, Any], job_dir: Path,
            traced: bool) -> Dict[str, Any]:
    """One job in an empty ``job_dir`` with a cold compile memo; a traced
    one also runs the probes and adds its spans and per-layer metrics."""
    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir(parents=True)
    fast._COMPILED.clear()  # the compile memo has no public reset
    tracer = SpanTracer(sinks=[RingBufferSink()]) if traced else None
    out = run_job(wl, seed, source, info["accesses"], job_dir, tracer)
    trace = out.pop("trace")
    out["traced"] = traced
    if tracer is not None:
        run_probes(wl, source, trace, tracer)
        tracer.close()
        out["spans"] = tracer.sinks[0].of_type("span")
        out["layers"] = layer_metrics(wl, out, out["spans"])
    return out


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--source-dir", type=Path, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    wl = WORKLOADS[ns.workload]
    info = json.loads((ns.source_dir / "source.json").read_text())
    source = ns.source_dir / info["file"]
    job_dir = ns.work_dir / "job"

    one_job(wl, ns.seed, source, info, job_dir, False)  # warm-up, not reported
    rss = peak_rss_mb()
    jobs: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + ns.seconds
    while not jobs or time.perf_counter() < deadline:
        jobs.append(one_job(wl, ns.seed, source, info, job_dir, False))
        if ns.trace:
            jobs.append(one_job(wl, ns.seed, source, info, job_dir, True))
    ns.out.write_text(json.dumps({"peak_rss_mb": rss, "jobs": jobs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
