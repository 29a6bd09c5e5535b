"""E-PERF: simulator throughput (accesses per second).

Timing benches proper: policy hot loops on realistic workloads, the
referee's overhead, the LinkedLRU substrate, and the instrumentation
audit.  Run with ``pytest benchmarks/ --benchmark-only`` to get
ops/sec; the
instrumentation matrix also writes
``benchmarks/out/throughput_overhead.csv`` plus the flight-recorder
file ``BENCH_throughput.json`` and enforces the instrumentation
budgets: full per-access telemetry ≤ 2× the uninstrumented path, and
ambient span tracing ≤ 1.3× on the full-trace fast path.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _harness import metric, write_bench
from repro.analysis.tables import format_table, write_csv
from repro.core.engine import simulate
from repro.core.fast import compile_trace, fast_simulate
from repro.policies import make_policy
from repro.structs.linked_lru import LinkedLRU
from repro.telemetry import Recorder, RingBufferSink, spans
from repro.telemetry.spans import SpanTracer
from repro.workloads import markov_spatial, zipf_items

TRACE_LEN = 50_000
SPAN_GATE_LEN = 400_000
SPAN_OVERHEAD_BUDGET = 1.3
K = 1024


@pytest.fixture(scope="module")
def zipf_trace():
    return zipf_items(TRACE_LEN, universe=8192, alpha=1.0, block_size=64, seed=1)


@pytest.fixture(scope="module")
def spatial_trace():
    return markov_spatial(
        TRACE_LEN, universe=8192, block_size=64, stay=0.85, seed=2
    )


@pytest.mark.parametrize(
    "policy_name",
    ["item-lru", "item-clock", "block-lru", "iblp", "gcm", "athreshold-lru"],
)
def test_policy_throughput_zipf(benchmark, zipf_trace, policy_name):
    def run():
        policy = make_policy(policy_name, K, zipf_trace.mapping)
        return simulate(policy, zipf_trace, validate=False).misses

    misses = benchmark(run)
    assert 0 < misses <= TRACE_LEN


@pytest.mark.parametrize("policy_name", ["item-lru", "iblp", "block-lru"])
def test_policy_throughput_spatial(benchmark, spatial_trace, policy_name):
    def run():
        policy = make_policy(policy_name, K, spatial_trace.mapping)
        return simulate(policy, spatial_trace, validate=False).misses

    misses = benchmark(run)
    assert 0 < misses <= TRACE_LEN


def test_referee_overhead(benchmark, zipf_trace):
    """Validated run; compare against the unvalidated bench above."""

    def run():
        policy = make_policy("iblp", K, zipf_trace.mapping)
        return simulate(policy, zipf_trace, validate=True).misses

    misses = benchmark(run)
    assert misses > 0


def _lru_workout(lru_cls, keys):
    lru = lru_cls()
    resident = set()
    for key in keys:
        if key in resident:
            lru.touch(key)
        else:
            if len(resident) >= 512:
                victim, _ = lru.pop_lru()
                resident.discard(victim)
            lru.insert_mru(key)
            resident.add(key)
    return len(resident)


@pytest.fixture(scope="module")
def lru_keys():
    rng = np.random.default_rng(3)
    return rng.integers(0, 2048, size=100_000).tolist()


def test_linked_lru_throughput(benchmark, lru_keys):
    assert benchmark(_lru_workout, LinkedLRU, lru_keys) == 512


def _telemetry_recorder(mode: str):
    """Recorder for one matrix cell: off / aggregate / full-trace."""
    if mode == "off":
        return None
    if mode == "aggregate":
        return Recorder(window=1000)
    # Full per-access tracing into memory (a disk sink would measure
    # the filesystem, not the instrumentation).
    return Recorder(
        window=1000, sinks=[RingBufferSink(maxlen=2 * TRACE_LEN)], sample_rate=1.0
    )


def _span_gate_trace():
    return zipf_items(
        SPAN_GATE_LEN, universe=16384, alpha=1.0, block_size=8, seed=7
    )


def _timed_fast_replay(trace, reps):
    """Best-of wall time for one fast-path replay (memoized compile)."""
    times = []
    result = None
    for _ in range(reps):
        policy = make_policy("item-lru", K, trace.mapping)
        t0 = time.perf_counter()
        result = fast_simulate(policy, trace)
        times.append(time.perf_counter() - t0)
    assert result is not None and result.misses > 0
    return min(times)


def test_instrumentation_overhead_matrix(zipf_trace, out_dir):
    """Audit: validate on/off × telemetry off/aggregate/full-trace,
    plus a spans-enabled column for the fast replay path.

    Emits the matrix to ``benchmarks/out/throughput_overhead.csv``
    (and ``BENCH_throughput.json`` via the flight-recorder harness)
    and asserts the budgets the instrumentation layers are designed
    to: full per-access telemetry costs at most 2× the matching
    uninstrumented run, and ambient span tracing at most
    ``SPAN_OVERHEAD_BUDGET``× on the full-trace fast path (best-of
    wall times to shed scheduler noise).  Spans never appear in the
    referee rows — the referee has no span call sites by design (they
    instrument whole replays, never per-access work).
    """
    reps = 3
    rows = []
    best: dict = {}
    for validate in (False, True):
        for mode in ("off", "aggregate", "full"):
            times = []
            for _ in range(reps):
                policy = make_policy("iblp", K, zipf_trace.mapping)
                recorder = _telemetry_recorder(mode)
                t0 = time.perf_counter()
                res = simulate(
                    policy, zipf_trace, validate=validate, recorder=recorder
                )
                times.append(time.perf_counter() - t0)
            assert 0 < res.misses <= TRACE_LEN
            seconds = min(times)
            best[(validate, mode)] = seconds
            rows.append(
                {
                    "engine": "referee",
                    "validate": validate,
                    "telemetry": mode,
                    "spans": False,
                    "seconds": seconds,
                    "accesses_per_s": TRACE_LEN / seconds,
                }
            )
    for row in rows:
        baseline = best[(row["validate"], "off")]
        row["overhead_x"] = row["seconds"] / baseline

    # The spans-enabled column: the fast replay kernel with and
    # without ambient span tracing (spans wrap whole replays, so this
    # is where their overhead would show — and must stay bounded).
    span_trace = _span_gate_trace()
    compile_trace(span_trace)  # memoize outside the timed region
    assert not spans.enabled()
    t_plain = _timed_fast_replay(span_trace, reps=5)
    spans.enable(SpanTracer(sinks=[RingBufferSink(maxlen=4096)]))
    try:
        t_spans = _timed_fast_replay(span_trace, reps=5)
    finally:
        spans.disable()
    span_overhead = t_spans / t_plain
    for enabled, seconds in ((False, t_plain), (True, t_spans)):
        rows.append(
            {
                "engine": "fast",
                "validate": False,
                "telemetry": "off",
                "spans": enabled,
                "seconds": seconds,
                "accesses_per_s": SPAN_GATE_LEN / seconds,
                "overhead_x": seconds / t_plain,
            }
        )

    write_csv(rows, out_dir / "throughput_overhead.csv")
    write_bench(
        "throughput",
        metrics={
            "telemetry_full_overhead_x": metric(
                best[(False, "full")] / best[(False, "off")], "x", "lower"
            ),
            "span_overhead_x": metric(span_overhead, "x", "lower"),
            "fast_accesses_per_second": metric(
                SPAN_GATE_LEN / t_plain, "accesses/s", "higher"
            ),
            "referee_accesses_per_second": metric(
                TRACE_LEN / best[(False, "off")], "accesses/s", "higher"
            ),
        },
        extra={
            "trace_length": TRACE_LEN,
            "span_gate_length": SPAN_GATE_LEN,
            "span_overhead_budget": SPAN_OVERHEAD_BUDGET,
        },
    )
    print()
    print(format_table(rows, title="instrumentation overhead"))
    assert best[(False, "full")] <= 2.0 * best[(False, "off")]
    assert best[(True, "full")] <= 2.0 * best[(True, "off")]
    # Aggregate-only telemetry must be strictly cheaper than full trace.
    assert best[(False, "aggregate")] <= best[(False, "full")] * 1.25
    # The span-tracing budget on the full-trace fast path.
    assert span_overhead <= SPAN_OVERHEAD_BUDGET, (
        f"span tracing overhead {span_overhead:.2f}x exceeds the "
        f"{SPAN_OVERHEAD_BUDGET}x budget "
        f"(plain {t_plain:.4f}s, spans {t_spans:.4f}s)"
    )


def test_belady_preparation_throughput(benchmark, zipf_trace):
    """Offline next-use precomputation is a single backward pass."""
    from repro.policies.belady import next_use_array

    out = benchmark(next_use_array, zipf_trace.items)
    assert out.shape == zipf_trace.items.shape
