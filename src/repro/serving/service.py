"""Request-level serving: from cache decisions to request latency.

This is the layer ROADMAP item 1 asks for: the offline simulator
answers *"what is the miss ratio"*; :func:`serve` answers *"what does
a user feel at this offered load"*.  Every policy plugs in unchanged —
the serving loop drives the same referee :class:`~repro.core.engine.
Engine` (validation, spatial/temporal taxonomy, ``on_access``
contract) that :func:`~repro.core.engine.simulate` uses, so the cache
decision stream is exactly the offline one; serving only adds *time*:

* **Arrivals** (open-loop Poisson / bursty MMPP / constant, or a
  closed-loop client population) timestamp each trace request.
* **Service**: a hit costs ``t_hit``; a miss additionally pays the
  backing-store delay ``t_miss`` **once** plus ``t_item`` per *extra*
  loaded item — a spatial load amortizes one backing fetch across the
  loaded subset, which is precisely the paper's granularity-change
  payoff translated into latency.  Spatial hits then cost only
  ``t_hit``: the fetch they would have needed was already paid for.
* **Queueing**: bounded server ``concurrency`` with a FIFO (default)
  or shortest-expected-job-first queue, optional admission bound
  (``queue_limit``) and queue-wait ``timeout``.

Determinism: simulated time comes from a seeded event heap (ties
broken by scheduling order) and seeded NumPy generators only — no
wall clock anywhere — so a (policy, trace, config) triple maps to a
bit-identical :class:`ServingResult`, including histogram payloads,
which is what lets the campaign layer content-address serving cells.

Conformance invariant (pinned by ``tests/test_serving_conformance.py``):
with the FIFO queue and no drops (the defaults), requests start
service in arrival order, so the hit/miss/spatial stream — and the
embedded :class:`~repro.types.SimResult` — is bit-identical to
``simulate()`` on the same policy and trace.  The SJF queue and drop
knobs deliberately trade that equivalence for scheduling realism.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.engine import Engine
from repro.core.trace import Trace
from repro.errors import ConfigurationError, ProtocolViolation
from repro.serving.arrivals import ArrivalSpec, generate_arrivals, require_finite
from repro.serving.histograms import LatencyHistogram
from repro.telemetry import spans
from repro.types import HitKind, SimResult

__all__ = [
    "ServiceModel",
    "ServingConfig",
    "ServingResult",
    "serve",
    "serve_policy",
    "serving_cell",
]

#: HitKind → per-class histogram key (stable across payloads).
KIND_KEYS: Dict[HitKind, str] = {
    HitKind.MISS: "miss",
    HitKind.TEMPORAL_HIT: "temporal",
    HitKind.SPATIAL_HIT: "spatial",
}


@dataclass(frozen=True)
class ServiceModel:
    """Per-request service-time model (simulated time units).

    ``t_hit`` is the base cost every request pays (lookup + response).
    A miss adds ``t_miss`` — one backing-store round trip regardless of
    how many items the policy chose to load — plus ``t_item`` per
    loaded item beyond the requested one (transfer cost of the spatial
    subset).  ``dist="exponential"`` replaces the deterministic time
    with an exponential draw of that mean (the M/M/1-testable mode);
    ``"deterministic"`` is the default.

    ``size_dist="etc"`` makes the per-item transfer cost *variable*:
    every item gets a deterministic value size from the Facebook-ETC
    Generalized Pareto fit (:func:`repro.workloads.etc_item_sizes`,
    seeded by ``size_seed``, parameters ``size_scale``/``size_shape``),
    normalized to mean 1.0 so ``t_item`` keeps its meaning as the
    *average* per-item transfer time — a miss that side-loads
    heavy-tailed values pays proportionally more.  The default
    ``"none"`` preserves the fixed-cost model bit-for-bit *and* its
    :meth:`as_dict` payload (size fields are omitted), so existing
    serving cell hashes are untouched.
    """

    t_hit: float = 1.0
    t_miss: float = 100.0
    t_item: float = 0.0
    dist: str = "deterministic"
    seed: int = 0
    size_dist: str = "none"
    size_seed: int = 0
    size_scale: float = 214.476
    size_shape: float = 0.348238

    def __post_init__(self) -> None:
        require_finite(
            "ServiceModel",
            t_hit=self.t_hit,
            t_miss=self.t_miss,
            t_item=self.t_item,
            size_scale=self.size_scale,
            size_shape=self.size_shape,
        )
        if self.t_hit < 0 or self.t_miss < 0 or self.t_item < 0:
            raise ConfigurationError("service times must be >= 0")
        if self.t_hit + self.t_miss <= 0:
            raise ConfigurationError("t_hit + t_miss must be > 0")
        if self.dist not in ("deterministic", "exponential"):
            raise ConfigurationError(
                f"service dist must be 'deterministic' or 'exponential', "
                f"got {self.dist!r}"
            )
        if self.size_dist not in ("none", "etc"):
            raise ConfigurationError(
                f"size_dist must be 'none' or 'etc', got {self.size_dist!r}"
            )
        if self.size_scale <= 0 or self.size_shape <= 0:
            raise ConfigurationError("size_scale and size_shape must be > 0")

    def item_weights(self, universe: int) -> Optional[np.ndarray]:
        """Per-item transfer weights (mean 1.0), or ``None`` for fixed.

        With ``size_dist="etc"`` the weight of item ``i`` is its ETC
        value size divided by the universe's mean size, so
        ``t_item * weight`` is that item's transfer time and the
        *expected* extra-item cost matches the fixed model's.
        """
        if self.size_dist == "none":
            return None
        from repro.workloads.etc import etc_item_sizes

        sizes = etc_item_sizes(
            universe,
            seed=self.size_seed,
            scale=self.size_scale,
            shape=self.size_shape,
        )
        return sizes / sizes.mean()

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "t_hit": self.t_hit,
            "t_miss": self.t_miss,
            "t_item": self.t_item,
            "dist": self.dist,
            "seed": self.seed,
        }
        # Size-distribution keys only appear when active: legacy
        # fixed-cost payloads (and their campaign cell hashes) must
        # stay byte-identical to the pre-size-model era.
        if self.size_dist != "none":
            out["size_dist"] = self.size_dist
            out["size_seed"] = self.size_seed
            out["size_scale"] = self.size_scale
            out["size_shape"] = self.size_shape
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceModel":
        known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown service model fields: {sorted(unknown)}"
            )
        return cls(**dict(data))


@dataclass(frozen=True)
class ServingConfig:
    """Everything that shapes request latency besides the policy/trace.

    The dict form (:meth:`as_dict`) is JSON-scalar and canonical — the
    campaign layer hashes it into the cell's content address, so any
    arrival/service/queue change recomputes cells instead of reusing
    stale ones.
    """

    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    service: ServiceModel = field(default_factory=ServiceModel)
    concurrency: int = 1
    queue: str = "fifo"
    queue_limit: Optional[int] = None
    timeout: Optional[float] = None
    hist_lo: float = 1e-3
    hist_per_decade: int = 20
    hist_decades: int = 12

    def __post_init__(self) -> None:
        require_finite("ServingConfig", timeout=self.timeout, hist_lo=self.hist_lo)
        for name in ("concurrency", "queue_limit", "hist_per_decade", "hist_decades"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise ConfigurationError(
                    f"ServingConfig.{name} must be an integer, got {value!r}"
                )
        if self.hist_lo <= 0:
            raise ConfigurationError(f"hist_lo must be > 0, got {self.hist_lo}")
        if self.concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if self.queue not in ("fifo", "sjf"):
            raise ConfigurationError(
                f"queue must be 'fifo' or 'sjf', got {self.queue!r}"
            )
        if self.queue_limit is not None and self.queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")

    def new_histogram(self) -> LatencyHistogram:
        return LatencyHistogram(
            lo=self.hist_lo,
            per_decade=self.hist_per_decade,
            decades=self.hist_decades,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "arrival": self.arrival.as_dict(),
            "service": self.service.as_dict(),
            "concurrency": self.concurrency,
            "queue": self.queue,
            "queue_limit": self.queue_limit,
            "timeout": self.timeout,
            "hist_lo": self.hist_lo,
            "hist_per_decade": self.hist_per_decade,
            "hist_decades": self.hist_decades,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingConfig":
        known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown serving config fields: {sorted(unknown)}"
            )
        payload = dict(data)
        if "arrival" in payload:
            payload["arrival"] = ArrivalSpec.from_dict(payload["arrival"])
        if "service" in payload:
            payload["service"] = ServiceModel.from_dict(payload["service"])
        return cls(**payload)


@dataclass
class ServingResult:
    """One serving run: cache statistics plus the latency story.

    ``sim`` is the referee's :class:`~repro.types.SimResult` — with the
    default FIFO/no-drop config it is bit-identical to what
    ``simulate()`` returns for the same policy/trace.  Everything else
    is time: conservation counters (``arrivals = completions +
    dropped_admission + dropped_timeout`` once the loop drains),
    latency/wait histograms with per-class breakdowns, and the
    Little's-law integrals (``area_in_system`` is ∫N(t)dt, so
    ``little_l == little_lambda * little_w`` exactly on no-drop runs).
    """

    sim: SimResult
    serving: Dict[str, Any]
    arrivals: int = 0
    completions: int = 0
    dropped_admission: int = 0
    dropped_timeout: int = 0
    duration: float = 0.0
    sojourn_sum: float = 0.0
    wait_sum: float = 0.0
    service_sum: float = 0.0
    area_in_system: float = 0.0
    area_busy: float = 0.0
    queue_peak: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    latency_by_kind: Dict[str, LatencyHistogram] = field(default_factory=dict)
    wait: LatencyHistogram = field(default_factory=LatencyHistogram)

    # -- headline latency --------------------------------------------------
    @property
    def p50(self) -> float:
        return self.latency.p50

    @property
    def p99(self) -> float:
        return self.latency.p99

    @property
    def p999(self) -> float:
        return self.latency.p999

    @property
    def mean_latency(self) -> float:
        return self.sojourn_sum / self.completions if self.completions else 0.0

    @property
    def mean_wait(self) -> float:
        return self.wait_sum / self.completions if self.completions else 0.0

    @property
    def mean_service(self) -> float:
        return self.service_sum / self.completions if self.completions else 0.0

    # -- load / conservation ----------------------------------------------
    @property
    def dropped(self) -> int:
        return self.dropped_admission + self.dropped_timeout

    @property
    def drop_ratio(self) -> float:
        return self.dropped / self.arrivals if self.arrivals else 0.0

    @property
    def offered_rate(self) -> Optional[float]:
        """Configured open-loop rate (``None`` for closed loop)."""
        return self.serving.get("arrival", {}).get("rate")

    @property
    def throughput(self) -> float:
        """Achieved completions per simulated time unit."""
        return self.completions / self.duration if self.duration > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Busy-server time over total server time."""
        denom = self.duration * int(self.serving.get("concurrency", 1))
        return self.area_busy / denom if denom > 0 else 0.0

    # -- Little's law -------------------------------------------------------
    @property
    def little_l(self) -> float:
        """Time-average number of requests in the system (∫N dt / T)."""
        return self.area_in_system / self.duration if self.duration > 0 else 0.0

    @property
    def little_lambda(self) -> float:
        return self.throughput

    @property
    def little_w(self) -> float:
        return self.mean_latency

    # -- interchange -------------------------------------------------------
    def as_row(self) -> Dict[str, Any]:
        """Flat row for tables/sweeps: cache columns + latency columns."""
        row = self.sim.as_row()
        arrival = self.serving.get("arrival", {})
        row.update(
            {
                "arrival_process": arrival.get("process", ""),
                "offered_rate": self.offered_rate,
                "concurrency": self.serving.get("concurrency", 1),
                "arrivals": self.arrivals,
                "completions": self.completions,
                "dropped_admission": self.dropped_admission,
                "dropped_timeout": self.dropped_timeout,
                "duration": self.duration,
                "throughput": self.throughput,
                "utilization": self.utilization,
                "mean_latency": self.mean_latency,
                "mean_wait": self.mean_wait,
                "p50": self.p50,
                "p99": self.p99,
                "p999": self.p999,
            }
        )
        for key, hist in sorted(self.latency_by_kind.items()):
            row[f"p99_{key}"] = hist.p99
            row[f"mean_{key}"] = hist.mean
        return row

    def fields(self) -> Dict[str, Any]:
        """Lossless JSON-safe payload (campaign-store interchange).

        The ``"kind": "serving"`` marker is what
        :func:`repro.campaign.runner.result_from_fields` dispatches on;
        top-level ``accesses`` feeds the executor's progress counters.
        """
        from repro.campaign.runner import result_fields

        return {
            "kind": "serving",
            "accesses": self.sim.accesses,
            "sim": result_fields(self.sim),
            "serving": dict(self.serving),
            "arrivals": self.arrivals,
            "completions": self.completions,
            "dropped_admission": self.dropped_admission,
            "dropped_timeout": self.dropped_timeout,
            "duration": self.duration,
            "sojourn_sum": self.sojourn_sum,
            "wait_sum": self.wait_sum,
            "service_sum": self.service_sum,
            "area_in_system": self.area_in_system,
            "area_busy": self.area_busy,
            "queue_peak": self.queue_peak,
            "latency": self.latency.as_dict(),
            "latency_by_kind": {
                key: hist.as_dict()
                for key, hist in sorted(self.latency_by_kind.items())
            },
            "wait": self.wait.as_dict(),
        }

    @classmethod
    def from_fields(cls, data: Mapping[str, Any]) -> "ServingResult":
        from repro.campaign.runner import result_from_fields

        return cls(
            sim=result_from_fields(data["sim"]),
            serving=dict(data["serving"]),
            arrivals=int(data["arrivals"]),
            completions=int(data["completions"]),
            dropped_admission=int(data["dropped_admission"]),
            dropped_timeout=int(data["dropped_timeout"]),
            duration=float(data["duration"]),
            sojourn_sum=float(data["sojourn_sum"]),
            wait_sum=float(data["wait_sum"]),
            service_sum=float(data["service_sum"]),
            area_in_system=float(data["area_in_system"]),
            area_busy=float(data["area_busy"]),
            queue_peak=int(data["queue_peak"]),
            latency=LatencyHistogram.from_dict(data["latency"]),
            latency_by_kind={
                key: LatencyHistogram.from_dict(payload)
                for key, payload in data["latency_by_kind"].items()
            },
            wait=LatencyHistogram.from_dict(data["wait"]),
        )


def serve(
    policy,
    trace: Trace,
    config: Optional[ServingConfig] = None,
    *,
    validate: bool = True,
    engine=None,
    on_access: Optional[Callable[[int, int, HitKind], None]] = None,
    on_event: Optional[Callable[[str, float, int], None]] = None,
    recorder=None,
) -> ServingResult:
    """Serve ``trace`` through ``policy`` under a serving config.

    Parameters mirror :func:`~repro.core.engine.simulate` where they
    overlap: ``validate`` referee-checks every cache action,
    ``on_access(pos, item, kind)`` observes the classified access
    stream (same contract; ``pos`` is the trace position), and an
    optional telemetry ``recorder`` sees every access plus a
    ``"serve"`` phase.  ``on_event(name, time, index)`` additionally
    observes the serving events (``arrival`` / ``start`` / ``done`` /
    ``drop_admission`` / ``drop_timeout``) in simulated-time order —
    the hook the invariant tests use to check monotone time.

    ``engine`` dispatches the cache stream through a pre-built engine
    instead of constructing one: anything exposing the referee
    :class:`~repro.core.engine.Engine` surface the loop touches —
    ``access(item)``, a live ``result`` :class:`SimResult`, and a
    ``resident`` membership view — works; this is how
    :func:`repro.cluster.serving_bridge.serve_cluster` routes requests
    across an N-shard cluster.  With ``engine`` given, ``policy`` is
    ignored (pass ``None``) and the caller owns offline preparation
    and telemetry, so ``recorder`` must not be given as well.

    Returns a :class:`ServingResult`; the run always drains (every
    admitted request completes or is dropped before the loop ends).
    """
    config = config if config is not None else ServingConfig()
    if engine is None:
        if trace.mapping is not policy.mapping and (
            trace.mapping.universe != policy.mapping.universe
            or trace.mapping.max_block_size != policy.mapping.max_block_size
        ):
            raise ProtocolViolation(
                "trace and policy use different block mappings"
            )
        if policy.is_offline:
            policy.prepare(trace)
        engine = Engine(policy, trace.mapping, validate=validate, recorder=recorder)
    elif recorder is not None:
        raise ConfigurationError(
            "serve(engine=..., recorder=...): a recorder is attached only to "
            "an engine serve() builds; attach it to the given engine instead"
        )
    engine.result.metadata.update(
        {k: v for k, v in trace.metadata.items() if isinstance(v, (str, int, float))}
    )
    items: List[int] = trace.items.tolist()
    n = len(items)
    item_weights = config.service.item_weights(trace.mapping.universe)
    result = ServingResult(
        sim=engine.result,
        serving=config.as_dict(),
        latency_by_kind={key: config.new_histogram() for key in KIND_KEYS.values()},
        wait=config.new_histogram(),
    )
    phase = (
        recorder.phase("serve") if recorder is not None else contextlib.nullcontext()
    )
    with spans.span("serve", policy=result.sim.policy, requests=n):
        with spans.span("serve.arrivals", process=config.arrival.process):
            open_times = (
                generate_arrivals(config.arrival, n)
                if config.arrival.open_loop and n
                else None
            )
        with phase, spans.span("serve.loop", requests=n):
            _run_loop(
                config,
                engine,
                items,
                result,
                item_weights,
                open_times,
                on_access,
                on_event,
            )
    if recorder is not None:
        recorder.finalize(engine.result)
    return result


#: Event tags; the heap orders by ``(time, seq)`` and never compares them.
_ARRIVE, _DONE = 0, 1


def _run_loop(
    config: ServingConfig,
    engine: Engine,
    items: List[int],
    result: ServingResult,
    item_weights: Optional[np.ndarray],
    open_times: Optional[np.ndarray],
    on_access: Optional[Callable[[int, int, HitKind], None]],
    on_event: Optional[Callable[[str, float, int], None]],
) -> None:
    """The event loop: a heap of ``(time, seq, tag, index)`` events.

    All loop state is local; the totals land in ``result`` at the end.
    ``seq`` breaks same-time ties in scheduling order.  Every new
    event time is ``now + service``, ``now + think`` (both >= 0) or the
    next entry of the ascending open-loop arrival vector, so time never
    runs backwards.

    Closed loop: clients are interchangeable consumers of "the next
    workload request", so the trace cursor is assigned when an arrival
    is *processed*, not when it is scheduled — think-time randomness
    can reorder issue events, and assigning at processing time keeps
    cache accesses in trace order (the conformance invariant)
    regardless.  ``issued`` counts scheduled arrivals so exactly ``n``
    ever enter the system.  Open loop schedules the next arrival
    lazily, which keeps the heap O(in-flight).
    """
    n = len(items)
    arrival = config.arrival
    closed = not arrival.open_loop
    think = arrival.think
    think_rng = np.random.default_rng(
        np.random.SeedSequence([arrival.seed, 0x434C4F53])
    )
    model = config.service
    t_hit, t_miss, t_item = model.t_hit, model.t_miss, model.t_item
    exponential = model.dist == "exponential"
    service_rng = np.random.default_rng(
        np.random.SeedSequence([model.seed, 0x53455256])
    )
    concurrency = config.concurrency
    queue_limit = config.queue_limit if config.queue_limit is not None else math.inf
    timeout = config.timeout if config.timeout is not None else math.inf
    sjf = config.queue == "sjf"
    sim = engine.result
    access = engine.access
    resident = engine.resident
    record_wait = result.wait.record
    by_kind = result.latency_by_kind
    miss, temporal, spatial = (by_kind[key] for key in KIND_KEYS.values())
    record_miss = miss.record
    record_temporal = temporal.record
    record_spatial = spatial.record
    MISS, TEMPORAL_HIT = HitKind.MISS, HitKind.TEMPORAL_HIT
    push, pop = heapq.heappush, heapq.heappop

    heap: List[Tuple[float, int, int, int]] = []
    seq = 0
    queue: deque = deque()
    arrival_time: List[float] = [0.0] * n
    # Per request: the record method of its hit class's histogram.
    record_kind: List[Any] = [None] * n
    busy = n_system = queue_peak = 0
    arrivals = completions = dropped_admission = dropped_timeout = 0
    last_t = area_system = area_busy = 0.0
    sojourn_sum = wait_sum = service_sum = 0.0
    cursor = issued = 0

    if closed:
        for _ in range(min(arrival.clients, n)):
            issued += 1
            t = float(think_rng.exponential(think)) if think > 0 else 0.0
            push(heap, (t, seq, _ARRIVE, -1))
            seq += 1
    elif n:
        push(heap, (open_times.item(0), seq, _ARRIVE, 0))
        seq += 1

    while heap:
        now, _, tag, index = pop(heap)
        # Little's-law integrals up to ``now``, before the event acts.
        dt = now - last_t
        if dt > 0:
            area_system += n_system * dt
            area_busy += busy * dt
            last_t = now
        if tag == _DONE:
            busy -= 1
            n_system -= 1
            completions += 1
            sojourn = now - arrival_time[index]
            sojourn_sum += sojourn
            record_kind[index](sojourn)
            if on_event is not None:
                on_event("done", now, index)
            released = True
            index = -1  # nothing new to start; drain the queue below
        else:
            if closed:
                index = cursor
                cursor += 1
            arrival_time[index] = now
            arrivals += 1
            if on_event is not None:
                on_event("arrival", now, index)
            if not closed and index + 1 < n:
                push(heap, (open_times.item(index + 1), seq, _ARRIVE, index + 1))
                seq += 1
            released = False
            if busy < concurrency:
                # A free server implies an empty queue: start right away.
                n_system += 1
            elif len(queue) >= queue_limit:
                dropped_admission += 1
                if on_event is not None:
                    on_event("drop_admission", now, index)
                released = True
                index = -1
            else:
                n_system += 1
                queue.append((index, now))
                if len(queue) > queue_peak:
                    queue_peak = len(queue)
                index = -1

        # Start service: the arrival that found a free server, or else
        # queued requests while servers are free.
        while True:
            if index >= 0:
                wait = 0.0
            elif queue and busy < concurrency:
                if sjf and len(queue) > 1:
                    # Shortest expected job first: peek shadow residency
                    # (read-only) for the likely kind; ties by enqueue time.
                    best_pos = 0
                    best_key: Optional[Tuple[float, float, int]] = None
                    for pos, (i, enq_t) in enumerate(queue):
                        expected = t_hit if items[i] in resident else t_hit + t_miss
                        key = (expected, enq_t, i)
                        if best_key is None or key < best_key:
                            best_key = key
                            best_pos = pos
                    index, enq_t = queue[best_pos]
                    del queue[best_pos]
                else:
                    index, enq_t = queue.popleft()
                wait = now - enq_t
                if wait > timeout:
                    dropped_timeout += 1
                    n_system -= 1
                    if on_event is not None:
                        on_event("drop_timeout", now, index)
                    index = -1
                    continue
            else:
                break
            busy += 1
            loaded_before = sim.loaded_items
            item = items[index]
            kind = access(item)
            if on_access is not None:
                on_access(index, item, kind)
            if kind is MISS:
                record_kind[index] = record_miss
                if item_weights is None:
                    loaded = sim.loaded_items - loaded_before
                    mean = t_hit + t_miss + t_item * max(0, loaded - 1)
                else:
                    # Size-aware transfer cost: weigh each side-loaded
                    # item by its (normalized) value size.
                    extra = 0.0
                    outcome = engine.last_outcome
                    if outcome is not None:
                        for loaded_item in outcome.loaded:
                            if loaded_item != item:
                                extra += float(item_weights[loaded_item])
                    mean = t_hit + t_miss + t_item * extra
            else:
                record_kind[index] = (
                    record_temporal if kind is TEMPORAL_HIT else record_spatial
                )
                mean = t_hit
            if not exponential:
                service = mean
            else:
                service = float(service_rng.exponential(mean)) if mean > 0 else 0.0
            wait_sum += wait
            record_wait(wait)
            service_sum += service
            if on_event is not None:
                on_event("start", now, index)
            push(heap, (now + service, seq, _DONE, index))
            seq += 1
            index = -1

        if closed and released and issued < n:
            issued += 1
            t = float(think_rng.exponential(think)) if think > 0 else 0.0
            push(heap, (now + t, seq, _ARRIVE, -1))
            seq += 1

    result.arrivals = arrivals
    result.completions = completions
    result.dropped_admission = dropped_admission
    result.dropped_timeout = dropped_timeout
    result.duration = last_t
    result.sojourn_sum = sojourn_sum
    result.wait_sum = wait_sum
    result.service_sum = service_sum
    result.area_in_system = area_system
    result.area_busy = area_busy
    result.queue_peak = queue_peak
    # The overall latency histogram is the bucket-wise sum of the
    # per-class ones, so each sojourn is recorded once.  Its total is
    # ``sojourn_sum``: the same values, added in the same order.
    result.latency = miss.merged_with(temporal).merged_with(spatial)
    result.latency.total = sojourn_sum


def serve_policy(
    policy: str,
    capacity: int,
    trace: Trace,
    config: Optional[ServingConfig] = None,
    **policy_kwargs: Any,
) -> ServingResult:
    """Build a registry policy and :func:`serve` the trace through it."""
    from repro.policies import make_policy

    instance = make_policy(policy, capacity, trace.mapping, **policy_kwargs)
    return serve(instance, trace, config)


def serving_cell(
    policy: str,
    capacity: int,
    trace: Trace,
    serving: Mapping[str, Any],
    **policy_kwargs: Any,
) -> Dict[str, Any]:
    """Picklable sweep worker: one (policy, capacity, trace, serving) cell.

    The serving counterpart of
    :func:`repro.analysis.sweep.simulate_cell`: ``serving`` is a plain
    config dict (:meth:`ServingConfig.as_dict` form, so it pickles and
    hashes), and the row is :meth:`ServingResult.as_row`.  Grids over
    arrival rate become grids over ``serving`` dicts.
    """
    config = ServingConfig.from_dict(serving)
    return serve_policy(
        policy, capacity, trace, config, **policy_kwargs
    ).as_row()
