"""Regenerate the golden-trace regression fixtures.

Run from the repo root after an *intentional* behavior change::

    PYTHONPATH=src python tests/golden/regen.py

Each fixture is a small canonical trace plus the referee-computed
:class:`SimResult` core fields for **every registered policy** at two
capacities.  ``tests/test_golden_traces.py`` replays the traces through
the referee (all policies) and the fast kernels (supported policies)
and diffs against the stored truth, so a refactor of *either* engine
that changes behavior — or a fixture regenerated to paper over one —
shows up as a reviewable diff of these JSON files.

Randomized policies (``gcm*``, ``item-random``) are pinned by their
default seeds; the fixtures are deterministic.

``serving.json`` is written separately, only on request::

    PYTHONPATH=src python tests/golden/regen.py --serving

It pins :func:`repro.serving.serve` on two of the traces above: the
sha256 of each run's ``ServingResult.fields()`` JSON and of its
``on_event`` stream, for three policies under five serving configs
(FIFO, SJF, closed loop, MMPP with admission and timeout drops,
exponential service with ETC value sizes).
``tests/test_serving_golden.py`` replays the grid, so a refactor of the
serving loop that moves a single float or event shows up there.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.engine import simulate
from repro.core.fast import (
    FAST_POLICY_NAMES,
    MULTI_CAPACITY_POLICIES,
    multi_capacity_supported,
    multi_policy_supported,
)
from repro.core.mapping import ExplicitBlockMapping, FixedBlockMapping
from repro.core.trace import Trace
from repro.policies import make_policy, policy_names
from repro.serving import ArrivalSpec, ServiceModel, ServingConfig, serve

HERE = Path(__file__).parent
CAPACITIES = [4, 16]

#: Wider capacity family for the batched multi-capacity payload
#: (includes 6, a non-multiple of every fixture block size, to pin the
#: partial-block slot arithmetic).  Capacities a policy cannot batch on
#: a given trace (Block-LRU below its block size, or over ragged
#: blocks) are dropped per fixture; referee truth is stored for the
#: rest.
MULTI_CAPACITIES = [2, 4, 6, 8, 16, 32]

#: SimResult fields stored per (policy, capacity) cell.
FIELDS = (
    "accesses",
    "misses",
    "temporal_hits",
    "spatial_hits",
    "loaded_items",
    "evicted_items",
)


def golden_traces() -> dict:
    """The canonical fixture traces (small, seeded, diverse geometry)."""
    rng = np.random.default_rng(2022)
    scan = Trace(
        np.tile(np.arange(48, dtype=np.int64), 3), FixedBlockMapping(48, 4)
    )
    zipf = Trace(
        np.minimum((rng.zipf(1.3, 400) - 1) % 64, 63).astype(np.int64),
        FixedBlockMapping(64, 8),
    )
    walk = [0]
    for _ in range(399):
        if rng.random() < 0.8:  # stay in block, possibly another item
            walk.append((walk[-1] // 8) * 8 + int(rng.integers(8)))
        else:
            walk.append(int(rng.integers(64)))
    markov = Trace(np.asarray(walk, dtype=np.int64), FixedBlockMapping(64, 8))
    pollution = Trace(
        np.asarray(
            [x for i in range(200) for x in (0, 8 + (4 * i) % 56)],
            dtype=np.int64,
        ),
        FixedBlockMapping(64, 4),
    )
    ragged = Trace(
        rng.integers(0, 14, 300, dtype=np.int64),
        ExplicitBlockMapping.from_groups(
            [[0], [1, 2], [3, 4, 5], [6, 7, 8, 9], [10], [11, 12, 13]],
            max_block_size=4,
        ),
    )
    return {
        "scan": scan,
        "zipf": zipf,
        "markov": markov,
        "pollution": pollution,
        "ragged": ragged,
    }


def _mapping_payload(mapping) -> dict:
    if isinstance(mapping, FixedBlockMapping):
        return {
            "kind": "fixed",
            "universe": mapping.universe,
            "block_size": mapping.max_block_size,
        }
    block_ids = mapping.blocks_of(np.arange(mapping.universe, dtype=np.int64))
    return {
        "kind": "explicit",
        "block_ids": block_ids.tolist(),
        "max_block_size": mapping.max_block_size,
    }


#: Serving golden grid: trace fixture -> capacity, the policies, and the
#: configs (each one exercises a different branch of the event loop).
SERVING_TRACES = {"markov": 16, "ragged": 6}
SERVING_POLICIES = ["iblp", "item-lru", "block-lru"]


def serving_configs() -> dict:
    return {
        "fifo": ServingConfig(
            arrival=ArrivalSpec(process="poisson", rate=0.1, seed=1),
            service=ServiceModel(t_hit=1.0, t_miss=20.0, t_item=1.0),
            concurrency=2,
        ),
        "sjf": ServingConfig(
            arrival=ArrivalSpec(process="poisson", rate=0.15, seed=2),
            service=ServiceModel(t_hit=1.0, t_miss=20.0, t_item=0.5),
            concurrency=2,
            queue="sjf",
        ),
        "closed": ServingConfig(
            arrival=ArrivalSpec(process="closed", clients=3, think=5.0, seed=4),
            service=ServiceModel(t_hit=1.0, t_miss=20.0, t_item=1.0),
            concurrency=2,
        ),
        "mmpp-drops": ServingConfig(
            arrival=ArrivalSpec(
                process="mmpp", rate=0.1, mean_on=200.0, mean_off=200.0, seed=3
            ),
            service=ServiceModel(t_hit=1.0, t_miss=20.0, t_item=1.0),
            concurrency=1,
            queue_limit=3,
            timeout=30.0,
        ),
        "exp-etc": ServingConfig(
            arrival=ArrivalSpec(process="poisson", rate=0.05, seed=5),
            service=ServiceModel(
                t_hit=1.0,
                t_miss=20.0,
                t_item=2.0,
                dist="exponential",
                seed=6,
                size_dist="etc",
                size_seed=7,
            ),
            concurrency=2,
        ),
    }


def load_trace(name: str) -> Trace:
    """Rebuild a golden trace from its committed JSON fixture."""
    payload = json.loads((HERE / f"{name}.json").read_text())
    m = payload["mapping"]
    if m["kind"] == "fixed":
        mapping = FixedBlockMapping(m["universe"], m["block_size"])
    else:
        mapping = ExplicitBlockMapping(
            m["block_ids"], max_block_size=m["max_block_size"]
        )
    return Trace(np.asarray(payload["items"], dtype=np.int64), mapping)


def sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def serving_digests(policy_name: str, capacity: int, trace: Trace, config) -> dict:
    """Serve one cell; digest its result payload and its event stream."""
    events: list = []
    result = serve(
        make_policy(policy_name, capacity, trace.mapping),
        trace,
        config,
        on_event=lambda name, t, index: events.append([name, t, index]),
    )
    return {
        "fields_sha256": sha256_json(result.fields()),
        "events_sha256": sha256_json(events),
        "events": len(events),
        "completions": result.completions,
        "dropped": result.dropped,
        "misses": result.sim.misses,
        "p99": result.p99,
    }


def main_serving() -> None:
    cases = []
    for trace_name, capacity in SERVING_TRACES.items():
        trace = load_trace(trace_name)
        for policy_name in SERVING_POLICIES:
            for config_name, config in serving_configs().items():
                cases.append(
                    {
                        "trace": trace_name,
                        "capacity": capacity,
                        "policy": policy_name,
                        "config_name": config_name,
                        "config": config.as_dict(),
                        "expected": serving_digests(
                            policy_name, capacity, trace, config
                        ),
                    }
                )
    path = HERE / "serving.json"
    path.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"wrote {path} ({len(cases)} serving cases)")


def main() -> None:
    for name, trace in golden_traces().items():
        expected: dict = {}
        for policy_name in sorted(policy_names()):
            expected[policy_name] = {}
            for k in CAPACITIES:
                policy = make_policy(policy_name, k, trace.mapping)
                res = simulate(policy, trace, cross_check_every=25)
                expected[policy_name][str(k)] = {
                    f: getattr(res, f) for f in FIELDS
                }
        multi: dict = {}
        for policy_name in MULTI_CAPACITY_POLICIES:
            caps = [
                k
                for k in MULTI_CAPACITIES
                if multi_capacity_supported(policy_name, trace, [k])
            ]
            if not caps:
                multi[policy_name] = {"supported": False, "capacities": []}
                continue
            expected_mc = {}
            for k in caps:
                policy = make_policy(policy_name, k, trace.mapping)
                res = simulate(policy, trace, cross_check_every=25)
                expected_mc[str(k)] = {f: getattr(res, f) for f in FIELDS}
            multi[policy_name] = {
                "supported": True,
                "capacities": caps,
                "expected": expected_mc,
            }
        # The single-pass multi-policy engine must reproduce the stored
        # referee truth for every kernel-covered (policy, capacity) cell
        # in ONE shared traversal; the cell list is recorded (truth
        # lives in "expected") so the test replays exactly this matrix.
        multi_policy_cells = [
            [policy_name, k]
            for policy_name in sorted(FAST_POLICY_NAMES)
            for k in CAPACITIES
        ]
        assert multi_policy_supported(
            [tuple(c) for c in multi_policy_cells], trace
        ), f"golden trace {name} lost multi-policy coverage"
        payload = {
            "trace": name,
            "mapping": _mapping_payload(trace.mapping),
            "items": trace.items.tolist(),
            "capacities": CAPACITIES,
            "expected": expected,
            "multi_capacity": multi,
            "multi_policy": {"cells": multi_policy_cells},
        }
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path} ({len(trace)} accesses, "
              f"{len(expected)} policies x {len(CAPACITIES)} capacities)")


if __name__ == "__main__":
    if "--serving" in sys.argv[1:]:
        main_serving()
    else:
        main()
