"""Golden serving payloads: ``serve()`` vs committed digests.

``tests/golden/serving.json`` (written by ``tests/golden/regen.py
--serving``) pins 30 serving runs: two golden traces (fixed-block
Markov and ragged explicit blocks) × three policies × five configs
that between them take every branch of the event loop — FIFO and SJF
queues, closed-loop clients, MMPP bursts with admission and timeout
drops, exponential service with ETC value sizes.  Each case stores the
sha256 of the run's ``ServingResult.fields()`` JSON and of its
``on_event`` stream, so a loop refactor that reorders one float
addition or one same-time event fails here.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.mapping import ExplicitBlockMapping, FixedBlockMapping
from repro.core.trace import Trace
from repro.policies import make_policy
from repro.serving import ServingConfig, serve

GOLDEN_DIR = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN_DIR / "serving.json").read_text())["cases"]


def _load_trace(name: str) -> Trace:
    payload = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    m = payload["mapping"]
    if m["kind"] == "fixed":
        mapping = FixedBlockMapping(m["universe"], m["block_size"])
    else:
        mapping = ExplicitBlockMapping(
            m["block_ids"], max_block_size=m["max_block_size"]
        )
    return Trace(np.asarray(payload["items"], dtype=np.int64), mapping)


def _sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_grid_covers_both_traces_and_every_config():
    assert len(CASES) == 30
    assert {c["trace"] for c in CASES} == {"markov", "ragged"}
    assert {c["config_name"] for c in CASES} == {
        "fifo",
        "sjf",
        "closed",
        "mmpp-drops",
        "exp-etc",
    }
    # The drop config must actually drop, or it pins nothing.
    assert all(
        c["expected"]["dropped"] > 0 for c in CASES if c["config_name"] == "mmpp-drops"
    )


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=lambda c: f"{c['trace']}-{c['policy']}-{c['config_name']}",
)
def test_serve_matches_golden(case):
    trace = _load_trace(case["trace"])
    events = []
    result = serve(
        make_policy(case["policy"], case["capacity"], trace.mapping),
        trace,
        ServingConfig.from_dict(case["config"]),
        on_event=lambda name, t, index: events.append([name, t, index]),
    )
    want = case["expected"]
    got = {
        "fields_sha256": _sha256_json(result.fields()),
        "events_sha256": _sha256_json(events),
        "events": len(events),
        "completions": result.completions,
        "dropped": result.dropped,
        "misses": result.sim.misses,
        "p99": result.p99,
    }
    assert got == want
