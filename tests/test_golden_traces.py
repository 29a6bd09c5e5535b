"""Golden-trace regression: both engines vs committed truth.

``tests/golden/*.json`` (written by ``tests/golden/regen.py``) hold
small canonical traces with referee-computed results for every
registered policy at two capacities.  Refactors of the referee *or*
the fast kernels diff against this stored truth: a behavior change in
either engine fails here even if the two engines still agree with each
other, which closes the "both drifted together" hole a purely
differential harness leaves open.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import simulate
from repro.core.fast import fast_simulate
from repro.core.mapping import ExplicitBlockMapping, FixedBlockMapping
from repro.core.trace import Trace
from repro.policies import make_policy, policy_names

GOLDEN_DIR = Path(__file__).parent / "golden"
#: Trace fixtures only; ``serving.json`` is replayed by
#: ``tests/test_serving_golden.py``.
GOLDEN_FILES = sorted(
    p for p in GOLDEN_DIR.glob("*.json") if p.name != "serving.json"
)
FIELDS = (
    "accesses",
    "misses",
    "temporal_hits",
    "spatial_hits",
    "loaded_items",
    "evicted_items",
)


def _load(path: Path):
    payload = json.loads(path.read_text())
    m = payload["mapping"]
    if m["kind"] == "fixed":
        mapping = FixedBlockMapping(m["universe"], m["block_size"])
    else:
        mapping = ExplicitBlockMapping(
            m["block_ids"], max_block_size=m["max_block_size"]
        )
    trace = Trace(np.asarray(payload["items"], dtype=np.int64), mapping)
    return trace, payload


def test_golden_fixtures_exist_and_cover_the_registry():
    assert len(GOLDEN_FILES) >= 4
    for path in GOLDEN_FILES:
        _, payload = _load(path)
        assert sorted(payload["expected"]) == sorted(policy_names()), (
            f"{path.name} is stale: regenerate with "
            "`PYTHONPATH=src python tests/golden/regen.py` and review the diff"
        )
        assert "multi_capacity" in payload, (
            f"{path.name} predates the batched-replay payload: regenerate "
            "with `PYTHONPATH=src python tests/golden/regen.py`"
        )


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_referee_matches_golden(path):
    trace, payload = _load(path)
    mismatches = []
    for policy_name, by_capacity in payload["expected"].items():
        for k_str, want in by_capacity.items():
            res = simulate(
                make_policy(policy_name, int(k_str), trace.mapping),
                trace,
                cross_check_every=25,
            )
            got = {f: getattr(res, f) for f in FIELDS}
            if got != want:
                mismatches.append(f"{policy_name}/k={k_str}: {want} -> {got}")
    assert not mismatches, "referee drifted from golden truth:\n" + "\n".join(
        mismatches
    )


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_fast_kernels_match_golden(path):
    trace, payload = _load(path)
    mismatches = []
    checked = 0
    for policy_name, by_capacity in payload["expected"].items():
        for k_str, want in by_capacity.items():
            res = fast_simulate(
                make_policy(policy_name, int(k_str), trace.mapping), trace
            )
            if res is None:  # no kernel for this policy
                continue
            checked += 1
            got = {f: getattr(res, f) for f in FIELDS}
            if got != want:
                mismatches.append(f"{policy_name}/k={k_str}: {want} -> {got}")
    assert checked > 0  # the kernel set must intersect the registry
    assert not mismatches, "fast kernels drifted from golden truth:\n" + "\n".join(
        mismatches
    )


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_multi_capacity_replay_matches_golden(path):
    """One batched replay per policy reproduces the stored referee truth."""
    from repro.core.fast import multi_capacity_replay, multi_capacity_supported

    trace, payload = _load(path)
    mismatches = []
    checked = 0
    for policy_name, entry in payload["multi_capacity"].items():
        if not entry["supported"]:
            # The fixture says no capacity batches here (e.g. Block-LRU
            # over ragged blocks); the kernel must agree, not guess.
            assert not multi_capacity_supported(policy_name, trace, [4, 16])
            continue
        caps = entry["capacities"]
        assert multi_capacity_supported(policy_name, trace, caps)
        results = multi_capacity_replay(policy_name, trace, caps)
        for k in caps:
            want = entry["expected"][str(k)]
            got = {f: getattr(results[k], f) for f in FIELDS}
            checked += 1
            if got != want:
                mismatches.append(f"{policy_name}/k={k}: {want} -> {got}")
    assert checked > 0
    assert not mismatches, (
        "batched multi-capacity replay drifted from golden truth:\n"
        + "\n".join(mismatches)
    )


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_multi_policy_replay_matches_golden(path):
    """ONE shared traversal reproduces the stored referee truth for the
    whole kernel-covered policy matrix — the single-pass engine cannot
    drift even if per-cell ``fast_simulate`` stays correct."""
    from repro.core.fast import multi_policy_replay, multi_policy_supported

    trace, payload = _load(path)
    assert "multi_policy" in payload, (
        f"{path.name} predates the multi-policy payload: regenerate "
        "with `PYTHONPATH=src python tests/golden/regen.py`"
    )
    cells = [tuple(c) for c in payload["multi_policy"]["cells"]]
    assert len(cells) >= 2
    assert multi_policy_supported(cells, trace)
    results = multi_policy_replay(cells, trace)
    mismatches = []
    for (policy_name, k), res in zip(cells, results):
        want = payload["expected"][policy_name][str(k)]
        got = {f: getattr(res, f) for f in FIELDS}
        if got != want:
            mismatches.append(f"{policy_name}/k={k}: {want} -> {got}")
    assert not mismatches, (
        "single-pass multi-policy replay drifted from golden truth:\n"
        + "\n".join(mismatches)
    )
