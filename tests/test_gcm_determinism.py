"""Seeded-RNG determinism of the GCM kernel family.

The paper's headline policy (GCM) is randomized; its fast kernels
reproduce the referee's PCG64 draw sequence *exactly* (same
``default_rng(seed)``, same ``integers``/``shuffle`` call order), so a
seeded run is one deterministic computation no matter which engine —
or how many processes — executes it.  These tests regression-pin that
contract:

* referee vs kernel bit-identity across a seed grid for every GCM
  variant (aggregates and the per-access outcome stream);
* the same seed always reproduces the same result, and different
  seeds genuinely diverge (the seed is actually plumbed through);
* ``multi_policy_replay`` keeps each seeded cell's generator in its
  own kernel closure — chunked traversal and cell order cannot
  perturb the draw sequence;
* a parallel sweep (``REPRO_JOBS`` workers) over seeded GCM cells is
  bit-identical to the serial sweep;
* the kernels' sorted candidate list survives chunk boundaries: sparse
  ids from a 2^20-item universe, any chunk size, and a phase end placed
  right at a chunk boundary all replay bit-identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conformance import (
    RESULT_FIELDS,
    assert_conformant,
    referee_outcomes,
)
from repro.core.engine import simulate
from repro.core.fast import fast_simulate, multi_policy_replay
from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace
from repro.policies import make_policy
from repro.workloads import hot_and_stream, zipf_items

GCM_VARIANTS = ("gcm", "gcm-markall", "gcm-partial")
SEEDS = (0, 1, 7, 42, 1234)


@pytest.fixture(scope="module")
def trace():
    return zipf_items(2500, universe=96, alpha=1.0, block_size=8, seed=21)


@pytest.fixture(scope="module")
def spatial_trace():
    return hot_and_stream(2500, hot_items=24, stream_blocks=24, block_size=8, seed=22)


@pytest.mark.parametrize("policy", GCM_VARIANTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_referee_and_kernel_agree_for_every_seed(policy, seed, trace):
    assert_conformant(policy, 24, trace, seed=seed)


@pytest.mark.parametrize("policy", GCM_VARIANTS)
def test_same_seed_reproduces_different_seeds_diverge(policy, spatial_trace):
    def run(seed):
        return fast_simulate(
            make_policy(policy, 16, spatial_trace.mapping, seed=seed),
            spatial_trace,
        )

    assert run(3) == run(3)
    # At least one other seed must change the outcome — a kernel that
    # ignored the seed would pass the per-seed conformance grid (the
    # referee run would drift identically) yet fail here.
    baseline = run(3)
    assert any(run(s).misses != baseline.misses for s in (5, 11, 29, 61)), (
        f"{policy}: seeds 5/11/29/61 all reproduced seed 3's miss count; "
        "is the seed actually reaching the RNG?"
    )


def test_multi_policy_replay_preserves_seeded_streams(trace):
    """Seeded cells in one shared traversal match their solo replays,
    regardless of chunking or which other cells ride along."""
    cells = [
        ("gcm", 24, {"seed": 5}),
        ("item-lru", 24),
        ("gcm-markall", 24, {"seed": 5}),
        ("gcm", 24, {"seed": 9}),
        ("item-random", 24, {"seed": 5}),
        ("gcm-partial", 24, {"load_count": 3, "seed": 5}),
    ]
    batched = multi_policy_replay(cells, trace)
    chunked = multi_policy_replay(cells, trace, chunk=101)
    for cell, got, got_chunked in zip(cells, batched, chunked):
        name, cap = cell[0], cell[1]
        kwargs = cell[2] if len(cell) == 3 else {}
        solo = simulate(
            make_policy(name, cap, trace.mapping, **kwargs), trace
        )
        assert got == solo, cell
        assert got_chunked == solo, cell


def test_parallel_sweep_is_bit_identical_for_seeded_gcm(
    trace, monkeypatch
):
    """REPRO_JOBS workers replay seeded GCM cells exactly like serial.

    Each worker builds its own policy instance and RNG from the cell's
    seed, so process boundaries cannot leak generator state between
    cells; rows must match the serial sweep bit for bit.
    """
    from repro.analysis.sweep import grid, simulate_cell, sweep

    cells = grid(
        policy=list(GCM_VARIANTS),
        capacity=[8, 24],
        trace=[trace],
        seed=[0, 7],
    )
    serial = sweep(simulate_cell, cells)
    monkeypatch.setenv("REPRO_JOBS", "3")
    parallel = sweep(simulate_cell, cells, parallel=True)
    assert len(serial) == len(parallel) == len(cells)
    for row_s, row_p in zip(serial, parallel):
        for key in ("policy", "capacity", "seed", "misses",
                    "temporal_hits", "spatial_hits", "miss_ratio"):
            assert row_s[key] == row_p[key], (key, row_s, row_p)


# -- sorted candidate list across chunk boundaries ---------------------------
SPARSE_UNIVERSE = 1 << 20


def _assert_chunked_replay_matches_referee(cells, trace, chunk):
    """One chunked ``multi_policy_replay`` vs per-cell referee runs:
    every result field and the per-access outcome stream."""
    record = {}
    results = multi_policy_replay(cells, trace, record=record, chunk=chunk)
    for i, (name, cap, kwargs) in enumerate(cells):
        policy = make_policy(name, cap, trace.mapping, **kwargs)
        ref, ref_codes = referee_outcomes(policy, trace)
        for field in RESULT_FIELDS:
            assert getattr(results[i], field) == getattr(ref, field), (
                cells[i], chunk, field
            )
        assert record[i] == ref_codes, (cells[i], chunk)


@st.composite
def _sparse_gcm_case(draw):
    B = draw(st.sampled_from([2, 4, 8]))
    blocks = draw(
        st.lists(
            st.integers(0, SPARSE_UNIVERSE // B - 1),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    accesses = draw(
        st.lists(
            st.tuples(st.sampled_from(blocks), st.integers(0, B - 1)),
            min_size=40,
            max_size=200,
        )
    )
    items = np.array([b * B + off for b, off in accesses], dtype=np.int64)
    mapping = FixedBlockMapping(universe=SPARSE_UNIVERSE, block_size=B)
    k = draw(st.integers(1, 2 * B))
    seed = draw(st.integers(0, 2**16))
    cells = [
        ("gcm", k, {"seed": seed}),
        ("gcm-markall", k, {"seed": seed}),
        ("gcm-partial", k, {"load_count": 1, "seed": seed}),
        ("gcm-partial", k, {"load_count": draw(st.integers(2, B)), "seed": seed}),
    ]
    return Trace(items, mapping), cells, draw(st.integers(1, 64))


@settings(max_examples=60, deadline=None)
@given(_sparse_gcm_case())
def test_chunked_sparse_replay_is_bit_identical(case):
    trace, cells, chunk = case
    _assert_chunked_replay_matches_referee(cells, trace, chunk)


def _phase_ends(name, capacity, trace, **kwargs):
    """Positions where the referee ends a marking phase: a miss on a
    full cache whose residents are all marked."""
    policy = make_policy(name, capacity, trace.mapping, **kwargs)
    ends = []
    for pos, item in enumerate(trace.items.tolist()):
        resident = policy.resident_items()
        if (
            item not in resident
            and len(resident) >= capacity
            and resident <= policy.marked_items()
        ):
            ends.append(pos)
        policy.access(item)
    return ends


@pytest.mark.parametrize("policy", GCM_VARIANTS)
def test_phase_end_on_chunk_boundary(policy):
    """A phase end re-sorts the whole candidate list; the rebuilt list
    must carry into the next chunk.  Place the phase-ending access
    first in a chunk and last in a chunk."""
    B, k = 4, 6
    gen = np.random.default_rng(5)
    blocks = gen.choice(SPARSE_UNIVERSE // B, size=5, replace=False)
    items = blocks[gen.integers(0, 5, size=300)] * B + gen.integers(0, B, size=300)
    trace = Trace(items, FixedBlockMapping(universe=SPARSE_UNIVERSE, block_size=B))
    kwargs = {"seed": 3}
    if policy == "gcm-partial":
        kwargs["load_count"] = 2
    ends = [p for p in _phase_ends(policy, k, trace, **kwargs) if 1 < p < 250]
    assert ends, "trace must end a phase mid-stream"
    for chunk in (ends[0], ends[0] + 1):
        _assert_chunked_replay_matches_referee(
            [(policy, k, kwargs)], trace, chunk
        )
