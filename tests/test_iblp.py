"""IBLP tests: layered semantics, ordering, duplication, degenerate splits."""

import numpy as np
import pytest

from repro.core.conformance import referee_outcomes
from repro.core.engine import simulate
from repro.core.fast import KIND_MISS, KIND_TEMPORAL, multi_policy_replay
from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.policies import IBLP, BlockFirstIBLP, BlockLRU, ItemLRU
from repro.workloads import hot_and_stream


@pytest.fixture
def mapping():
    return FixedBlockMapping(universe=128, block_size=4)


def test_default_split_is_even(mapping):
    p = IBLP(16, mapping)
    assert p.item_layer_size == 8
    assert p.block_layer_size == 8


def test_invalid_split_rejected(mapping):
    with pytest.raises(ConfigurationError):
        IBLP(16, mapping, item_layer_size=17)
    with pytest.raises(ConfigurationError):
        IBLP(16, mapping, item_layer_size=-1)


def test_full_miss_loads_item_and_block(mapping):
    p = IBLP(16, mapping, item_layer_size=8)
    out = p.access(1)
    assert not out.hit
    assert out.loaded == frozenset([0, 1, 2, 3])
    assert 1 in p.item_layer_contents()
    assert 0 in p.block_layer_blocks()


def test_block_layer_hit_promotes_item(mapping):
    p = IBLP(16, mapping, item_layer_size=8)
    p.access(1)
    out = p.access(2)  # resident via block layer only
    assert out.hit
    assert 2 in p.item_layer_contents()


def test_item_layer_hit_does_not_touch_block_lru(mapping):
    """§5.1 ordering: temporal hits must not refresh block recency."""
    p = IBLP(16, mapping, item_layer_size=8)
    p.access(0)  # block 0 in block layer, item 0 in item layer
    p.access(4)  # block 1
    # Hit item 0 repeatedly through the item layer.
    for _ in range(5):
        assert p.access(0).hit
    # Insert a third block: the LRU block must be block 0 (its recency
    # was never refreshed by the item-layer hits).
    p.access(8)
    assert 0 not in p.block_layer_blocks()
    assert 1 in p.block_layer_blocks()


def test_blockfirst_variant_reorders_on_hits(mapping):
    """The ablation variant lets hits refresh block recency."""
    p = BlockFirstIBLP(16, mapping, item_layer_size=8)
    p.access(0)
    p.access(4)
    for _ in range(5):
        assert p.access(0).hit  # refreshes block 0 here
    p.access(8)
    assert 0 in p.block_layer_blocks()
    assert 1 not in p.block_layer_blocks()


def test_duplication_is_not_double_counted(mapping):
    """An item in both layers is one resident item to the engine."""
    p = IBLP(8, mapping, item_layer_size=4)
    p.access(0)  # in both layers
    assert p.resident_items() == frozenset([0, 1, 2, 3])


def test_item_layer_eviction_keeps_block_copy_resident(mapping):
    # b = 12 holds three whole blocks, so block 0 survives while the
    # two-slot item layer evicts item 0.
    p = IBLP(14, mapping, item_layer_size=2)
    p.access(0)
    p.access(4)
    out = p.access(8)  # item layer evicts 0, but block 0 still holds it
    assert 0 not in p.item_layer_contents()
    assert p.contains(0)
    assert 0 not in out.evicted


def test_zero_block_layer_degenerates_to_item_lru(mapping):
    trace = Trace(
        np.random.default_rng(5).integers(0, 128, 2000, dtype=np.int64), mapping
    )
    iblp = simulate(IBLP(16, mapping, item_layer_size=16), trace)
    lru = simulate(ItemLRU(16, mapping), trace)
    assert iblp.misses == lru.misses


def test_zero_item_layer_behaves_like_block_cache(mapping):
    trace = Trace(np.arange(128), mapping)
    iblp = simulate(IBLP(16, mapping, item_layer_size=0), trace)
    blk = simulate(BlockLRU(16, mapping), trace)
    assert iblp.misses == blk.misses == 32


def test_scan_exploits_spatial_locality(mapping):
    trace = Trace(np.arange(128), mapping)
    res = simulate(IBLP(16, mapping), trace)
    assert res.misses == 32  # one per block via the block layer
    assert res.spatial_hits == 96


def test_beats_both_baselines_on_mixed_traffic():
    trace = hot_and_stream(
        length=40_000,
        hot_items=64,
        stream_blocks=256,
        block_size=8,
        hot_fraction=0.55,
        seed=11,
    )
    k = 256
    iblp = simulate(IBLP(k, trace.mapping), trace).misses
    item = simulate(ItemLRU(k, trace.mapping), trace).misses
    block = simulate(BlockLRU(k, trace.mapping), trace).misses
    assert iblp < item
    assert iblp < block


def test_referee_validates_iblp_extensively(mapping):
    trace = Trace(
        np.random.default_rng(9).integers(0, 128, 3000, dtype=np.int64), mapping
    )
    for split in (0, 4, 8, 12, 16):
        res = simulate(
            IBLP(16, mapping, item_layer_size=split),
            trace,
            cross_check_every=101,
        )
        assert res.accesses == 3000


def test_reset_restores_configuration(mapping):
    p = IBLP(16, mapping, item_layer_size=5)
    p.access(0)
    p.reset()
    assert p.item_layer_size == 5
    assert not p.contains(0)


def test_tiny_block_layer_trims(mapping):
    """Block layer smaller than B still includes the requested item."""
    p = IBLP(4, mapping, item_layer_size=2)  # block layer size 2 < B=4
    out = p.access(3)
    assert 3 in out.loaded
    res_items = p.resident_items()
    assert 3 in res_items


def test_spatial_hits_counted_via_engine(mapping):
    trace = Trace(np.array([0, 1, 0, 1, 2]), mapping)
    res = simulate(IBLP(8, mapping, item_layer_size=4), trace)
    assert res.misses == 1
    assert res.spatial_hits == 2  # first hits on 1 and 2
    assert res.temporal_hits == 2  # repeats of 0 and 1


@pytest.mark.parametrize("policy_cls", [IBLP, BlockFirstIBLP])
def test_item_victim_reacquired_by_block_load_is_churn(mapping, policy_cls):
    """On the third access (item 1, block 0) the item layer evicts item
    0, held by no other layer, and the block load brings it straight
    back.  That is churn: 0 is neither loaded nor evicted and keeps its
    non-pending state, so the final access to 0 is a temporal hit."""
    trace = Trace(np.array([0, 4, 1, 0]), mapping)
    ref, ref_codes = referee_outcomes(
        policy_cls(6, mapping, item_layer_size=2), trace
    )
    record = {}
    [fast] = multi_policy_replay(
        [(policy_cls.name, 6, {"item_layer_size": 2})], trace, record=record
    )
    assert ref_codes == [KIND_MISS, KIND_MISS, KIND_MISS, KIND_TEMPORAL]
    assert record[0] == ref_codes
    # Loads: {0,1,2,3}, {4,5,6,7}, then {1,2,3} (0 churns).
    # Evictions: {1,2,3}, {5,6,7}, then 4 (item-layer victim on the hit).
    assert (ref.loaded_items, ref.evicted_items) == (11, 7)
    for field in ("loaded_items", "evicted_items", "temporal_hits", "spatial_hits"):
        assert getattr(fast, field) == getattr(ref, field), field
