"""Unit tests for the intrusive linked-list LRU."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structs.linked_lru import LinkedLRU


def test_empty_properties():
    lru = LinkedLRU()
    assert len(lru) == 0
    assert not lru
    assert 1 not in lru
    assert list(lru) == []


def test_insert_and_order_mru_first():
    lru = LinkedLRU()
    for x in (1, 2, 3):
        lru.insert_mru(x)
    assert list(lru) == [3, 2, 1]
    assert list(lru.keys_lru_to_mru()) == [1, 2, 3]
    assert lru.mru_key() == 3
    assert lru.lru_key() == 1


def test_touch_moves_to_front():
    lru = LinkedLRU()
    for x in (1, 2, 3):
        lru.insert_mru(x)
    lru.touch(1)
    assert list(lru) == [1, 3, 2]
    assert lru.lru_key() == 2


def test_demote_moves_to_back():
    lru = LinkedLRU()
    for x in (1, 2, 3):
        lru.insert_mru(x)
    lru.demote(3)
    assert lru.lru_key() == 3


def test_insert_lru_places_at_cold_end():
    lru = LinkedLRU()
    lru.insert_mru(1)
    lru.insert_lru(2)
    assert lru.lru_key() == 2


def test_pop_lru_and_mru():
    lru = LinkedLRU()
    for x in (1, 2, 3):
        lru.insert_mru(x, value=x * 10)
    assert lru.pop_lru() == (1, 10)
    assert lru.pop_mru() == (3, 30)
    assert list(lru) == [2]


def test_pop_from_empty_raises():
    lru = LinkedLRU()
    with pytest.raises(KeyError):
        lru.pop_lru()
    with pytest.raises(KeyError):
        lru.pop_mru()
    with pytest.raises(KeyError):
        lru.lru_key()
    with pytest.raises(KeyError):
        lru.mru_key()


def test_duplicate_insert_raises():
    lru = LinkedLRU()
    lru.insert_mru(1)
    with pytest.raises(KeyError):
        lru.insert_mru(1)
    with pytest.raises(KeyError):
        lru.insert_lru(1)


def test_remove_returns_value_and_unlinks():
    lru = LinkedLRU()
    for x in (1, 2, 3):
        lru.insert_mru(x, value=str(x))
    assert lru.remove(2) == "2"
    assert 2 not in lru
    assert list(lru) == [3, 1]


def test_values_and_set_value():
    lru = LinkedLRU()
    lru.insert_mru("a", value=1)
    assert lru.get("a") == 1
    lru.set_value("a", 2)
    assert lru.get("a") == 2
    assert lru.get("missing", "default") == "default"


def test_set_value_preserves_order():
    lru = LinkedLRU()
    lru.insert_mru(1)
    lru.insert_mru(2)
    lru.set_value(1, "x")
    assert list(lru) == [2, 1]


def test_clear():
    lru = LinkedLRU()
    for x in range(5):
        lru.insert_mru(x)
    lru.clear()
    assert len(lru) == 0
    lru.insert_mru(7)
    assert list(lru) == [7]


def test_single_element_edge_cases():
    lru = LinkedLRU()
    lru.insert_mru(42)
    assert lru.lru_key() == lru.mru_key() == 42
    lru.touch(42)
    assert list(lru) == [42]
    assert lru.pop_lru() == (42, None)
    assert len(lru) == 0


def test_interleaved_operations_maintain_consistency():
    lru = LinkedLRU()
    for x in range(10):
        lru.insert_mru(x)
    for x in range(0, 10, 2):
        lru.touch(x)
    for x in range(1, 10, 2):
        lru.remove(x)
    assert sorted(lru) == [0, 2, 4, 6, 8]
    assert lru.lru_key() == 0  # touched first among evens


# -- differential property test ------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 9)),
        st.tuples(st.just("touch"), st.integers(0, 9)),
        st.tuples(st.just("demote"), st.integers(0, 9)),
        st.tuples(st.just("remove"), st.integers(0, 9)),
        st.tuples(st.just("pop_lru"), st.just(0)),
        st.tuples(st.just("pop_mru"), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_matches_ordereddict_model(ops):
    """Any operation sequence matches an ``OrderedDict`` (LRU first)."""
    lru, model = LinkedLRU(), OrderedDict()
    for op, key in ops:
        if op == "insert":
            if key in lru:
                continue
            lru.insert_mru(key, key * 2)
            model[key] = key * 2
        elif op in ("touch", "demote", "remove"):
            if key not in lru:
                continue
            if op == "touch":
                lru.touch(key)
                model.move_to_end(key)
            elif op == "demote":
                lru.demote(key)
                model.move_to_end(key, last=False)
            else:
                assert lru.remove(key) == model.pop(key)
        else:
            if not lru:
                continue
            assert getattr(lru, op)() == model.popitem(last=op == "pop_mru")
        assert len(lru) == len(model)
        assert list(lru) == list(reversed(model))
        assert list(lru.keys_lru_to_mru()) == list(model)
        if lru:
            assert lru.lru_key() == next(iter(model))
            assert lru.mru_key() == next(reversed(model))
