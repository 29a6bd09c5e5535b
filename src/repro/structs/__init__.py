"""Low-level data structures used by cache policies and profilers.

:class:`~repro.structs.linked_lru.LinkedLRU` is an intrusive doubly
linked list with a dict index; every operation is O(1) with small
constants.

:class:`~repro.structs.window_counter.SlidingWindowDistinct` supports
O(1)-amortized sliding-window distinct counting, the kernel behind the
empirical working-set functions ``f(n)`` and ``g(n)`` of the locality
model (§2, §7).  :class:`~repro.structs.clock_hand.ClockHand` backs the
CLOCK policy.
"""

from repro.structs.linked_lru import LinkedLRU
from repro.structs.window_counter import SlidingWindowDistinct, max_distinct_per_window
from repro.structs.clock_hand import ClockHand

__all__ = [
    "LinkedLRU",
    "SlidingWindowDistinct",
    "max_distinct_per_window",
    "ClockHand",
]
