"""The pool's eviction order, unit and property-based.

The property suite drives LRU with random admit/hit sequences and
compares it against a simple reference model, an ordered list.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.policies import LRUPolicy
from repro.errors import CacheError

# random event streams: (key, is_hit_if_possible)
events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.booleans(),
    ),
    min_size=0,
    max_size=120,
)


class TestLRU:
    def test_victim_is_least_recent(self):
        p = LRUPolicy()
        for k in (1, 2, 3):
            p.admit((0, k))
        p.on_hit((0, 1))  # 1 becomes most recent
        p.admit((0, 4))
        assert p.victim() == (0, 2)

    def test_discard_and_clear(self):
        p = LRUPolicy()
        p.admit((0, 1))
        p.discard((0, 1))
        p.discard((0, 99))  # absent is fine
        assert len(p) == 0
        p.admit((0, 2))
        p.clear()
        assert (0, 2) not in p

    def test_victim_empty_raises(self):
        with pytest.raises(CacheError):
            LRUPolicy().victim()

    @given(events, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_model(self, evs, capacity):
        """LRU == an ordered-list reference, event for event."""
        policy = LRUPolicy()
        model: list[tuple] = []  # index 0 = coldest
        for lbn, want_hit in evs:
            key = (0, lbn)
            if key in policy:
                assert key in model
                if want_hit:
                    policy.on_hit(key)
                    model.remove(key)
                    model.append(key)
                continue
            assert key not in model
            policy.admit(key)
            model.append(key)
            while len(policy) > capacity:
                assert policy.victim() == model.pop(0)
        assert tuple(model) == policy.keys()
