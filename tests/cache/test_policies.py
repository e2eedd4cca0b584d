"""Eviction-policy invariants, unit and property-based.

The property suites drive each policy with random admit/hit sequences
and compare against simple reference models: LRU against an ordered
list, scan-resistant against the rule "scan blocks without a hit evict
before any non-scan block admitted earlier", SLRU against the rule
"a probationary block can never outlive a protected one under
probation-only pressure".
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import POLICIES, policy_names, register_policy
from repro.cache.policies import (
    LRUPolicy,
    ScanResistantPolicy,
    SegmentedLRUPolicy,
    make_policy,
)
from repro.errors import CacheError, RegistryError

# random event streams: (key, is_hit_if_possible, scan_flag)
events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.booleans(),
        st.booleans(),
    ),
    min_size=0,
    max_size=120,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(policy_names()) >= {"lru", "slru", "scan"}

    def test_lookup_by_name(self):
        assert POLICIES.get("lru") is LRUPolicy
        assert POLICIES.get("slru") is SegmentedLRUPolicy
        assert POLICIES.get("scan") is ScanResistantPolicy

    def test_unknown_name_lists_valid(self):
        with pytest.raises(RegistryError, match="lru"):
            POLICIES.get("nope")

    def test_duplicate_name_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):

            @register_policy("lru")
            class Impostor(LRUPolicy):
                pass

    def test_same_definition_reregisters_benignly(self):
        """A re-executed defining module (retried import, notebook
        cell) may re-register the identical class without error."""

        class Again(LRUPolicy):
            pass

        register_policy("rereg-demo")(Again)
        register_policy("rereg-demo")(Again)  # benign overwrite
        assert POLICIES.get("rereg-demo") is Again

    def test_make_policy_specs(self):
        """Policies come by registered name only: a class or instance
        would bypass the registry a pool's ``describe()`` names."""
        policy = make_policy("slru", 8)
        assert isinstance(policy, SegmentedLRUPolicy)
        assert policy.protected_cap == 6
        for spec in (LRUPolicy, LRUPolicy(8), 42):
            with pytest.raises(CacheError, match="registered name"):
                make_policy(spec, 8)


class TestLRU:
    def test_victim_is_least_recent(self):
        p = LRUPolicy(3)
        for k in (1, 2, 3):
            p.admit((0, k))
        p.on_hit((0, 1))  # 1 becomes most recent
        p.admit((0, 4))
        assert p.victim() == (0, 2)

    def test_discard_and_clear(self):
        p = LRUPolicy(3)
        p.admit((0, 1))
        p.discard((0, 1))
        p.discard((0, 99))  # absent is fine
        assert len(p) == 0
        p.admit((0, 2))
        p.clear()
        assert (0, 2) not in p

    def test_victim_empty_raises(self):
        with pytest.raises(CacheError):
            LRUPolicy(2).victim()

    @given(events, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_model(self, evs, capacity):
        """LRU == an ordered-list reference, event for event."""
        policy = LRUPolicy(capacity)
        model: list[tuple] = []  # index 0 = coldest
        for lbn, want_hit, _ in evs:
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


class TestScanResistant:
    def test_scan_blocks_evict_first(self):
        p = ScanResistantPolicy(4)
        p.admit((0, 1))
        p.admit((0, 2))
        p.admit((0, 10), scan=True)
        p.admit((0, 11), scan=True)
        p.admit((0, 3))
        # over capacity: the scan blocks go before 1 and 2
        assert p.victim() in {(0, 10), (0, 11)}
        assert p.victim() in {(0, 10), (0, 11)}
        assert p.victim() == (0, 1)

    def test_hit_rescues_scan_block(self):
        p = ScanResistantPolicy(3)
        p.admit((0, 1))
        p.admit((0, 10), scan=True)
        p.on_hit((0, 10))  # earned residency
        p.admit((0, 2))
        p.admit((0, 3))
        assert p.victim() == (0, 1)

    @given(events, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_nonscan_never_evicts_while_unhit_scan_resident(
        self, evs, capacity
    ):
        """A never-hit non-scan block only leaves once every never-hit
        scan block is gone — scans recycle their own frames."""
        policy = ScanResistantPolicy(capacity)
        scan_flag: dict[tuple, bool] = {}
        touched: set[tuple] = set()
        for lbn, want_hit, scan in evs:
            key = (0, lbn)
            if key in policy:
                if want_hit:
                    policy.on_hit(key)
                    touched.add(key)
                continue
            policy.admit(key, scan=scan)
            scan_flag[key] = scan
            touched.discard(key)
            while len(policy) > capacity:
                victim = policy.victim()
                if not scan_flag[victim] and victim not in touched:
                    assert not any(
                        scan_flag[k] and k not in touched
                        for k in policy.keys()
                    )


class TestSegmentedLRU:
    def test_promotion_protects(self):
        p = SegmentedLRUPolicy(4)
        p.admit((0, 1))
        p.on_hit((0, 1))  # 1 now protected
        for k in (2, 3, 4, 5, 6):
            p.admit((0, k))
            while len(p) > 4:
                v = p.victim()
                assert v != (0, 1), "protected block evicted by scan"
        assert (0, 1) in p

    def test_protected_overflow_demotes(self):
        p = SegmentedLRUPolicy(3)  # protected cap int(0.8 * 3) = 2
        for k in (1, 2, 3):
            p.admit((0, k))
            p.on_hit((0, k))
        # 1 was demoted back to probation when 3 promoted
        assert len(p) == 3
        assert p.victim() == (0, 1)

    @given(events, st.integers(min_value=2, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_victims_prefer_probation(self, evs, capacity):
        """Whenever probation is non-empty, the victim comes from it
        (protected blocks only leave when probation is exhausted)."""
        policy = SegmentedLRUPolicy(capacity)
        for lbn, want_hit, scan in evs:
            key = (0, lbn)
            if key in policy:
                if want_hit:
                    policy.on_hit(key)
                continue
            policy.admit(key, scan=scan)
            while len(policy) > capacity:
                probation = set(policy._probation)
                victim = policy.victim()
                if probation:
                    assert victim in probation
