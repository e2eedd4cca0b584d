"""Hypothesis property suites for replica-placement invariants.

The contracts the replica layer leans on:

* the placement puts a chunk's k copies on k *distinct*, in-range
  disks with copy 0 pinned to the shard map's primary;
* ``rotated`` keeps per-disk primary+replica load within one copy of
  balanced whenever the primaries are balanced — and *exactly* balanced
  (hence trivially within-1) when the chunk count divides evenly over
  the disks, mirroring the divisibility caveat of the disk-modulo
  property in the shard suite;
* any single-disk failure leaves every chunk readable for k >= 2 (the
  availability guarantee degraded mode builds on).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replica import ReplicaMap
from repro.shard import ShardMap


@st.composite
def maps_and_k(draw):
    """A shard map plus a legal k (chunking along the last axis)."""
    n_disks = draw(st.integers(1, 5))
    k = draw(st.integers(1, n_disks))
    n_chunks = draw(st.integers(1, 24))
    head = draw(st.integers(1, 12))
    strategy = draw(st.sampled_from(["round_robin", "disk_modulo"]))
    sm = ShardMap.build(
        (head, n_chunks), n_disks, strategy, chunk_shape=(head, 1)
    )
    return sm, k


@settings(max_examples=80, deadline=None)
@given(data=maps_and_k())
def test_k_distinct_in_range_primary_pinned(data):
    sm, k = data
    rm = ReplicaMap.build(sm, k)
    assert rm.disks.shape == (sm.n_chunks, k)
    assert rm.disks.min() >= 0 and rm.disks.max() < sm.n_disks
    primaries = np.asarray([c.disk for c in sm.chunks])
    np.testing.assert_array_equal(rm.disks[:, 0], primaries)
    for row in rm.disks:
        assert len(set(row.tolist())) == k


@settings(max_examples=80, deadline=None)
@given(n_disks=st.integers(1, 5), mult=st.integers(1, 6),
       head=st.integers(1, 8), k=st.integers(1, 5))
def test_rotated_divisible_load_exactly_balanced(n_disks, mult, head, k):
    """n_chunks % n_disks == 0 with round-robin primaries: every disk
    carries exactly k * n_chunks / n_disks copies (within-1 holds with
    zero slack)."""
    k = min(k, n_disks)
    n_chunks = n_disks * mult
    sm = ShardMap.build(
        (head, n_chunks), n_disks, "round_robin", chunk_shape=(head, 1)
    )
    rm = ReplicaMap.build(sm, k)
    counts = rm.copy_counts()
    assert max(counts) - min(counts) <= 1
    assert max(counts) == min(counts) == k * mult


@settings(max_examples=80, deadline=None)
@given(data=maps_and_k())
def test_single_failure_leaves_every_chunk_readable(data):
    sm, k = data
    if k < 2:
        return  # one copy cannot survive a failure by construction
    rm = ReplicaMap.build(sm, k)
    for dead in range(sm.n_disks):
        assert rm.readable_fraction({dead}) == 1.0
        for i in range(sm.n_chunks):
            live = rm.live_copies(i, {dead})
            assert live, f"chunk {i} unreadable after disk {dead}"


@settings(max_examples=60, deadline=None)
@given(data=maps_and_k())
def test_copy_counts_conserve_total(data):
    sm, k = data
    rm = ReplicaMap.build(sm, k)
    assert sum(rm.copy_counts()) == sm.n_chunks * k
    # copies_on_disk partitions the copy set
    total = sum(len(rm.copies_on_disk(d)) for d in range(sm.n_disks))
    assert total == sm.n_chunks * k
