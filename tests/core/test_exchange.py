"""Unit tests for neighbor-list exchange and consistency checking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exchange import ConsistencyTracker, ListSnapshot, NeighborListDirectory
from repro.errors import ConfigError


def test_directory_stores_latest_list():
    d = NeighborListDirectory()
    d.update("j", {"a", "b"}, now=1.0)
    d.update("j", {"c"}, now=2.0)
    assert d.known_neighbors("j") == frozenset({"c"})
    assert d.age("j", now=5.0) == 3.0


def test_republished_list_refreshes_stamp_and_keeps_claimers():
    d = NeighborListDirectory()
    for owner in ("b", "a", "c"):  # insertion order, not sorted order
        d.update(owner, {"x", owner + "'"}, now=1.0, sent_at=0.5)
    d.update("solo", {"y"}, now=1.0)
    before = {peer: d.claimers(peer) for peer in ("x", "y", "a'", "ghost")}
    assert before == {"x": ["b", "a", "c"], "y": ["solo"], "a'": ["a"], "ghost": []}
    held = d.get("a")
    assert d.update("a", frozenset({"a'", "x"}), now=9.0, sent_at=8.5)  # unchanged
    assert {peer: d.claimers(peer) for peer in before} == before
    assert d.get("a") == ListSnapshot(held.neighbors, 9.0, 8.5, held.seq)
    assert [d.get(owner).seq for owner in ("b", "a", "c", "solo")] == [0, 1, 2, 3]
    assert d.age("a", now=10.0) == 1.0
    assert d.update("a", {"x"}, now=11.0)  # changed: the index follows
    assert d.claimers("a'") == [] and d.claimers("x") == ["b", "a", "c"]


def test_list_snapshot_positional_and_keyword_forms():
    snap = ListSnapshot(neighbors=frozenset({"a"}), received_at=2.0, sent_at=None, seq=0)
    assert snap == ListSnapshot(frozenset({"a"}), 2.0, None, 0)
    assert (snap.received_at, snap.sent_at, snap.seq) == (2.0, None, 0)
    assert "owner" not in ListSnapshot._fields  # the directory's key holds it


def test_directory_unknown_owner():
    d = NeighborListDirectory()
    assert d.known_neighbors("ghost") == frozenset()
    assert d.age("ghost", 1.0) is None
    assert d.get("ghost") is None


def test_directory_forget():
    d = NeighborListDirectory()
    d.update("j", {"a"}, now=0.0)
    d.forget("j")
    assert d.get("j") is None


def test_consistency_tracker_tolerance():
    t = ConsistencyTracker(tolerance=3)
    assert not t.strike("x", "y")
    assert not t.strike("y", "x")  # pair is unordered
    assert t.strike("x", "y")  # third strike
    assert t.strikes("x", "y") == 3
    t.clear("x", "y")
    assert t.strikes("x", "y") == 0


def test_consistency_tracker_pairs_independent():
    t = ConsistencyTracker(tolerance=3)
    t.strike("x", "y")
    t.strike("x", "z")
    assert t.strikes("x", "y") == 1
    assert t.strikes("x", "z") == 1
    assert t.strikes("y", "z") == 0


def test_consistency_tracker_forgiveness():
    t = ConsistencyTracker(tolerance=3)
    t.observe_consistent("x", "y")  # nothing held: a no-op
    assert t.strikes("x", "y") == 0
    t.strike("x", "z")
    t.strike("x", "y")
    t.strike("x", "y")
    t.observe_consistent("y", "x")  # pair is unordered
    assert t.strikes("x", "y") == 0
    assert t.strikes("x", "z") == 1  # other pairs keep theirs
    assert not t.strike("x", "y")  # counter restarted


def test_consistency_tracker_validation():
    with pytest.raises(ConfigError):
        ConsistencyTracker(tolerance=0)


# The directory's reverse index against its definition, over random
# update / forget / re-publish / re-add sequences on a five-id alphabet
# (owners and claimed peers drawn from the same ids, self-claims included).
IDS = "abcde"
_lists = st.frozensets(st.sampled_from(IDS), max_size=len(IDS))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.sampled_from(IDS), _lists,
                  st.none() | st.integers(0, 3)),
        st.tuples(st.just("forget"), st.sampled_from(IDS)),
        st.tuples(st.just("republish"), st.sampled_from(IDS)),
        st.tuples(st.just("readd"), st.sampled_from(IDS), _lists),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(ops=_ops)
def test_claimer_index_matches_a_directory_scan(ops):
    d = NeighborListDirectory()
    for step, (op, owner, *args) in enumerate(ops):
        if op == "update":
            neighbors, sent_at = args
            d.update(owner, neighbors, now=float(step), sent_at=sent_at)
        elif op == "forget":
            d.forget(owner)
        elif op == "republish" and d.get(owner) is not None:
            held = d.get(owner)
            assert d.update(owner, held.neighbors, now=float(step), sent_at=held.sent_at)
            assert d.get(owner).neighbors is held.neighbors
        elif op == "readd":  # back at the end of the insertion order
            d.forget(owner)
            d.update(owner, args[0], now=float(step))
        for p in IDS:
            assert d.claimers(p) == [o for o in d.owners() if p in d.known_neighbors(o)]
        # No key outlives its last claimer.
        claimed = {p for o in d.owners() for p in d.known_neighbors(o)}
        assert set(d._claimed_by) == claimed
