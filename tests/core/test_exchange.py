"""Unit tests for neighbor-list exchange and consistency checking."""

import pytest

from repro.core.config import DDPoliceConfig, ExchangePolicy
from repro.core.exchange import (
    ConsistencyTracker,
    ListExchangeProtocol,
    ListSnapshot,
    NeighborListDirectory,
)
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
    assert d.get("a") == ListSnapshot("a", held.neighbors, 9.0, 8.5)
    assert d.age("a", now=10.0) == 1.0
    assert d.update("a", {"x"}, now=11.0)  # changed: the index follows
    assert d.claimers("a'") == [] and d.claimers("x") == ["b", "a", "c"]


def test_list_snapshot_positional_and_keyword_forms():
    snap = ListSnapshot(owner="j", neighbors=frozenset({"a"}), received_at=2.0)
    assert snap == ListSnapshot("j", frozenset({"a"}), 2.0, None)
    assert (snap.owner, snap.received_at, snap.sent_at) == ("j", 2.0, None)


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


def test_find_inconsistencies_detects_one_sided_claims():
    d = NeighborListDirectory()
    d.update("liar", {"victim"}, now=0.0)
    d.update("victim", set(), now=0.0)
    assert ("liar", "victim") in d.find_inconsistencies()


def test_consistent_pairs_not_flagged():
    d = NeighborListDirectory()
    d.update("a", {"b"}, now=0.0)
    d.update("b", {"a"}, now=0.0)
    assert d.find_inconsistencies() == []


def test_claims_about_unknown_peers_not_judged():
    d = NeighborListDirectory()
    d.update("a", {"mystery"}, now=0.0)
    assert d.find_inconsistencies() == []


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
    assert t.strikes_involving("x") == 2
    assert t.strikes_involving("y") == 1


def test_consistency_tracker_forgiveness():
    t = ConsistencyTracker(tolerance=3)
    t.observe_consistent("x", "y")  # nothing held: a no-op
    assert t.strikes("x", "y") == 0 and t.strikes_involving("x") == 0
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


def test_periodic_protocol_sends_on_timer_only():
    sends = []
    config = DDPoliceConfig(exchange_policy=ExchangePolicy.PERIODIC)
    proto = ListExchangeProtocol(config, lambda: sends.append(1) or 1)
    proto.on_timer_tick()
    proto.on_membership_change()
    assert len(sends) == 1
    assert proto.exchanges_sent == 1


def test_event_driven_protocol_sends_on_change_only():
    sends = []
    config = DDPoliceConfig(exchange_policy=ExchangePolicy.EVENT_DRIVEN)
    proto = ListExchangeProtocol(config, lambda: sends.append(1) or 1)
    proto.on_timer_tick()
    proto.on_membership_change()
    proto.on_membership_change()
    assert len(sends) == 2
