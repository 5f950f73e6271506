"""Edge-case tests for the peer's bounded GUID caches."""

import pytest

from repro.errors import ConfigError
from repro.overlay.ids import PeerId
from repro.overlay.message import QueryHit
from repro.overlay.network import NetworkConfig
from tests.conftest import make_network

#: Shrunk LRU limit so eviction is observable -- a first-class config
#: knob now, not a monkeypatched module constant.
SMALL = NetworkConfig(hop_latency_jitter_s=0.0, seed=0, seen_cache_limit=5)


def test_seen_cache_limit_validated():
    with pytest.raises(ConfigError):
        NetworkConfig(seen_cache_limit=0)
    with pytest.raises(ConfigError):
        NetworkConfig(seen_cache_limit=-3)


def test_seen_cache_evicts_oldest():
    sim, net = make_network({0: {1}}, config=SMALL)
    p1 = net.peers[PeerId(1)]
    guids = []
    for i in range(8):
        guids.append(net.peers[PeerId(0)].issue_query(("nosuch", f"id90{i}")))
        sim.run(until=(i + 1) * 0.2)
    # the oldest GUIDs were evicted; the most recent are retained
    assert not p1.has_seen(guids[0])
    assert p1.has_seen(guids[-1])


def test_evicted_guid_treated_as_novel_again():
    """After eviction, a replayed GUID is processed as new -- the
    documented memory/precision tradeoff of bounded dup tables."""
    sim, net = make_network({0: {1}}, config=SMALL)
    p0, p1 = net.peers[PeerId(0)], net.peers[PeerId(1)]
    first = p0.issue_query(("nosuch", "id900"))
    sim.run(until=0.2)
    assert p1.counters.queries_dropped_duplicate == 0
    for i in range(7):  # push `first` out of peer 1's cache
        p0.issue_query(("nosuch", f"id91{i}"))
    sim.run(until=1.0)
    # replaying the evicted GUID: peer 1 no longer recognizes it
    from repro.overlay.message import Query

    replay = Query(guid=first, ttl=3, hops=0, keywords=("nosuch", "id900"))
    p0._send(PeerId(1), replay)
    before = p1.counters.queries_dropped_duplicate
    sim.run(until=2.0)
    assert p1.counters.queries_dropped_duplicate == before


def test_offline_clears_caches():
    sim, net = make_network({0: {1}})
    p1 = net.peers[PeerId(1)]
    guid = net.peers[PeerId(0)].issue_query(("nosuch", "id900"))
    sim.run(until=0.5)
    assert p1.has_seen(guid)
    p1.go_offline()
    assert not p1.has_seen(guid)
    assert p1.neighbors == set()


def test_a_route_leaves_with_its_guid():
    """One table holds a GUID and its reverse route: a QueryHit goes back
    while peer 1 holds the GUID, and is unroutable once peer 1's own
    issues have evicted it (a separate route table would still route)."""
    sim, net = make_network({0: {1}, 1: {0, 2}, 2: {1}}, config=SMALL)
    p1, p2 = net.peers[PeerId(1)], net.peers[PeerId(2)]
    guid = net.peers[PeerId(0)].issue_query(("nosuch", "id900"))
    sim.run(until=0.5)

    def answer(until):
        hit = QueryHit(
            guid=net.guid_factory.new(), ttl=2, hops=0, responder=p2.id,
            query_guid=guid,
        )
        p2._send(p1.id, hit)
        sim.run(until=until)

    answer(until=1.0)
    assert (p1.counters.hits_routed, p1.counters.hits_dropped_no_route) == (1, 0)
    for i in range(SMALL.seen_cache_limit):
        p1.issue_query(("nosuch", f"id91{i}"))
    sim.run(until=1.5)
    assert not p1.has_seen(guid)
    answer(until=2.0)
    assert (p1.counters.hits_routed, p1.counters.hits_dropped_no_route) == (1, 1)


def test_bytes_counters_track_both_directions():
    sim, net = make_network({0: {1}})
    p0, p1 = net.peers[PeerId(0)], net.peers[PeerId(1)]
    p0.issue_query(("nosuch", "id900"))
    sim.run(until=0.5)
    one_way = net.stats.bytes_transferred
    assert one_way > 0
    p1.issue_query(("nosuch", "id900"))
    sim.run(until=1.0)
    assert net.stats.bytes_transferred == 2 * one_way
