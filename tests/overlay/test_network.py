"""Unit tests for the overlay network container."""

import pytest

from repro.errors import ProtocolError
from repro.overlay.ids import PeerId
from repro.overlay.network import NetworkConfig
from tests.conftest import make_network, make_topology


def test_latency_applied_per_hop(line_network):
    sim, net = line_network
    net.peers[PeerId(0)].issue_query(("nosuch", "idx"))
    sim.run(until=0.04)
    assert net.peers[PeerId(1)].counters.queries_received == 0
    sim.run(until=0.06)
    assert net.peers[PeerId(1)].counters.queries_received == 1


def test_stats_count_messages_and_bytes(line_network):
    sim, net = line_network
    net.peers[PeerId(0)].issue_query(("nosuch", "idx"))
    sim.run(until=10)
    assert net.stats.query_messages == 3  # 0->1->2->3
    assert net.stats.messages_delivered == 3
    assert net.stats.bytes_transferred > 0


def test_connect_disconnect_symmetry(line_network):
    sim, net = line_network
    net.connect(PeerId(0), PeerId(3))
    assert PeerId(3) in net.neighbors_of(PeerId(0))
    assert PeerId(0) in net.neighbors_of(PeerId(3))
    net.disconnect(PeerId(0), PeerId(3))
    assert PeerId(3) not in net.neighbors_of(PeerId(0))
    assert PeerId(0) not in net.neighbors_of(PeerId(3))


def test_connect_self_rejected(line_network):
    sim, net = line_network
    with pytest.raises(ProtocolError):
        net.connect(PeerId(0), PeerId(0))


def test_success_rate_and_response_time_empty():
    from tests.conftest import make_network

    sim, net = make_network({0: {1}})
    assert net.success_rate() == 0.0
    assert net.mean_response_time() is None


def test_minute_listener_ordering():
    sim, net = make_network({0: {1}})
    windows = []

    def listener(minute, now):
        # windows already rolled when the listener runs
        windows.append(dict(net.peers[PeerId(1)].last_minute_in))

    net.minute_listeners.append(listener)
    net.peers[PeerId(0)].issue_query(("nosuch", "idq"))
    sim.run(until=61.0)
    assert windows and windows[0][PeerId(0)] == 1


def test_minute_index_advances():
    sim, net = make_network({0: {1}})
    sim.run(until=185.0)
    assert net.minute_index == 3


def test_query_records_track_object_resolution():
    sim, net = make_network({0: {1}})
    net.peers[PeerId(0)].issue_query(net.content.keywords_for(2))
    rec = next(iter(net.query_records.values()))
    assert rec.object_id == 2
    net.peers[PeerId(0)].issue_query(("bogus", "xnope"))
    recs = list(net.query_records.values())
    assert any(r.object_id is None for r in recs)


def test_bogus_queries_never_match():
    sim, net = make_network({0: {1}})
    assert net.match_content(PeerId(1), type("Q", (), {"keywords": ("bogus", "x1n1")})()) is None


def test_bogus_keywords_resolve_to_none_without_raising():
    sim, net = make_network({0: {1}})
    assert net.content.find_object(("bogus", "x1n1")) is None
    assert net.content.find_object(net.content.keywords_for(2)) == 2


def test_neighbor_sets_hold_the_canonical_peer_ids():
    # Every id that circulates (messages, directories, route tables) comes
    # out of a neighbor set, so it must *be* the key object of net.peers:
    # dict/set probes then hit on identity and never call PeerId.__eq__.
    adjacency = {0: {1, 2, 3, 17}, 1: {4, 5, 256}, 2: {6, 7}, 3: {8, 9, 12}, 9: {40, 41}}
    sim, net = make_network(adjacency)
    canonical = {id(pid) for pid in net.peers}
    for pid, peer in net.peers.items():
        assert peer.id is pid
        assert all(id(nb) in canonical for nb in peer.neighbors)
    # Same hashes, same insertions: the iteration order (DES fan-out order,
    # replayed by des-soa) is that of a set of fresh ids built the same way.
    topo = make_topology(adjacency)
    for u, peer in enumerate(net.peers.values()):
        fresh = set()
        for v in topo.adjacency[u]:
            fresh.add(PeerId(v))
        assert [nb.value for nb in peer.neighbors] == [nb.value for nb in fresh]
    # Ids from outside the network still work, by value.
    assert net.neighbors_of(PeerId(2)) == {PeerId(0), PeerId(6), PeerId(7)}


def test_transmit_to_unknown_peer_rejected(line_network):
    sim, net = line_network
    from repro.overlay.message import Ping

    with pytest.raises(ProtocolError):
        net.transmit(PeerId(0), PeerId(99), Ping(guid=net.guid_factory.new()))


def test_network_config_validation():
    import pytest as _p

    from repro.errors import ConfigError

    with _p.raises(ConfigError):
        NetworkConfig(default_ttl=0)
    with _p.raises(ConfigError):
        NetworkConfig(hop_latency_jitter_s=-0.01)
