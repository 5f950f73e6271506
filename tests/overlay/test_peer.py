"""Unit tests for the message-level peer: flooding, dedup, reverse path."""

import pytest

from repro.errors import ProtocolError
from repro.overlay.ids import PeerId
from repro.overlay.message import Bye, Ping
from tests.conftest import make_network


def run(sim, seconds=10.0):
    sim.run(until=seconds)


def kw(net, obj=0):
    return net.content.keywords_for(obj)


def test_flood_reaches_all_nodes(line_network):
    sim, net = line_network
    origin = net.peers[PeerId(0)]
    origin.issue_query(("nosuch", "id999999"))
    run(sim)
    # every other peer received the query exactly once
    for i in (1, 2, 3):
        assert net.peers[PeerId(i)].counters.queries_received >= 1


def test_ttl_limits_flood_depth():
    from tests.conftest import make_network

    sim, net = make_network({i: {i + 1} for i in range(5)})  # 0-1-2-3-4-5
    net.peers[PeerId(0)].issue_query(("nosuch", "idx"), ttl=2)
    run(sim)
    assert net.peers[PeerId(1)].counters.queries_received == 1
    assert net.peers[PeerId(2)].counters.queries_received == 1
    assert net.peers[PeerId(3)].counters.queries_received == 0


def test_duplicate_suppression_in_cycle():
    # triangle: each peer sees the query once and drops duplicates
    sim, net = make_network({0: {1, 2}, 1: {2}})
    net.peers[PeerId(0)].issue_query(("nosuch", "idx"))
    run(sim)
    p1, p2 = net.peers[PeerId(1)], net.peers[PeerId(2)]
    assert p1.counters.queries_received == 2  # from 0 and from 2
    assert p1.counters.queries_dropped_duplicate == 1
    assert p2.counters.queries_dropped_duplicate == 1


def test_query_hit_routed_back_on_reverse_path(line_network):
    sim, net = line_network
    # place the object at peer 3 and query from peer 0
    obj = 0
    net.content.replica_holders[obj] = {3}
    net.content.peer_objects = {3: {obj}}
    net.peers[PeerId(0)].issue_query(kw(net, obj))
    run(sim)
    assert net.success_rate() == 1.0
    rec = next(iter(net.query_records.values()))
    assert rec.responses == 1
    assert rec.response_time == pytest.approx(6 * 0.05, rel=0.01)  # 3 hops each way


def test_own_object_not_counted_as_remote_hit(star_network):
    sim, net = star_network
    obj = 0
    net.content.replica_holders[obj] = {0}
    net.content.peer_objects = {0: {obj}}
    net.peers[PeerId(0)].issue_query(kw(net, obj))
    run(sim)
    # nobody else has it; the issuing peer doesn't respond to itself
    assert net.success_rate() == 0.0


def test_multiple_replicas_first_response_wins():
    sim, net = make_network({0: {1, 2}, 1: {3}, 2: {3}})
    obj = 0
    net.content.replica_holders[obj] = {1, 3}
    net.content.peer_objects = {1: {obj}, 3: {obj}}
    net.peers[PeerId(0)].issue_query(kw(net, obj))
    run(sim)
    rec = next(iter(net.query_records.values()))
    assert rec.responses >= 1
    # first responder is the 1-hop replica
    assert rec.response_time == pytest.approx(2 * 0.05, rel=0.01)


def test_capacity_exhaustion_drops_queries(star_network):
    sim, net = star_network
    center = net.peers[PeerId(0)]
    # tiny capacity: 60/min = 1/s, burst 1
    center.processing.rate_per_min = 60.0
    center.processing.burst = 1.0
    center.processing._tokens = 1.0
    leaf = net.peers[PeerId(1)]
    for i in range(20):
        leaf.issue_query(("nosuch", f"id90{i}"))
    run(sim, 2.0)
    assert center.counters.queries_dropped_capacity > 0
    assert net.stats.queries_dropped_capacity > 0


def test_offline_peer_ignores_messages(line_network):
    sim, net = line_network
    net.peers[PeerId(1)].go_offline()
    net.peers[PeerId(0)].issue_query(("nosuch", "idx"))
    run(sim)
    assert net.peers[PeerId(2)].counters.queries_received == 0


def test_offline_peer_cannot_issue(line_network):
    sim, net = line_network
    net.peers[PeerId(0)].go_offline()
    with pytest.raises(ProtocolError):
        net.peers[PeerId(0)].issue_query(("x",))


def test_originate_query_to_single_neighbor():
    """The Figure 1 attack pattern: different queries per neighbor."""
    sim, net = make_network({0: {1, 2}, 1: {3}, 2: {3}})
    attacker = net.peers[PeerId(0)]
    attacker.originate_query_to(PeerId(1), ("nosuch", "id901"))
    attacker.originate_query_to(PeerId(2), ("nosuch", "id902"))
    run(sim)
    # each branch gets its own query directly plus the other one looped
    # around the diamond (distinct GUIDs are never suppressed)
    assert net.peers[PeerId(1)].counters.queries_received == 2
    assert net.peers[PeerId(2)].counters.queries_received == 2
    assert net.peers[PeerId(3)].counters.queries_received == 2
    assert attacker.counters.queries_issued == 2


def test_originate_query_to_non_neighbor_rejected(line_network):
    sim, net = line_network
    with pytest.raises(ProtocolError):
        net.peers[PeerId(0)].originate_query_to(PeerId(3), ("x",))


def test_minute_window_counters(line_network):
    sim, net = line_network
    p0, p1 = net.peers[PeerId(0)], net.peers[PeerId(1)]
    p0.issue_query(("nosuch", "idq1"))
    p0.issue_query(("nosuch", "idq2"))
    run(sim, 61.0)
    assert p1.last_minute_in[PeerId(0)] == 2
    assert p0.last_minute_out[PeerId(1)] == 2
    # windows were reset after the roll
    assert p0.out_query_window[PeerId(1)] == 0


def test_ping_answered_with_pong(line_network):
    sim, net = line_network
    p0 = net.peers[PeerId(0)]
    pongs = []
    p0.control_handlers.append(lambda src, m: pongs.append((src, m)))
    p0.send_control(PeerId(1), Ping(guid=net.guid_factory.new(), ttl=1))
    run(sim)
    assert len(pongs) == 1
    assert pongs[0][0] == PeerId(1)


def test_disconnect_listeners_fire(line_network):
    sim, net = line_network
    events = []
    net.peers[PeerId(1)].disconnect_listeners.append(
        lambda nb, code: events.append((nb, code))
    )
    net.disconnect(PeerId(0), PeerId(1), reason_code=Bye.REASON_DDOS_SUSPECT)
    assert events == [(PeerId(0), Bye.REASON_DDOS_SUSPECT)]


def test_connect_listeners_fire(line_network):
    sim, net = line_network
    events = []
    net.peers[PeerId(0)].connect_listeners.append(events.append)
    net.connect(PeerId(0), PeerId(2))
    assert events == [PeerId(2)]


def test_self_neighbor_rejected(line_network):
    sim, net = line_network
    with pytest.raises(ProtocolError):
        net.peers[PeerId(0)].add_neighbor(PeerId(0))


def test_forward_filter_can_veto(star_network):
    sim, net = star_network
    center = net.peers[PeerId(0)]
    center.forward_filters.append(lambda q, targets: [])
    net.peers[PeerId(1)].issue_query(("nosuch", "idz"))
    run(sim)
    # center received but forwarded nothing
    assert net.peers[PeerId(2)].counters.queries_received == 0
    assert center.counters.queries_forwarded == 0


def test_go_offline_clears_last_minute_snapshots(line_network):
    sim, net = line_network
    p0, p1 = net.peers[PeerId(0)], net.peers[PeerId(1)]
    p0.issue_query(("nosuch", "idq1"))
    run(sim, 61.0)  # one roll: snapshots populated
    assert p1.last_minute_in[PeerId(0)] == 1
    p1.go_offline()
    # the snapshots describe connections that no longer exist; a
    # rejoining peer must not report pre-departure traffic to DD-POLICE
    assert p1.last_minute_in == {}
    assert p1.last_minute_out == {}


def test_churn_round_trip_snapshots_only_cover_current_session(line_network):
    sim, net = line_network
    p0, p1 = net.peers[PeerId(0)], net.peers[PeerId(1)]
    p0.issue_query(("nosuch", "idq1"))
    p0.issue_query(("nosuch", "idq2"))
    run(sim, 61.0)
    assert p1.last_minute_in[PeerId(0)] == 2
    p1.go_offline()
    p1.go_online()
    p1.add_neighbor(PeerId(0))
    p1.add_neighbor(PeerId(2))
    run(sim, 121.0)  # next roll, no traffic in the new session
    assert p1.last_minute_in == {PeerId(0): 0, PeerId(2): 0}
    assert p1.last_minute_out == {PeerId(0): 0, PeerId(2): 0}


def test_in_flight_query_cannot_resurrect_removed_counter(line_network):
    sim, net = line_network
    p0, p1 = net.peers[PeerId(0)], net.peers[PeerId(1)]
    p0.issue_query(("nosuch", "idz"))  # delivery is in flight (hop latency)
    p1.remove_neighbor(PeerId(0))
    assert PeerId(0) not in p1.in_query_window
    run(sim)
    # the late arrival was processed but must not recreate the counter
    # key: DD-POLICE would otherwise report traffic for a connection the
    # peer already tore down
    assert p1.counters.queries_received == 1
    assert PeerId(0) not in p1.in_query_window
    assert PeerId(0) not in p1.last_minute_in


def test_query_to_departed_neighbor_not_counted_out(line_network):
    sim, net = line_network
    p0 = net.peers[PeerId(0)]
    p0.issue_query(("nosuch", "ida"))
    assert p0.out_query_window[PeerId(1)] == 1
    p0.remove_neighbor(PeerId(1))
    assert PeerId(1) not in p0.out_query_window
    run(sim, 61.0)
    assert PeerId(1) not in p0.last_minute_out
