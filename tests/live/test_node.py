"""Characterisation of one LiveNode's data plane through a fake transport.

No sockets, no sleeps, no running event loop: datagrams go in through
``datagram_received`` as encoded bytes and whatever the node hands to
``transport.sendto`` is decoded and inspected. Timers land on a loop
that is never run, so nothing fires unless a test calls it.

Observation points are the ones that do not depend on how the node is
built inside: the wire, the ``live.minute`` trace record, and
``node.engine.peer`` -- the peer surface DD-POLICE reads (In/Out
windows, neighbors, hook lists). The codec is the one the node module
itself imports.
"""

import asyncio
import time

import pytest

from repro.errors import ProtocolError
from repro.experiments.spec import Case, WorkloadSpec
from repro.live.node import LiveNode, NodeConfig, decode_message, encode_message
from repro.live.spec import LiveSpec
from repro.obs.trace import MemorySink, Tracer, validate_record
from repro.overlay.content import ContentCatalog, ContentConfig
from repro.overlay.ids import PeerId
from repro.overlay.message import Bye, MessageKind, Ping, Pong, Query, QueryHit
from repro.overlay.network import NetworkConfig
from repro.simkit.rng import derive_seed

N = 8
SEED = 11
CATALOG = ContentCatalog(ContentConfig(seed=derive_seed(SEED, "content")), N)
OBJ = min(CATALOG.peer_objects[0])
MATCHING = CATALOG.keywords_for(OBJ)
BOGUS = ("bogus", "x1n1")
ME = PeerId(0)
NB1, NB2, NB3 = PeerId(1), PeerId(2), PeerId(3)
ADDR = {i: ("127.0.0.1", 9000 + i) for i in range(N)}

MINUTE_FIELDS = {
    "node", "minute", "agent", "neighbors",
    "issued", "succeeded", "response_sum_s", "attack_sent", "sent",
    "received", "malformed", "unroutable", "dropped_capacity",
    "dropped_duplicate", "dropped_ttl", "hits_generated", "hits_routed",
    "hits_dropped", "evicted", "protocol_errors",
}


class FakeTransport:
    def __init__(self):
        self.sent = []
        self.closed = False

    def sendto(self, raw, addr):
        self.sent.append((decode_message(raw), addr))

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def take(self):
        sent, self.sent = self.sent, []
        return sent


class Harness:
    def __init__(self, loop, **workload):
        case = Case(
            n=N,
            minutes=10,
            seed=SEED,
            defense="ddpolice",
            workload=WorkloadSpec(queries_per_minute=6.0, **workload),
            live=LiveSpec(n_nodes=N, minute_s=60.0),  # an uncompressed clock
        )
        config = NodeConfig(
            node_id=ME.value,
            addresses=ADDR,
            neighbors=(1, 2, 3),
            case=case,
            start_at=time.time() - 1.0,  # protocol t > 0 already
        )
        self.trace = MemorySink()
        self.node = LiveNode(config, loop, tracer=Tracer(sinks=[self.trace]))
        self.transport = FakeTransport()
        self.node.connection_made(self.transport)
        self.node.start()
        self.peer = self.node.engine.peer
        assert self.transport.take() == []  # start() only arms timers

    def feed(self, src, msg):
        self.node.datagram_received(encode_message(msg), ADDR[src.value])

    def roll(self):
        """Roll the minute; returns the ``live.minute`` record it emitted."""
        self.node._roll_minute()
        record = [r for r in self.trace.records if r["kind"] == "live.minute"][-1]
        validate_record(record)
        return record


@pytest.fixture
def harness():
    loop = asyncio.new_event_loop()
    made = []

    def make(**workload):
        made.append(Harness(loop, **workload))
        return made[-1]

    yield make
    for h in made:
        h.node.begin_shutdown()
    loop.close()


def guid(i):
    return bytes([i]) * 16


def query(i, *, ttl=4, hops=2, keywords=BOGUS):
    return Query(guid=guid(i), ttl=ttl, hops=hops, keywords=keywords)


def hit(i, query_guid, *, ttl=3, hops=1):
    return QueryHit(
        guid=guid(i), ttl=ttl, hops=hops, responder=PeerId(7), result_count=1,
        query_guid=query_guid,
    )


def test_query_is_counted_answered_and_forwarded(harness):
    h = harness()
    h.feed(NB1, query(1, keywords=MATCHING))
    sent = h.transport.take()
    hits = [(m, a) for m, a in sent if m.kind is MessageKind.QUERY_HIT]
    fwds = [(m, a) for m, a in sent if m.kind is MessageKind.QUERY]
    assert len(sent) == 3

    [(answer, to)] = hits
    assert to == ADDR[1]
    assert (answer.ttl, answer.hops) == (3, 0)  # ttl = query hops + 1
    assert answer.query_guid == guid(1)
    assert answer.responder == ME

    assert sorted(a for _, a in fwds) == [ADDR[2], ADDR[3]]
    for fwd, _ in fwds:
        assert (fwd.guid, fwd.ttl, fwd.hops) == (guid(1), 3, 3)
        assert fwd.keywords == MATCHING

    assert h.peer.in_query_window == {NB1: 1, NB2: 0, NB3: 0}
    assert h.peer.out_query_window == {NB1: 0, NB2: 1, NB3: 1}
    record = h.roll()
    assert h.peer.last_minute_in == {NB1: 1, NB2: 0, NB3: 0}
    assert h.peer.last_minute_out == {NB1: 0, NB2: 1, NB3: 1}
    assert h.peer.in_query_window == {NB1: 0, NB2: 0, NB3: 0}
    assert h.peer.out_query_window == {NB1: 0, NB2: 0, NB3: 0}
    assert (record["received"], record["sent"], record["hits_generated"]) == (1, 3, 1)


def test_duplicate_guid_is_dropped_after_being_counted_in(harness):
    h = harness()
    h.feed(NB1, query(1))
    h.transport.take()
    h.feed(NB2, query(1))
    h.feed(NB1, query(1))
    assert h.transport.take() == []
    assert h.peer.in_query_window == {NB1: 2, NB2: 1, NB3: 0}
    assert h.roll()["dropped_duplicate"] == 2


def test_last_hop_query_is_answered_but_not_forwarded(harness):
    h = harness()
    h.feed(NB1, query(1, ttl=1))
    assert h.transport.take() == []
    h.feed(NB1, query(2, ttl=1, keywords=MATCHING))
    [(answer, to)] = h.transport.take()
    assert answer.kind is MessageKind.QUERY_HIT and to == ADDR[1]
    record = h.roll()
    assert (record["dropped_ttl"], record["hits_generated"]) == (2, 1)


def test_exhausted_capacity_drops_before_match_and_forward(harness):
    h = harness(capacity_qpm=60.0)  # a one-token bucket, refilled 1/s
    h.feed(NB1, query(1))
    assert len(h.transport.take()) == 2
    h.feed(NB1, query(2, keywords=MATCHING))
    assert h.transport.take() == []
    assert h.peer.in_query_window[NB1] == 2
    record = h.roll()
    assert (record["dropped_capacity"], record["hits_generated"]) == (1, 0)
    # The dropped query was still remembered: its replay is a duplicate.
    h.feed(NB2, query(2, keywords=MATCHING))
    assert h.roll()["dropped_duplicate"] == 1


def test_hit_is_routed_back_only_to_a_connected_route(harness):
    h = harness()
    h.feed(NB1, query(1))
    h.transport.take()

    h.feed(NB2, hit(50, guid(1)))
    [(routed, to)] = h.transport.take()
    assert to == ADDR[1]
    assert (routed.guid, routed.ttl, routed.hops) == (guid(50), 2, 2)
    assert routed.query_guid == guid(1)

    h.feed(NB1, Bye(guid=guid(60), ttl=1, reason_code=Bye.REASON_NORMAL))
    h.transport.take()
    h.feed(NB3, hit(51, guid(1)))  # route-back neighbor is gone
    h.feed(NB3, hit(52, guid(99)))  # query never seen here
    assert h.transport.take() == []
    record = h.roll()
    assert (record["hits_routed"], record["hits_dropped"]) == (1, 2)


def test_hit_for_an_own_query_succeeds_once(harness):
    h = harness()
    h.node._workload_tick()
    sent = h.transport.take()
    assert sorted(a for _, a in sent) == [ADDR[1], ADDR[2], ADDR[3]]
    own = sent[0][0]
    assert all(m == own for m, _ in sent)
    assert (own.kind, own.ttl, own.hops) == (
        MessageKind.QUERY, NetworkConfig().default_ttl, 0
    )
    assert h.peer.out_query_window == {NB1: 1, NB2: 1, NB3: 1}

    h.feed(NB2, hit(50, own.guid))
    h.feed(NB3, hit(51, own.guid))
    h.feed(NB1, own)  # our own flood echoed back: a duplicate
    assert h.transport.take() == []
    record = h.roll()
    assert (record["issued"], record["succeeded"]) == (1, 1)
    assert 0.0 <= record["response_sum_s"] < 5.0
    assert (record["hits_routed"], record["hits_dropped"]) == (0, 0)
    assert record["dropped_duplicate"] == 1


def test_ping_is_answered_with_a_pong_naming_this_node(harness):
    h = harness()
    h.feed(NB1, Ping(guid=guid(1), ttl=1))
    [(pong, to)] = h.transport.take()
    assert to == ADDR[1]
    assert (pong.kind, pong.guid, pong.responder) == (MessageKind.PONG, guid(1), ME)
    assert pong.shared_files == len(CATALOG.peer_objects[0])


def test_bye_drops_the_link_and_fires_disconnect_listeners(harness):
    h = harness()
    gone = []
    h.peer.disconnect_listeners.append(lambda nb, code: gone.append((nb, code)))
    h.feed(NB1, Bye(guid=guid(1), ttl=1, reason_code=Bye.REASON_NORMAL))
    assert gone == [(NB1, Bye.REASON_NORMAL)]
    assert h.peer.neighbors == {NB2, NB3}
    assert NB1 not in h.peer.in_query_window
    h.transport.take()

    h.feed(NB2, query(2))
    assert [a for _, a in h.transport.take()] == [ADDR[3]]
    h.feed(NB1, query(3))  # late traffic from the departed neighbor
    assert NB1 not in h.peer.in_query_window
    assert h.roll()["neighbors"] == 2


def test_malformed_and_invalid_input_is_counted_never_raised(harness):
    h = harness()
    h.node.datagram_received(b"\x00" * 5, ADDR[1])  # truncated header
    h.node.datagram_received(b"\xff" * 40, ADDR[1])  # unknown descriptor
    truncated = encode_message(query(1))[:-3]
    h.node.datagram_received(truncated, ADDR[1])

    def reject(src, msg):
        raise ProtocolError("semantically invalid")

    h.peer.control_handlers.append(reject)
    h.feed(NB1, Pong(guid=guid(2), ttl=1, responder=NB1))
    assert h.transport.take() == []

    # A stray PONG naming a neighbor and a stray PING, from an address
    # outside the book: no reply, and no rebinding of that neighbor.
    stray = ("127.0.0.1", 9999)
    book = dict(h.node._addr_of)
    h.node.datagram_received(
        encode_message(Pong(guid=guid(3), ttl=1, responder=NB1)), stray
    )
    h.node.datagram_received(encode_message(Ping(guid=guid(4), ttl=1)), stray)
    assert h.transport.take() == []
    assert h.node._addr_of == book
    h.feed(NB2, query(5))
    assert sorted(a for _, a in h.transport.take()) == [ADDR[1], ADDR[3]]

    record = h.roll()
    assert (record["malformed"], record["received"]) == (3, 4)
    assert (record["protocol_errors"], record["unroutable"]) == (1, 2)


def test_minute_record_keeps_every_field_name(harness):
    h = harness()
    record = h.roll()
    assert MINUTE_FIELDS <= set(record)
    assert (record["node"], record["minute"], record["agent"]) == (0, 1, 0)
    assert record["neighbors"] == 3
    assert h.roll()["minute"] == 2
