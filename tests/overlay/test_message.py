"""Unit tests for overlay message types."""

import pytest

from repro.overlay.ids import Guid, PeerId
from repro.overlay.message import (
    GNUTELLA_HEADER_SIZE,
    Bye,
    MessageKind,
    NeighborListMessage,
    NeighborTrafficMessage,
    Ping,
    Pong,
    Query,
    QueryHit,
)


def guid(n: int = 0) -> Guid:
    return Guid(n.to_bytes(16, "big"))


def test_payload_descriptors_match_spec():
    assert MessageKind.PING.value == 0x00
    assert MessageKind.PONG.value == 0x01
    assert MessageKind.QUERY.value == 0x80
    assert MessageKind.QUERY_HIT.value == 0x81
    assert MessageKind.NEIGHBOR_TRAFFIC.value == 0x83  # Section 3.3


def test_sizes_include_23_byte_header():
    p = Ping(guid())
    assert p.size_bytes == GNUTELLA_HEADER_SIZE
    q = Query(guid(), keywords=("abc",))
    assert q.size_bytes > GNUTELLA_HEADER_SIZE


def test_query_search_string():
    q = Query(guid(), keywords=("red", "song"))
    assert q.search_string == "red song"
    assert q.kind is MessageKind.QUERY


def test_query_payload_size_grows_with_keywords():
    short = Query(guid(), keywords=("a",))
    long = Query(guid(), keywords=("a", "much-longer-keyword"))
    assert long.payload_size > short.payload_size


def test_aged_copy_decrements_ttl_increments_hops():
    q = Query(guid(), ttl=7, hops=0, keywords=("x",))
    fwd = q.aged_copy()
    assert (fwd.ttl, fwd.hops) == (6, 1)
    assert (q.ttl, q.hops) == (7, 0)  # original untouched
    assert fwd.guid == q.guid


def test_aged_copy_preserves_ttl_plus_hops():
    q = Query(guid(), ttl=5, hops=2, keywords=("x",))
    fwd = q.aged_copy()
    assert fwd.ttl + fwd.hops == q.ttl + q.hops


def test_aged_copy_at_zero_ttl_rejected():
    q = Query(guid(), ttl=0, keywords=("x",))
    with pytest.raises(ValueError):
        q.aged_copy()


def _one_of_each():
    return [
        Ping(guid(1), ttl=1),
        Pong(guid(2), ttl=2, hops=1, responder=PeerId(9), shared_files=3),
        Query(guid(3), ttl=7, keywords=("red", "song", "id4"), min_speed=5),
        QueryHit(guid(4), ttl=3, hops=2, responder=PeerId(4), result_count=2,
                 query_guid=guid(3)),
        Bye(guid(5), ttl=1, reason_code=Bye.REASON_DDOS_SUSPECT, reason_text="ddos"),
        NeighborListMessage(guid(6), ttl=1, sender=PeerId(1),
                            neighbors=frozenset({PeerId(2), PeerId(3)}), sent_at=4.5),
        NeighborTrafficMessage(guid(7), ttl=1, source=PeerId(1), suspect=PeerId(2),
                               timestamp=60, outgoing_queries=10, incoming_queries=20,
                               is_retry=True),
    ]


@pytest.mark.parametrize("msg", _one_of_each(), ids=lambda m: type(m).__name__)
def test_aged_copy_is_a_shallow_copy_with_ttl_and_hops_adjusted(msg):
    import copy
    import dataclasses

    # What aged_copy was before it stopped going through the copy module.
    expected = copy.copy(msg)
    expected.ttl, expected.hops = msg.ttl - 1, msg.hops + 1
    fwd = msg.aged_copy()
    assert type(fwd) is type(msg) and fwd is not msg
    for f in dataclasses.fields(msg):  # includes kind / payload_size
        assert getattr(fwd, f.name) == getattr(expected, f.name), f.name
        if f.name not in ("ttl", "hops"):
            assert getattr(fwd, f.name) is getattr(msg, f.name), f.name
    assert fwd == expected
    msg.ttl = 0
    with pytest.raises(ValueError):
        msg.aged_copy()


def test_aged_copy_survives_a_subclass_that_adds_a_slot():
    class TaggedQuery(Query):
        __slots__ = ("tag",)

    q = TaggedQuery(guid(), ttl=3, keywords=("x", "id1"))
    q.tag = "probe"
    q.payload_size = 999  # tampered: a copy must not recompute it
    fwd = q.aged_copy()
    assert type(fwd) is TaggedQuery
    assert (fwd.tag, fwd.payload_size, fwd.keywords) == ("probe", 999, q.keywords)
    assert (fwd.ttl, fwd.hops, fwd.kind) == (2, 1, MessageKind.QUERY)


def test_aged_copy_keeps_the_dict_of_a_subclass_without_slots():
    import copy

    class ProbePing(Ping):  # no __slots__: instances grow a __dict__
        pass

    p = ProbePing(guid(), ttl=2)
    p.note = ["mutable"]
    fwd = p.aged_copy()
    expected = copy.copy(p)
    assert type(fwd) is ProbePing and fwd.__dict__ is not p.__dict__
    assert fwd.note is p.note is expected.note  # shallow, like copy.copy
    assert (fwd.ttl, fwd.hops, fwd.kind) == (1, 1, MessageKind.PING)


def test_query_hit_references_query_guid():
    qh = QueryHit(guid(1), responder=PeerId(4), query_guid=guid(2))
    assert qh.kind is MessageKind.QUERY_HIT
    assert qh.query_guid == guid(2)
    assert qh.payload_size > 0


def test_bye_reason_codes():
    b = Bye(guid(), reason_code=Bye.REASON_DDOS_SUSPECT, reason_text="ddos")
    assert b.kind is MessageKind.BYE
    assert b.reason_code == 1


def test_neighbor_list_size_scales_with_members():
    small = NeighborListMessage(guid(), sender=PeerId(1), neighbors=frozenset())
    big = NeighborListMessage(
        guid(), sender=PeerId(1), neighbors=frozenset(PeerId(i) for i in range(10))
    )
    assert big.payload_size == small.payload_size + 60


def test_neighbor_traffic_fixed_body_size():
    msg = NeighborTrafficMessage(
        guid(), source=PeerId(1), suspect=PeerId(2), timestamp=1,
        outgoing_queries=10, incoming_queries=20,
    )
    assert msg.payload_size == 20  # Table 1
    assert msg.size_bytes == GNUTELLA_HEADER_SIZE + 20


def test_pong_carries_responder():
    p = Pong(guid(), responder=PeerId(9), shared_files=3)
    assert p.responder == PeerId(9)
    assert p.kind is MessageKind.PONG
