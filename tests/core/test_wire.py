"""Unit tests for the Table 1 wire format and Gnutella header codec."""

import pytest

from repro.core.wire import (
    HEADER_SIZE,
    NEIGHBOR_TRAFFIC_BODY_SIZE,
    GnutellaHeader,
    decode_message,
    decode_neighbor_list,
    decode_neighbor_traffic,
    encode_message,
    encode_neighbor_list,
    encode_neighbor_traffic,
)
from repro.errors import WireFormatError
from repro.overlay.ids import PeerId
from repro.overlay.message import (
    Bye,
    MessageKind,
    NeighborListMessage,
    NeighborTrafficMessage,
    Ping,
    Pong,
    Query,
    QueryHit,
)


def guid(n=1):
    return n.to_bytes(16, "big")


def make_traffic(**kw):
    defaults = dict(
        guid=guid(),
        ttl=1,
        hops=0,
        source=PeerId(0x010203),
        suspect=PeerId(0x0A0B0C),
        timestamp=1234,
        outgoing_queries=567,
        incoming_queries=89,
    )
    defaults.update(kw)
    return NeighborTrafficMessage(**defaults)


def test_header_is_23_bytes():
    header = GnutellaHeader(guid(), MessageKind.QUERY, 7, 0, 100)
    assert len(header.encode()) == HEADER_SIZE == 23


def test_header_roundtrip():
    header = GnutellaHeader(guid(9), MessageKind.NEIGHBOR_TRAFFIC, 3, 4, 20)
    decoded = GnutellaHeader.decode(header.encode())
    assert decoded == header


def test_header_payload_descriptor_0x83():
    raw = encode_neighbor_traffic(make_traffic())
    assert raw[16] == 0x83  # payload descriptor byte, Section 3.3


def test_table1_byte_offsets():
    """Table 1: Source IP @0, Suspect IP @4, timestamp @8, out @12, in @16."""
    msg = make_traffic()
    body = encode_neighbor_traffic(msg)[HEADER_SIZE:]
    assert len(body) == NEIGHBOR_TRAFFIC_BODY_SIZE == 20
    assert body[0:4] == msg.source.ipv4_bytes()
    assert body[4:8] == msg.suspect.ipv4_bytes()
    assert int.from_bytes(body[8:12], "big") == 1234
    assert int.from_bytes(body[12:16], "big") == 567
    assert int.from_bytes(body[16:20], "big") == 89


def test_neighbor_traffic_roundtrip():
    msg = make_traffic()
    decoded = decode_neighbor_traffic(encode_neighbor_traffic(msg))
    assert decoded.source == msg.source
    assert decoded.suspect == msg.suspect
    assert decoded.timestamp == msg.timestamp
    assert decoded.outgoing_queries == msg.outgoing_queries
    assert decoded.incoming_queries == msg.incoming_queries
    assert decoded.guid == msg.guid
    assert (decoded.ttl, decoded.hops) == (msg.ttl, msg.hops)


def test_traffic_encode_requires_endpoints():
    with pytest.raises(WireFormatError):
        encode_neighbor_traffic(make_traffic(source=None))
    with pytest.raises(WireFormatError):
        encode_neighbor_traffic(make_traffic(suspect=None))


def test_traffic_encode_rejects_out_of_range():
    with pytest.raises(WireFormatError):
        encode_neighbor_traffic(make_traffic(outgoing_queries=2**32))
    with pytest.raises(WireFormatError):
        encode_neighbor_traffic(make_traffic(timestamp=-1))


def test_decode_truncated_rejected():
    raw = encode_neighbor_traffic(make_traffic())
    with pytest.raises(WireFormatError):
        decode_neighbor_traffic(raw[:-1])
    with pytest.raises(WireFormatError):
        GnutellaHeader.decode(raw[:10])


def test_decode_wrong_kind_rejected():
    msg = NeighborListMessage(
        guid=guid(), ttl=1, hops=0, sender=PeerId(1), neighbors=frozenset()
    )
    raw = encode_neighbor_list(msg)
    with pytest.raises(WireFormatError):
        decode_neighbor_traffic(raw)


def test_unknown_descriptor_rejected():
    raw = bytearray(encode_neighbor_traffic(make_traffic()))
    raw[16] = 0x77
    with pytest.raises(WireFormatError):
        GnutellaHeader.decode(bytes(raw))


def test_neighbor_list_roundtrip():
    msg = NeighborListMessage(
        guid=guid(2),
        ttl=1,
        hops=0,
        sender=PeerId(42),
        neighbors=frozenset(PeerId(i) for i in (5, 9, 1000)),
    )
    decoded = decode_neighbor_list(encode_neighbor_list(msg))
    assert decoded.sender == PeerId(42)
    assert decoded.neighbors == msg.neighbors


def test_neighbor_list_empty_ok():
    msg = NeighborListMessage(
        guid=guid(), ttl=1, hops=0, sender=PeerId(1), neighbors=frozenset()
    )
    assert decode_neighbor_list(encode_neighbor_list(msg)).neighbors == frozenset()


def test_neighbor_list_length_mismatch_rejected():
    raw = encode_neighbor_list(
        NeighborListMessage(
            guid=guid(), ttl=1, hops=0, sender=PeerId(1),
            neighbors=frozenset({PeerId(2)}),
        )
    )
    with pytest.raises(WireFormatError):
        decode_neighbor_list(raw[:-2])


def test_header_field_ranges():
    with pytest.raises(WireFormatError):
        GnutellaHeader(guid(), MessageKind.PING, ttl=256, hops=0, payload_length=0)
    with pytest.raises(WireFormatError):
        GnutellaHeader(guid(), MessageKind.PING, ttl=1, hops=-1, payload_length=0)


@pytest.mark.parametrize(
    "msg",
    [
        Ping(guid=guid(3), ttl=1, hops=0),
        Pong(guid=guid(3), ttl=1, hops=0, responder=PeerId(7), shared_files=4),
        Query(guid=guid(3), ttl=3, hops=1, keywords=("red", "song")),
        QueryHit(guid=guid(3), ttl=2, hops=0, responder=PeerId(7),
                 result_count=1, query_guid=guid(4)),
        Bye(guid=guid(3), ttl=1, hops=0),
        NeighborListMessage(guid=guid(3), ttl=1, hops=0, sender=PeerId(1),
                            neighbors=frozenset({PeerId(2), PeerId(5)})),
        make_traffic(),
    ],
    ids=lambda m: m.kind.name,
)
def test_every_kind_rejects_a_trailing_byte(msg):
    """The header's payload_length is the body: one byte more is a defect
    for every payload descriptor, Neighbor_Traffic included."""
    raw = encode_message(msg)
    assert decode_message(raw).kind is msg.kind
    with pytest.raises(WireFormatError, match="payload_length"):
        decode_message(raw + b"\x00")
