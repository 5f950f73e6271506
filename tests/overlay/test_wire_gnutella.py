"""Example-based tests for the classic Gnutella payload codecs.

``tests/live/test_live_wire.py`` holds :mod:`repro.core.wire` to the
round-trip and malformed-input contract by property; these cases pin
concrete values, the encode-side field checks and the byte order
docs/PROTOCOL.md §1 states.
"""

import pytest

from repro.core.wire import (
    HEADER_SIZE,
    decode_ping,
    decode_pong,
    decode_query,
    decode_query_hit,
    encode_ping,
    encode_pong,
    encode_query,
    encode_query_hit,
)
from repro.errors import WireFormatError
from repro.overlay.ids import PeerId
from repro.overlay.message import Ping, Pong, Query, QueryHit


def guid(n=1):
    return n.to_bytes(16, "big")


def test_ping_roundtrip():
    msg = Ping(guid=guid(), ttl=4, hops=3)
    decoded = decode_ping(encode_ping(msg))
    assert (decoded.guid, decoded.ttl, decoded.hops) == (msg.guid, 4, 3)


def test_ping_is_header_only():
    assert len(encode_ping(Ping(guid=guid()))) == HEADER_SIZE == 23


def test_pong_roundtrip():
    msg = Pong(guid=guid(2), ttl=1, hops=0, responder=PeerId(777), shared_files=42)
    raw = encode_pong(msg, port=0x1234)
    decoded = decode_pong(raw)
    assert decoded.responder == PeerId(777)
    assert decoded.shared_files == 42
    # Body fields are big-endian (PROTOCOL.md §1), unlike Gnutella 0.6.
    body = raw[HEADER_SIZE:]
    assert body[:2] == b"\x12\x34"
    assert body[6:10] == (42).to_bytes(4, "big")


def test_pong_requires_responder():
    with pytest.raises(WireFormatError):
        encode_pong(Pong(guid=guid()))
    with pytest.raises(WireFormatError):
        encode_pong(Pong(guid=guid(), responder=PeerId(1)), port=70_000)


def test_query_roundtrip():
    msg = Query(guid=guid(3), ttl=7, hops=0, keywords=("red", "song", "id3"),
                min_speed=0x0102)
    raw = encode_query(msg)
    decoded = decode_query(raw)
    assert decoded.keywords == ("red", "song", "id3")
    assert decoded.min_speed == 0x0102
    assert decoded.search_string == msg.search_string
    # Header length little-endian, body fields big-endian.
    assert raw[19:23] == (len(raw) - HEADER_SIZE).to_bytes(4, "little")
    assert raw[HEADER_SIZE:HEADER_SIZE + 2] == b"\x01\x02"


def test_query_empty_keywords():
    msg = Query(guid=guid(), keywords=())
    decoded = decode_query(encode_query(msg))
    assert decoded.keywords == ()


def test_query_nul_rejected():
    msg = Query(guid=guid(), keywords=("bad\x00name",))
    with pytest.raises(WireFormatError):
        encode_query(msg)


def test_query_undecodable_text_is_a_wire_error():
    """A bad UTF-8 byte in the search string is a WireFormatError, never
    a UnicodeDecodeError (malformed input raises only the wire error)."""
    raw = bytearray(encode_query(Query(guid=guid(), keywords=("red",))))
    raw[HEADER_SIZE + 2] = 0xFF
    with pytest.raises(WireFormatError):
        decode_query(bytes(raw))


def test_query_hit_roundtrip():
    msg = QueryHit(
        guid=guid(4), ttl=5, hops=0, responder=PeerId(9), result_count=2,
        query_guid=guid(5),
    )
    raw = encode_query_hit(msg, port=6346)
    decoded = decode_query_hit(raw)
    assert decoded.responder == PeerId(9)
    assert decoded.query_guid == guid(5)
    assert decoded.result_count == 2
    assert raw[HEADER_SIZE + 1:HEADER_SIZE + 3] == (6346).to_bytes(2, "big")


def test_query_hit_requires_fields():
    with pytest.raises(WireFormatError):
        encode_query_hit(QueryHit(guid=guid(), responder=None, query_guid=guid(5)))
    with pytest.raises(WireFormatError):
        encode_query_hit(QueryHit(guid=guid(), responder=PeerId(1), query_guid=None))
    with pytest.raises(WireFormatError):
        encode_query_hit(
            QueryHit(guid=guid(), responder=PeerId(1), result_count=256,
                     query_guid=guid(5))
        )


def test_query_hit_truncation_detected():
    msg = QueryHit(guid=guid(), responder=PeerId(1), result_count=1,
                   query_guid=guid(5))
    raw = encode_query_hit(msg)
    with pytest.raises(WireFormatError):
        decode_query_hit(raw[:-4])


def test_cross_kind_decode_rejected():
    ping_raw = encode_ping(Ping(guid=guid()))
    with pytest.raises(WireFormatError):
        decode_query(ping_raw)
    with pytest.raises(WireFormatError):
        decode_pong(ping_raw)
