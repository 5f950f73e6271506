"""Round-trip + fuzz tests for the live datagram codecs.

Contract under test (same as the PR-1 wire fuzz suite): whatever bytes
arrive -- truncated datagrams, flipped bits, wrong payload descriptors,
pure noise -- ``decode_message`` either returns a valid message or
raises inside the :class:`ProtocolError` hierarchy. ``struct.error``,
``UnicodeDecodeError``, ``KeyError`` etc. must never escape: a malformed
datagram from a remote peer is a protocol event, not a crash.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wire import (
    HEADER_SIZE,
    MAX_DATAGRAM,
    decode_bye,
    decode_message,
    decode_ping,
    decode_pong,
    decode_query,
    decode_query_hit,
    encode_bye,
    encode_message,
    encode_ping,
    encode_pong,
    encode_query,
    encode_query_hit,
)
from repro.errors import ProtocolError, WireFormatError
from repro.overlay.ids import PeerId
from repro.overlay.message import Bye, Ping, Pong, Query, QueryHit

peer_ids = st.integers(min_value=0, max_value=2**24 - 1).map(PeerId)
guids = st.binary(min_size=16, max_size=16)
u8 = st.integers(min_value=0, max_value=0xFF)
u16 = st.integers(min_value=0, max_value=0xFFFF)
keywords = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.", min_size=1, max_size=12
)


@st.composite
def pings(draw):
    return Ping(guid=draw(guids), ttl=draw(u8), hops=draw(u8))


@st.composite
def pongs(draw):
    return Pong(
        guid=draw(guids),
        ttl=draw(u8),
        hops=draw(u8),
        responder=draw(peer_ids),
        shared_files=draw(st.integers(min_value=0, max_value=0xFFFFFFFF)),
    )


@st.composite
def queries(draw):
    return Query(
        guid=draw(guids),
        ttl=draw(u8),
        hops=draw(u8),
        keywords=tuple(draw(st.lists(keywords, min_size=0, max_size=6))),
        min_speed=draw(u16),
    )


@st.composite
def query_hits(draw):
    return QueryHit(
        guid=draw(guids),
        ttl=draw(u8),
        hops=draw(u8),
        responder=draw(peer_ids),
        result_count=draw(u8),
        query_guid=draw(guids),
    )


@st.composite
def byes(draw):
    return Bye(
        guid=draw(guids),
        ttl=draw(u8),
        hops=draw(u8),
        reason_code=draw(u16),
        reason_text=draw(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs",)), max_size=32
            )
        ),
    )


def any_message():
    return st.one_of(pings(), pongs(), queries(), query_hits(), byes())


def decode_or_protocol_error(raw):
    try:
        decode_message(raw)
    except ProtocolError:
        pass


# ---------------------------------------------------------------------------
# round trips (per-codec and through the dispatch layer)
# ---------------------------------------------------------------------------

@given(pings())
def test_ping_round_trip(msg):
    decoded = decode_ping(encode_ping(msg))
    assert (decoded.guid, decoded.ttl, decoded.hops) == (msg.guid, msg.ttl, msg.hops)


@given(pongs())
def test_pong_round_trip(msg):
    decoded = decode_pong(encode_pong(msg))
    assert decoded.responder == msg.responder
    assert decoded.shared_files == msg.shared_files
    assert decoded.guid == msg.guid


@given(queries())
def test_query_round_trip(msg):
    decoded = decode_query(encode_query(msg))
    assert decoded.keywords == msg.keywords
    assert decoded.min_speed == msg.min_speed
    assert (decoded.guid, decoded.ttl, decoded.hops) == (msg.guid, msg.ttl, msg.hops)


@given(query_hits())
def test_query_hit_round_trip(msg):
    decoded = decode_query_hit(encode_query_hit(msg))
    assert decoded.responder == msg.responder
    assert decoded.result_count == msg.result_count
    assert decoded.query_guid == msg.query_guid


@given(byes())
def test_bye_round_trip(msg):
    decoded = decode_bye(encode_bye(msg))
    assert decoded.reason_code == msg.reason_code
    assert decoded.reason_text == msg.reason_text


@given(any_message())
def test_dispatch_round_trip_preserves_kind(msg):
    decoded = decode_message(encode_message(msg))
    assert decoded.kind == msg.kind
    assert decoded.guid == msg.guid


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

@given(any_message(), st.data())
def test_truncated_datagram_raises_wire_error(msg, data):
    raw = encode_message(msg)
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    with pytest.raises(WireFormatError):
        decode_message(raw[:cut])


# ---------------------------------------------------------------------------
# corruption + noise
# ---------------------------------------------------------------------------

@given(any_message(), st.data())
def test_corrupted_datagram_never_escapes_protocol_error(msg, data):
    raw = bytearray(encode_message(msg))
    pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    raw[pos] = data.draw(u8)
    decode_or_protocol_error(bytes(raw))


@settings(max_examples=300)
@given(st.binary(max_size=128))
def test_random_bytes_never_escape_protocol_error(raw):
    decode_or_protocol_error(raw)


@given(st.integers(min_value=0, max_value=0xFF).filter(
    lambda d: d not in (0x00, 0x01, 0x02, 0x80, 0x81, 0x82, 0x83)
))
def test_unknown_descriptor_is_a_wire_error(descriptor):
    raw = bytearray(encode_message(Ping(guid=b"\x01" * 16)))
    raw[16] = descriptor
    with pytest.raises(WireFormatError):
        decode_message(bytes(raw))


# ---------------------------------------------------------------------------
# wrong payload descriptor against a specific decoder
# ---------------------------------------------------------------------------

@given(queries())
def test_query_frame_rejected_by_bye_decoder(msg):
    with pytest.raises(WireFormatError):
        decode_bye(encode_query(msg))


@given(byes())
def test_bye_frame_rejected_by_query_decoder(msg):
    with pytest.raises(WireFormatError):
        decode_query(encode_bye(msg))


# ---------------------------------------------------------------------------
# encode-side contract
# ---------------------------------------------------------------------------

def test_encode_rejects_separator_keywords():
    q = Query(guid=b"\x01" * 16, ttl=1, hops=0, keywords=("a b",))
    with pytest.raises(WireFormatError):
        encode_query(q)


def test_encode_rejects_oversized_datagram():
    big = Query(
        guid=b"\x01" * 16, ttl=1, hops=0,
        keywords=tuple(f"k{i:05d}x" * 8 for i in range(1200)),
    )
    raw_len = sum(len(k) + 1 for k in big.keywords) + HEADER_SIZE + 3
    assert raw_len > MAX_DATAGRAM  # the fixture really is oversized
    with pytest.raises(WireFormatError):
        encode_message(big)


def test_ping_payload_must_be_empty():
    raw = encode_ping(Ping(guid=b"\x01" * 16)) + b"\x00"
    with pytest.raises(WireFormatError):
        decode_ping(raw)
