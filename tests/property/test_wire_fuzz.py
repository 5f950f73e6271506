"""Fuzzing the binary wire decoders (hypothesis).

Contract under test: whatever bytes arrive -- truncated frames, flipped
bits, wrong payload descriptors, pure noise -- the decoders either return
a valid message or raise inside the :class:`ProtocolError` hierarchy.
``struct.error``, bare ``ValueError``, ``IndexError`` etc. must never
escape (a malformed frame from a remote peer is a protocol event, not a
crash).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wire import (
    HEADER_SIZE,
    GnutellaHeader,
    decode_neighbor_list,
    decode_neighbor_traffic,
    encode_neighbor_list,
    encode_neighbor_traffic,
)
from repro.errors import ProtocolError, ReproError, WireFormatError
from repro.overlay.ids import PeerId
from repro.overlay.message import NeighborListMessage, NeighborTrafficMessage

peer_ids = st.integers(min_value=0, max_value=2**24 - 1).map(PeerId)
guids = st.binary(min_size=16, max_size=16)
u8 = st.integers(min_value=0, max_value=0xFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


@st.composite
def traffic_messages(draw):
    return NeighborTrafficMessage(
        guid=draw(guids),
        ttl=draw(u8),
        hops=draw(u8),
        source=draw(peer_ids),
        suspect=draw(peer_ids),
        timestamp=draw(u32),
        outgoing_queries=draw(u32),
        incoming_queries=draw(u32),
    )


@st.composite
def list_messages(draw):
    return NeighborListMessage(
        guid=draw(guids),
        ttl=draw(u8),
        hops=draw(u8),
        sender=draw(peer_ids),
        neighbors=frozenset(draw(st.sets(peer_ids, max_size=8))),
    )


def decode_or_protocol_error(decoder, raw):
    """Run a decoder; anything outside ProtocolError fails the test."""
    try:
        decoder(raw)
    except ProtocolError:
        pass


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

@given(traffic_messages())
def test_traffic_round_trip(msg):
    assert decode_neighbor_traffic(encode_neighbor_traffic(msg)) == msg


@given(list_messages())
def test_list_round_trip(msg):
    assert decode_neighbor_list(encode_neighbor_list(msg)) == msg


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

@given(traffic_messages(), st.data())
def test_truncated_traffic_frame_raises_wire_error(msg, data):
    raw = encode_neighbor_traffic(msg)
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    with pytest.raises(WireFormatError):
        decode_neighbor_traffic(raw[:cut])


@given(list_messages(), st.data())
def test_truncated_list_frame_raises_wire_error(msg, data):
    raw = encode_neighbor_list(msg)
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    with pytest.raises(WireFormatError):
        decode_neighbor_list(raw[:cut])


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

@given(traffic_messages(), st.data())
def test_corrupted_traffic_frame_never_escapes_protocol_error(msg, data):
    raw = bytearray(encode_neighbor_traffic(msg))
    pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    raw[pos] = data.draw(u8)
    decode_or_protocol_error(decode_neighbor_traffic, bytes(raw))


@given(list_messages(), st.data())
def test_corrupted_list_frame_never_escapes_protocol_error(msg, data):
    raw = bytearray(encode_neighbor_list(msg))
    pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    raw[pos] = data.draw(u8)
    decode_or_protocol_error(decode_neighbor_list, bytes(raw))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(st.binary(max_size=128))
def test_random_bytes_never_escape_protocol_error(raw):
    decode_or_protocol_error(decode_neighbor_traffic, raw)
    decode_or_protocol_error(decode_neighbor_list, raw)
    decode_or_protocol_error(GnutellaHeader.decode, raw)


# ---------------------------------------------------------------------------
# wrong payload descriptor
# ---------------------------------------------------------------------------

@given(traffic_messages())
def test_traffic_frame_rejected_by_list_decoder(msg):
    with pytest.raises(WireFormatError):
        decode_neighbor_list(encode_neighbor_traffic(msg))


@given(list_messages())
def test_list_frame_rejected_by_traffic_decoder(msg):
    with pytest.raises(WireFormatError):
        decode_neighbor_traffic(encode_neighbor_list(msg))


# ---------------------------------------------------------------------------
# hierarchy + header details
# ---------------------------------------------------------------------------

def test_wire_error_sits_in_both_hierarchies():
    # Callers may catch ProtocolError (library convention) or ValueError
    # (stdlib convention for bad input); both must work.
    assert issubclass(WireFormatError, ProtocolError)
    assert issubclass(WireFormatError, ValueError)
    assert issubclass(WireFormatError, ReproError)


def test_short_header_is_a_wire_error():
    with pytest.raises(WireFormatError):
        GnutellaHeader.decode(b"\x00" * (HEADER_SIZE - 1))


def test_address_outside_synthetic_block_is_a_wire_error():
    msg = NeighborTrafficMessage(
        guid=b"\x00" * 16,
        ttl=1,
        hops=0,
        source=PeerId(1),
        suspect=PeerId(2),
    )
    raw = bytearray(encode_neighbor_traffic(msg))
    raw[HEADER_SIZE] = 192  # first octet of the source address: not 10.x
    with pytest.raises(WireFormatError):
        decode_neighbor_traffic(bytes(raw))
