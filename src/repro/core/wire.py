"""Binary wire format: Gnutella 0.6 header and DD-POLICE bodies.

Gnutella 0.6 unified message header (23 bytes)::

    offset  0: Message GUID        (16 bytes)
    offset 16: Payload descriptor  (1 byte)   -- 0x83 for Neighbor_Traffic
    offset 17: TTL                 (1 byte)
    offset 18: Hops                (1 byte)
    offset 19: Payload length      (4 bytes, little-endian per the spec)

Neighbor_Traffic body (Table 1, 20 bytes)::

    offset  0: Source IP Address      (4 bytes)
    offset  4: Suspect IP Address     (4 bytes)
    offset  8: Source timestamp       (4 bytes, seconds, big-endian)
    offset 12: # of Outgoing queries  (4 bytes, big-endian)
    offset 16: # of Incoming queries  (4 bytes, big-endian)

Neighbor-list body (payload 0x82): count (2 bytes) then count * 4-byte
addresses.

The live UDP testbed (:mod:`repro.live`) additionally needs the classic
Gnutella payloads on the wire; their codecs live here next to the
DD-POLICE bodies so every descriptor shares one contract: encode
validates field ranges, decode raises only
:class:`~repro.errors.WireFormatError` (a
:class:`~repro.errors.ProtocolError`) on malformed input, never a bare
struct/Unicode error. :func:`decode_message` / :func:`encode_message`
dispatch over every descriptor -- one message per UDP datagram -- so a
node's receive loop is a single call.

One deliberate divergence from the DES objects: the in-memory
``NeighborListMessage.sent_at`` stamp is not on the wire (real servents
would carry a sequence number), so decoded lists arrive with
``sent_at=None`` and the police engine's stale-list reorder guard is
inert on the testbed -- UDP on loopback essentially never reorders
across the 2-minute exchange period.

Query body (payload 0x80)::

    offset  0: Minimum speed      (2 bytes, big-endian)
    offset  2: Search string      (UTF-8, keywords joined by spaces)
    last byte: NUL terminator

Pong body (payload 0x01, 14 bytes): port (2), synthetic IPv4 address
(4), shared-file count (4), shared kilobytes (4; always 0 here). The
testbed's id<->(host, port) mapping is the supervisor's address book,
so the port field is advisory (0 unless the caller passes one).

Bye body (payload 0x02): reason code (2 bytes, big-endian) followed by
an optional UTF-8 reason text.

QueryHit body (payload 0x81): number of hits (1), port (2), synthetic
IPv4 address (4), speed (4), then 40 zero bytes per result descriptor
(at least one), then the originating query's GUID (16 bytes) in the
trailing servent-identifier slot -- our reverse-path routing keys on the
query GUID where real servents key on the message GUID.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import WireFormatError
from repro.overlay.ids import PeerId
from repro.overlay.message import (
    Bye,
    Message,
    MessageKind,
    NeighborListMessage,
    NeighborTrafficMessage,
    Ping,
    Pong,
    Query,
    QueryHit,
)

HEADER_SIZE = 23
#: Largest UDP payload we will emit (IPv4 65,535 minus IP/UDP headers).
MAX_DATAGRAM = 65_507
NEIGHBOR_TRAFFIC_BODY_SIZE = 20
PONG_BODY_SIZE = 14
_HEADER_STRUCT = struct.Struct("<16sBBBI")  # GUID, kind, ttl, hops, length
_TRAFFIC_BODY_STRUCT = struct.Struct(">4s4sIII")
_PONG_BODY_STRUCT = struct.Struct(">H4sII")  # port, ip, files, kbytes
_QUERY_HIT_HEAD_STRUCT = struct.Struct(">BH4sI")  # hits, port, ip, speed
_QUERY_HIT_DESCRIPTOR_SIZE = 40


def _check_guid(guid: object, what: str) -> None:
    """A GUID is 16 raw ``bytes``; struct's ``16s`` would pad or truncate."""
    if guid.__class__ is not bytes or len(guid) != 16:  # type: ignore[arg-type]
        raise WireFormatError(f"{what} must be 16 bytes, got {guid!r}")


def _decode_addr(raw: bytes, what: str) -> PeerId:
    """Decode a 4-byte address field, mapping any defect to the wire error."""
    try:
        return PeerId.from_ipv4_bytes(raw)
    except ValueError as exc:
        raise WireFormatError(f"bad {what} address: {exc}") from exc


@dataclass(frozen=True)
class GnutellaHeader:
    """Parsed 23-byte Gnutella message header."""

    guid: bytes
    kind: MessageKind
    ttl: int
    hops: int
    payload_length: int

    def __post_init__(self) -> None:
        if not (0 <= self.ttl <= 255):
            raise WireFormatError(f"ttl out of byte range: {self.ttl}")
        if not (0 <= self.hops <= 255):
            raise WireFormatError(f"hops out of byte range: {self.hops}")
        if self.payload_length < 0:
            raise WireFormatError("payload_length must be non-negative")

    def encode(self) -> bytes:
        _check_guid(self.guid, "message GUID")
        return _HEADER_STRUCT.pack(
            self.guid, self.kind.value, self.ttl, self.hops, self.payload_length
        )

    @classmethod
    def decode(cls, raw: bytes) -> "GnutellaHeader":
        if len(raw) < HEADER_SIZE:
            raise WireFormatError(
                f"header needs {HEADER_SIZE} bytes, got {len(raw)}"
            )
        guid_raw, kind_val, ttl, hops, length = _HEADER_STRUCT.unpack(raw[:HEADER_SIZE])
        try:
            kind = MessageKind(kind_val)
        except ValueError as exc:
            raise WireFormatError(f"unknown payload descriptor 0x{kind_val:02x}") from exc
        return cls(guid_raw, kind, ttl, hops, length)


# ---------------------------------------------------------------------------
# shared decode plumbing for every payload
# ---------------------------------------------------------------------------

def _decode_body(raw: bytes, kind: MessageKind) -> "tuple[GnutellaHeader, bytes]":
    """Common prologue: parse + kind-check the header, length-check the body."""
    header = GnutellaHeader.decode(raw)
    if header.kind is not kind:
        raise WireFormatError(f"expected {kind.name}, got {header.kind}")
    body = raw[HEADER_SIZE:]
    if len(body) != header.payload_length:
        raise WireFormatError(
            f"body length {len(body)} != header payload_length "
            f"{header.payload_length}"
        )
    return header, body


def _decode_text(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"bad {what} text: {exc}") from exc


# ---------------------------------------------------------------------------
# Neighbor_Traffic (Table 1)
# ---------------------------------------------------------------------------

def encode_neighbor_traffic(msg: NeighborTrafficMessage) -> bytes:
    """Serialize header + Table 1 body (43 bytes total)."""
    if msg.source is None or msg.suspect is None:
        raise WireFormatError("Neighbor_Traffic requires source and suspect")
    if msg.timestamp < 0 or msg.outgoing_queries < 0 or msg.incoming_queries < 0:
        raise WireFormatError("Neighbor_Traffic fields must be non-negative")
    if msg.timestamp > 0xFFFFFFFF:
        raise WireFormatError("timestamp exceeds 32 bits")
    if msg.outgoing_queries > 0xFFFFFFFF or msg.incoming_queries > 0xFFFFFFFF:
        raise WireFormatError("query counts exceed 32 bits")
    header = GnutellaHeader(
        guid=msg.guid,
        kind=MessageKind.NEIGHBOR_TRAFFIC,
        ttl=msg.ttl,
        hops=msg.hops,
        payload_length=NEIGHBOR_TRAFFIC_BODY_SIZE,
    )
    body = _TRAFFIC_BODY_STRUCT.pack(
        msg.source.ipv4_bytes(),
        msg.suspect.ipv4_bytes(),
        msg.timestamp,
        msg.outgoing_queries,
        msg.incoming_queries,
    )
    return header.encode() + body


def decode_neighbor_traffic(raw: bytes) -> NeighborTrafficMessage:
    """Parse header + body back into a message object."""
    header, body = _decode_body(raw, MessageKind.NEIGHBOR_TRAFFIC)
    if len(body) != NEIGHBOR_TRAFFIC_BODY_SIZE:
        raise WireFormatError(
            f"Neighbor_Traffic body must be {NEIGHBOR_TRAFFIC_BODY_SIZE} bytes, "
            f"got {len(body)}"
        )
    src_raw, sus_raw, ts, out_q, in_q = _TRAFFIC_BODY_STRUCT.unpack(body)
    return NeighborTrafficMessage(
        guid=header.guid,
        ttl=header.ttl,
        hops=header.hops,
        source=_decode_addr(src_raw, "source"),
        suspect=_decode_addr(sus_raw, "suspect"),
        timestamp=ts,
        outgoing_queries=out_q,
        incoming_queries=in_q,
    )


# ---------------------------------------------------------------------------
# Neighbor-list exchange (payload 0x82)
# ---------------------------------------------------------------------------

def encode_neighbor_list(msg: NeighborListMessage) -> bytes:
    """Serialize header + [sender, count, addresses...]."""
    if msg.sender is None:
        raise WireFormatError("neighbor list requires a sender")
    if len(msg.neighbors) > 0xFFFF:
        raise WireFormatError("too many neighbors for the 2-byte count")
    body = msg.sender.ipv4_bytes() + struct.pack(">H", len(msg.neighbors))
    for pid in sorted(msg.neighbors, key=lambda p: p.value):
        body += pid.ipv4_bytes()
    header = GnutellaHeader(
        guid=msg.guid,
        kind=MessageKind.NEIGHBOR_LIST,
        ttl=msg.ttl,
        hops=msg.hops,
        payload_length=len(body),
    )
    return header.encode() + body


def decode_neighbor_list(raw: bytes) -> NeighborListMessage:
    """Parse header + neighbor-list body back into a message object."""
    header, body = _decode_body(raw, MessageKind.NEIGHBOR_LIST)
    if len(body) < 6:
        raise WireFormatError("neighbor-list body too short")
    sender = _decode_addr(body[:4], "sender")
    (count,) = struct.unpack(">H", body[4:6])
    expected = 6 + 4 * count
    if len(body) != expected:
        raise WireFormatError(
            f"neighbor-list body length {len(body)} != expected {expected}"
        )
    neighbors = []
    for i in range(count):
        off = 6 + 4 * i
        neighbors.append(_decode_addr(body[off : off + 4], "neighbor"))
    return NeighborListMessage(
        guid=header.guid,
        ttl=header.ttl,
        hops=header.hops,
        sender=sender,
        neighbors=frozenset(neighbors),
    )


# ---------------------------------------------------------------------------
# Ping (payload 0x00)
# ---------------------------------------------------------------------------

def encode_ping(msg: Ping) -> bytes:
    """Serialize a Ping: header only, empty body."""
    header = GnutellaHeader(
        guid=msg.guid, kind=MessageKind.PING, ttl=msg.ttl, hops=msg.hops,
        payload_length=0,
    )
    return header.encode()


def decode_ping(raw: bytes) -> Ping:
    """Parse a Ping; any payload bytes are a wire defect."""
    header, body = _decode_body(raw, MessageKind.PING)
    if body:
        raise WireFormatError(f"Ping carries no payload, got {len(body)} bytes")
    return Ping(guid=header.guid, ttl=header.ttl, hops=header.hops)


# ---------------------------------------------------------------------------
# Pong (payload 0x01)
# ---------------------------------------------------------------------------

def encode_pong(msg: Pong, *, port: int = 0) -> bytes:
    """Serialize header + 14-byte Pong body.

    ``port`` is the advertised UDP port; receivers learn the actual
    transport address from the datagram source, so 0 is acceptable.
    """
    if msg.responder is None:
        raise WireFormatError("Pong requires a responder")
    if not (0 <= port <= 0xFFFF):
        raise WireFormatError(f"port out of range: {port}")
    if not (0 <= msg.shared_files <= 0xFFFFFFFF):
        raise WireFormatError(f"shared_files exceeds 32 bits: {msg.shared_files}")
    header = GnutellaHeader(
        guid=msg.guid, kind=MessageKind.PONG, ttl=msg.ttl, hops=msg.hops,
        payload_length=PONG_BODY_SIZE,
    )
    body = _PONG_BODY_STRUCT.pack(
        port, msg.responder.ipv4_bytes(), msg.shared_files, 0
    )
    return header.encode() + body


def decode_pong(raw: bytes) -> Pong:
    """Parse header + Pong body back into a message object."""
    header, body = _decode_body(raw, MessageKind.PONG)
    if len(body) != PONG_BODY_SIZE:
        raise WireFormatError(
            f"Pong body must be {PONG_BODY_SIZE} bytes, got {len(body)}"
        )
    _port, ip_raw, files, _kbytes = _PONG_BODY_STRUCT.unpack(body)
    return Pong(
        guid=header.guid,
        ttl=header.ttl,
        hops=header.hops,
        responder=_decode_addr(ip_raw, "responder"),
        shared_files=files,
    )


# ---------------------------------------------------------------------------
# Query (payload 0x80)
# ---------------------------------------------------------------------------

def encode_query(msg: Query) -> bytes:
    """Serialize header + min-speed + NUL-terminated search string.

    Keywords are joined by single spaces on the wire, so a keyword that
    itself contains a space (or NUL, or is empty) would not survive the
    round trip -- encode rejects it rather than silently reshaping the
    query.
    """
    if not (0 <= msg.min_speed <= 0xFFFF):
        raise WireFormatError(f"min_speed out of range: {msg.min_speed}")
    for kw in msg.keywords:
        if not kw:
            raise WireFormatError("empty keyword cannot be encoded")
        if " " in kw or "\x00" in kw:
            raise WireFormatError(f"keyword contains a separator: {kw!r}")
    text = msg.search_string.encode("utf-8")
    body = struct.pack(">H", msg.min_speed) + text + b"\x00"
    header = GnutellaHeader(
        guid=msg.guid, kind=MessageKind.QUERY, ttl=msg.ttl, hops=msg.hops,
        payload_length=len(body),
    )
    return header.encode() + body


def decode_query(raw: bytes) -> Query:
    """Parse header + query body back into a message object."""
    header, body = _decode_body(raw, MessageKind.QUERY)
    if len(body) < 3:
        raise WireFormatError(f"Query body too short: {len(body)} bytes")
    if body[-1] != 0:
        raise WireFormatError("Query search string is not NUL-terminated")
    (min_speed,) = struct.unpack(">H", body[:2])
    text_raw = body[2:-1]
    if b"\x00" in text_raw:
        raise WireFormatError("Query search string contains an embedded NUL")
    text = _decode_text(text_raw, "search string")
    keywords = tuple(text.split(" ")) if text else ()
    return Query(
        guid=header.guid,
        ttl=header.ttl,
        hops=header.hops,
        keywords=keywords,
        min_speed=min_speed,
    )


# ---------------------------------------------------------------------------
# QueryHit (payload 0x81)
# ---------------------------------------------------------------------------

def encode_query_hit(msg: QueryHit, *, port: int = 0) -> bytes:
    """Serialize header + hit body (descriptors are zero padding).

    The originating query's GUID rides in the trailing 16-byte servent
    slot: that is what reverse-path routing keys on (see
    :class:`~repro.overlay.message.QueryHit`).
    """
    if msg.responder is None:
        raise WireFormatError("QueryHit requires a responder")
    _check_guid(msg.query_guid, "query GUID")
    if not (0 <= msg.result_count <= 0xFF):
        raise WireFormatError(f"result_count out of byte range: {msg.result_count}")
    if not (0 <= port <= 0xFFFF):
        raise WireFormatError(f"port out of range: {port}")
    descriptors = max(1, msg.result_count)
    body = (
        _QUERY_HIT_HEAD_STRUCT.pack(
            msg.result_count, port, msg.responder.ipv4_bytes(), 0
        )
        + b"\x00" * (_QUERY_HIT_DESCRIPTOR_SIZE * descriptors)
        + msg.query_guid
    )
    header = GnutellaHeader(
        guid=msg.guid, kind=MessageKind.QUERY_HIT, ttl=msg.ttl, hops=msg.hops,
        payload_length=len(body),
    )
    return header.encode() + body


def decode_query_hit(raw: bytes) -> QueryHit:
    """Parse header + hit body back into a message object."""
    header, body = _decode_body(raw, MessageKind.QUERY_HIT)
    head_size = _QUERY_HIT_HEAD_STRUCT.size
    if len(body) < head_size + _QUERY_HIT_DESCRIPTOR_SIZE + 16:
        raise WireFormatError(f"QueryHit body too short: {len(body)} bytes")
    count, _port, ip_raw, _speed = _QUERY_HIT_HEAD_STRUCT.unpack(body[:head_size])
    expected = head_size + _QUERY_HIT_DESCRIPTOR_SIZE * max(1, count) + 16
    if len(body) != expected:
        raise WireFormatError(
            f"QueryHit body length {len(body)} != expected {expected} "
            f"for {count} result(s)"
        )
    return QueryHit(
        guid=header.guid,
        ttl=header.ttl,
        hops=header.hops,
        responder=_decode_addr(ip_raw, "responder"),
        result_count=count,
        query_guid=bytes(body[-16:]),
    )


# ---------------------------------------------------------------------------
# Bye (payload 0x02)
# ---------------------------------------------------------------------------

def encode_bye(msg: Bye) -> bytes:
    """Serialize header + reason code + optional UTF-8 reason text."""
    if not (0 <= msg.reason_code <= 0xFFFF):
        raise WireFormatError(f"reason_code out of range: {msg.reason_code}")
    body = struct.pack(">H", msg.reason_code) + msg.reason_text.encode("utf-8")
    header = GnutellaHeader(
        guid=msg.guid, kind=MessageKind.BYE, ttl=msg.ttl, hops=msg.hops,
        payload_length=len(body),
    )
    return header.encode() + body


def decode_bye(raw: bytes) -> Bye:
    """Parse header + Bye body back into a message object."""
    header, body = _decode_body(raw, MessageKind.BYE)
    if len(body) < 2:
        raise WireFormatError(f"Bye body too short: {len(body)} bytes")
    (code,) = struct.unpack(">H", body[:2])
    return Bye(
        guid=header.guid,
        ttl=header.ttl,
        hops=header.hops,
        reason_code=code,
        reason_text=_decode_text(body[2:], "reason"),
    )


# ---------------------------------------------------------------------------
# datagram entry points: one message per datagram, any descriptor
# ---------------------------------------------------------------------------

_CODECS: Dict[
    MessageKind, Tuple[Callable[[Message], bytes], Callable[[bytes], Message]]
] = {
    MessageKind.PING: (encode_ping, decode_ping),
    MessageKind.PONG: (encode_pong, decode_pong),
    MessageKind.QUERY: (encode_query, decode_query),
    MessageKind.QUERY_HIT: (encode_query_hit, decode_query_hit),
    MessageKind.BYE: (encode_bye, decode_bye),
    MessageKind.NEIGHBOR_LIST: (encode_neighbor_list, decode_neighbor_list),
    MessageKind.NEIGHBOR_TRAFFIC: (encode_neighbor_traffic, decode_neighbor_traffic),
}


def decode_message(raw: bytes) -> Message:
    """Decode one datagram into its message object.

    The header's payload descriptor selects the codec; every defect --
    unknown descriptor, truncation, bad address bytes, bad UTF-8 --
    surfaces as :class:`~repro.errors.WireFormatError`.
    """
    if len(raw) > MAX_DATAGRAM:
        raise WireFormatError(f"datagram too large: {len(raw)} bytes")
    return _CODECS[GnutellaHeader.decode(raw).kind][1](raw)


def encode_message(msg: Message) -> bytes:
    """Encode one message object into its datagram."""
    raw = _CODECS[msg.kind][0](msg)
    if len(raw) > MAX_DATAGRAM:
        raise WireFormatError(
            f"encoded {msg.kind.name} exceeds the datagram limit: {len(raw)} bytes"
        )
    return raw
