"""Overlay message types.

Models the Gnutella 0.6 message vocabulary the paper builds on, plus the
new ``Neighbor_Traffic`` type DD-POLICE adds (payload descriptor ``0x83``,
Section 3.3 / Table 1) and the neighbor-list exchange message of
Section 3.1.

Sizes are tracked so the traffic-cost metric (Figure 9) can weigh messages
by bytes on the wire, matching the paper's "traffic cost is a function of
consumed network bandwidth".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.overlay.ids import Guid, PeerId

#: Size of the unified Gnutella message header (bytes), per the 0.6 spec.
GNUTELLA_HEADER_SIZE = 23

#: Default TTL for flooded queries (Gnutella convention).
DEFAULT_TTL = 7


class MessageKind(enum.Enum):
    """Payload descriptor values (Gnutella 0.6 + DD-POLICE extension)."""

    PING = 0x00
    PONG = 0x01
    BYE = 0x02
    QUERY = 0x80
    QUERY_HIT = 0x81
    NEIGHBOR_LIST = 0x82  # DD-POLICE neighbor-list exchange (Section 3.1)
    NEIGHBOR_TRAFFIC = 0x83  # DD-POLICE Neighbor_Traffic (Section 3.3, Table 1)


@dataclass(slots=True)
class Message:
    """Base overlay message.

    Attributes
    ----------
    guid:
        16-byte identifier used for duplicate suppression during floods.
    ttl:
        Remaining hops the message may travel.
    hops:
        Hops travelled so far. ``ttl + hops`` is invariant along a path for
        honest peers (attackers may tamper, Section 4 notes TTL/hops are
        easily modified -- modelled in :mod:`repro.attack`).
    """

    guid: Guid
    ttl: int = DEFAULT_TTL
    hops: int = 0

    kind: MessageKind = field(init=False)
    payload_size: int = field(init=False, default=0)

    @property
    def size_bytes(self) -> int:
        """Total on-the-wire size including the 23-byte header."""
        return GNUTELLA_HEADER_SIZE + self.payload_size

    def aged_copy(self) -> "Message":
        """Copy with ttl-1 / hops+1, as done when forwarding.

        What ``copy.copy`` gives, without its reduce protocol on each
        forwarded query: every slot of every class in the MRO (``kind`` and
        ``payload_size`` too; ``__post_init__`` is not re-run), and the
        ``__dict__`` a subclass that declares no ``__slots__`` has.
        """
        if self.ttl <= 0:
            raise ValueError("cannot forward a message with ttl<=0")
        cls = type(self)
        clone = cls.__new__(cls)
        for klass in cls.__mro__:
            for name in klass.__dict__.get("__slots__", ()):
                setattr(clone, name, getattr(self, name))
        extra = getattr(self, "__dict__", None)
        if extra:
            clone.__dict__.update(extra)
        clone.ttl = self.ttl - 1
        clone.hops = self.hops + 1
        return clone


@dataclass(slots=True)
class Ping(Message):
    """Keep-alive / discovery probe (also used for BG liveness pings)."""

    def __post_init__(self) -> None:
        self.kind = MessageKind.PING
        self.payload_size = 0


@dataclass(slots=True)
class Pong(Message):
    """Response to a Ping; advertises the responder's address + library."""

    responder: Optional[PeerId] = None
    shared_files: int = 0

    def __post_init__(self) -> None:
        self.kind = MessageKind.PONG
        self.payload_size = 14  # port(2) + ip(4) + files(4) + kbytes(4)


@dataclass(slots=True)
class Query(Message):
    """Flooded search request.

    ``keywords`` identifies what is being searched for; crucially the
    message carries **no source address** -- responses travel back along
    the reverse of the flood path (the anonymity property that defeats
    network-layer defenses, Section 2.1).
    """

    keywords: Tuple[str, ...] = ()
    min_speed: int = 0

    def __post_init__(self) -> None:
        self.kind = MessageKind.QUERY
        # min_speed(2) + NUL-terminated search string
        self.payload_size = 2 + sum(len(k) for k in self.keywords) + max(
            0, len(self.keywords) - 1
        ) + 1

    @property
    def search_string(self) -> str:
        return " ".join(self.keywords)


@dataclass(slots=True)
class QueryHit(Message):
    """Response to a Query; routed back hop-by-hop on the reverse path."""

    responder: Optional[PeerId] = None
    result_count: int = 1
    query_guid: Optional[Guid] = None

    def __post_init__(self) -> None:
        self.kind = MessageKind.QUERY_HIT
        # header-ish fields + per-result descriptor (~40B each) + servent id
        self.payload_size = 11 + 40 * max(1, self.result_count) + 16


@dataclass(slots=True)
class Bye(Message):
    """Graceful connection close, optionally with a reason code.

    DD-POLICE uses reason codes to tell a disconnected peer *why* (the
    inconsistent-neighbor-list disconnection of Section 3.1 "send out a
    message to both peers indicating the reason of disconnection").
    """

    reason_code: int = 0
    reason_text: str = ""

    #: reason codes
    REASON_NORMAL = 0
    REASON_DDOS_SUSPECT = 1
    REASON_LIST_INCONSISTENT = 2
    REASON_NAIVE_RATE_LIMIT = 3
    REASON_TRACEBACK = 4

    def __post_init__(self) -> None:
        self.kind = MessageKind.BYE
        self.payload_size = 2 + len(self.reason_text)


@dataclass(slots=True)
class NeighborListMessage(Message):
    """Periodic neighbor-list exchange (Section 3.1).

    Carries the sender's current neighbor set. Receivers use it to build
    buddy groups; they may also cross-check claims with the listed peers
    (the lying-detection mechanism).
    """

    sender: Optional[PeerId] = None
    neighbors: FrozenSet[PeerId] = frozenset()
    #: Sender-side send time. Not on the wire (real servents would carry a
    #: sequence number); used to reject stale lists that arrive reordered
    #: behind a fresher one. ``None`` disables the guard.
    sent_at: Optional[float] = None

    def __post_init__(self) -> None:
        self.kind = MessageKind.NEIGHBOR_LIST
        self.payload_size = 4 + 6 * len(self.neighbors)  # ip(4)+port(2) each


@dataclass(slots=True)
class NeighborTrafficMessage(Message):
    """DD-POLICE ``Neighbor_Traffic`` message (Section 3.3, Table 1).

    Body fields and byte offsets::

        offset  0: Source IP Address      (4 bytes)
        offset  4: Suspect IP Address     (4 bytes)
        offset  8: Source timestamp       (4 bytes)
        offset 12: # of Outgoing queries  (4 bytes)  Out_query(suspect)
        offset 16: # of Incoming queries  (4 bytes)  In_query(suspect)

    Payload descriptor ``0x83``. Binary encode/decode lives in
    :mod:`repro.core.wire`.
    """

    source: Optional[PeerId] = None
    suspect: Optional[PeerId] = None
    timestamp: int = 0
    outgoing_queries: int = 0
    incoming_queries: int = 0
    #: Marks an investigation re-request (hardened evidence collection):
    #: the receiver should answer the sender directly, bypassing the 5 s
    #: dedup window. Identical on the wire to a first send.
    is_retry: bool = False

    def __post_init__(self) -> None:
        self.kind = MessageKind.NEIGHBOR_TRAFFIC
        self.payload_size = 20
