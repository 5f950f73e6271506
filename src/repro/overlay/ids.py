"""Peer identifiers and Gnutella message GUIDs.

A :class:`PeerId` doubles as a synthetic IPv4 address (the Neighbor_Traffic
wire format of Table 1 carries 4-byte IP addresses). A GUID, the 16-byte
message identifier used for flooding duplicate suppression, is its raw
``bytes``: :class:`GuidFactory` draws them, and the wire codec checks
their length at the boundary.
"""

from __future__ import annotations

import operator
import random
from typing import Optional


class PeerId(tuple):
    """Identity of a peer in the overlay: the 1-tuple ``(value,)``.

    The integer ``value`` is mapped to a synthetic IPv4 address in
    ``10.0.0.0/8`` for wire encoding; it is *not* visible in Query/QueryHit
    messages (the anonymity property Section 2.1 relies on).

    The hash is the tuple's, computed in C: ``hash((value,))``. DES
    fan-out order follows ``set[PeerId]`` iteration order, and the
    ``des-soa`` engine replays it with sets of plain 1-tuples, which
    iterate alike because they hash alike. Ordering is the tuple's too.

    Ids are canonical inside one ``OverlayNetwork``: the objects that key
    ``network.peers`` are the ones wired into every neighbor set, so dict
    and set probes with an id out of a message, directory or route table
    hit on identity without calling ``__eq__``. Equality is still by value,
    between ids only: ids decoded off the wire (``repro.live``) or written
    as literals work, and a plain tuple ``(value,)`` is not a peer.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "PeerId":
        if not (0 <= value < 2**24):
            raise ValueError(f"PeerId out of range [0, 2^24): {value}")
        return tuple.__new__(cls, (value,))

    value = property(operator.itemgetter(0), doc="The integer id.")
    __hash__ = tuple.__hash__

    def __getnewargs__(self) -> tuple:
        return (self[0],)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self[0] == other[0]  # type: ignore[index]
        # A plain tuple would otherwise fall back to tuple equality.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        if self is other:
            return False
        if other.__class__ is self.__class__:
            return self[0] != other[0]  # type: ignore[index]
        return True if isinstance(other, tuple) else NotImplemented

    @property
    def ipv4(self) -> str:
        """Dotted-quad synthetic address, e.g. ``10.1.2.3``."""
        v = self[0]
        return f"10.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def ipv4_bytes(self) -> bytes:
        """4-byte big-endian address for the Table 1 wire format."""
        v = self[0]
        return bytes([10, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF])

    @classmethod
    def from_ipv4_bytes(cls, raw: bytes) -> "PeerId":
        if len(raw) != 4:
            raise ValueError(f"expected 4 address bytes, got {len(raw)}")
        if raw[0] != 10:
            raise ValueError(f"synthetic addresses live in 10.0.0.0/8, got first octet {raw[0]}")
        return cls((raw[1] << 16) | (raw[2] << 8) | raw[3])

    def __repr__(self) -> str:
        return f"PeerId({self[0]})"

    def __int__(self) -> int:
        return self[0]


class GuidFactory:
    """Deterministic GUID generator.

    Real servents use random GUIDs; we derive them from a seeded stream so
    simulations replay exactly. Uniqueness is guaranteed by a 64-bit counter
    folded into the random bytes. Each GUID is 16 raw ``bytes``.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng or random.Random(0)
        self._counter = 0

    def new(self) -> bytes:
        self._counter += 1
        return (self._rng.getrandbits(64) << 64 | self._counter).to_bytes(16, "big")
