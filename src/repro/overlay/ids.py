"""Peer identifiers and Gnutella message GUIDs.

A :class:`PeerId` doubles as a synthetic IPv4 address (the Neighbor_Traffic
wire format of Table 1 carries 4-byte IP addresses); :class:`Guid` is the
16-byte message identifier used for flooding duplicate suppression.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, order=True)
class PeerId:
    """Identity of a peer in the overlay.

    The integer ``value`` is mapped to a synthetic IPv4 address in
    ``10.0.0.0/8`` for wire encoding; it is *not* visible in Query/QueryHit
    messages (the anonymity property Section 2.1 relies on).

    The hash is computed once at construction (peers are dict/set keys on
    every delivery). Its value must stay ``hash((value,))``, what the
    dataclass would generate: DES fan-out order follows ``set[PeerId]``
    iteration order, and the ``des-soa`` engine replays it with sets of
    1-tuples ``(value,)``, which iterate alike because they hash alike.

    Ids are canonical inside one ``OverlayNetwork``: the objects that key
    ``network.peers`` are the ones wired into every neighbor set, so dict
    and set probes with an id out of a message, directory or route table
    hit on identity without calling ``__eq__``. Equality is still by value:
    ids decoded off the wire (``repro.live``) or written as literals work.
    """

    value: int

    def __post_init__(self) -> None:
        if not (0 <= self.value < 2**24):
            raise ValueError(f"PeerId out of range [0, 2^24): {self.value}")
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self.value == other.value  # type: ignore[attr-defined]
        return NotImplemented

    @property
    def ipv4(self) -> str:
        """Dotted-quad synthetic address, e.g. ``10.1.2.3``."""
        v = self.value
        return f"10.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def ipv4_bytes(self) -> bytes:
        """4-byte big-endian address for the Table 1 wire format."""
        return bytes([10, (self.value >> 16) & 0xFF, (self.value >> 8) & 0xFF, self.value & 0xFF])

    @classmethod
    def from_ipv4_bytes(cls, raw: bytes) -> "PeerId":
        if len(raw) != 4:
            raise ValueError(f"expected 4 address bytes, got {len(raw)}")
        if raw[0] != 10:
            raise ValueError(f"synthetic addresses live in 10.0.0.0/8, got first octet {raw[0]}")
        return cls((raw[1] << 16) | (raw[2] << 8) | raw[3])

    def __repr__(self) -> str:
        return f"PeerId({self.value})"

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True)
class Guid:
    """16-byte Gnutella message GUID."""

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != 16:
            raise ValueError(f"GUID must be 16 bytes, got {len(self.raw)}")

    def hex(self) -> str:
        return self.raw.hex()

    def __repr__(self) -> str:
        return f"Guid({self.raw.hex()[:8]}...)"


class GuidFactory:
    """Deterministic GUID generator.

    Real servents use random GUIDs; we derive them from a seeded stream so
    simulations replay exactly. Uniqueness is guaranteed by a 64-bit counter
    folded into the random bytes.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng or random.Random(0)
        self._counter = 0

    def new(self) -> Guid:
        self._counter += 1
        return Guid((self._rng.getrandbits(64) << 64 | self._counter).to_bytes(16, "big"))
