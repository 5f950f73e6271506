"""Message-level overlay peer.

Implements the Gnutella servent behaviour the paper's Section 2 relies on:

* flooding with TTL decrement and GUID-based duplicate suppression
  ("a query message will be dropped if the query message has visited the
  peer before" -- [15] as quoted in Section 2.2);
* reverse-path QueryHit routing ("the query response is only delivered to
  the neighbor along the inverse path of the search path"). Both read
  one bounded GUID table (:class:`~repro.evidence.dedup.ExactSeenCache`):
  a GUID maps to the neighbor its query arrived from, or to the peer's
  own id when the peer issued it, so a route is evicted with its GUID;
* capacity-limited processing (Section 2.3: drops begin when incoming load
  exceeds the processing rate);
* per-neighbor per-minute In/Out query counters, the raw observable that
  both the DD-POLICE monitor and the fluid engine expose.

Application behaviour (issuing queries, attacking, policing) is attached
via hook callbacks so the same peer class hosts good peers, DDoS agents,
and DD-POLICE-enabled peers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.evidence.dedup import ExactSeenCache
from repro.overlay.capacity import TokenBucket
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

if TYPE_CHECKING:  # pragma: no cover
    from repro.overlay.network import OverlayNetwork


class PeerState(enum.Enum):
    OFFLINE = "offline"
    ONLINE = "online"


@dataclass
class PeerCounters:
    """Lifetime counters for one peer (monotone, never reset)."""

    queries_issued: int = 0
    queries_forwarded: int = 0
    queries_received: int = 0
    queries_dropped_capacity: int = 0
    queries_dropped_duplicate: int = 0
    queries_dropped_ttl: int = 0
    hits_generated: int = 0
    hits_routed: int = 0
    hits_dropped_no_route: int = 0


class Peer:
    """One overlay node.

    Hooks
    -----
    ``control_handler(neighbor, message)``
        Receives Pong / NeighborList / NeighborTraffic / Bye control
        messages.
    ``disconnect_listener(neighbor, reason)`` / ``connect_listener(neighbor)``
        Told about every closed / opened connection.

    Query traffic needs no hook: DD-POLICE reads the per-neighbor
    In/Out windows the network rolls every minute.
    """

    __slots__ = (
        "id",
        "network",
        "state",
        "neighbors",
        "_neighbor_list",
        "processing",
        "counters",
        "_seen",
        "out_query_window",
        "in_query_window",
        "last_minute_out",
        "last_minute_in",
        "control_handlers",
        "disconnect_listeners",
        "connect_listeners",
    )

    def __init__(
        self,
        peer_id: PeerId,
        network: "OverlayNetwork",
        *,
        processing_qpm: float = 10_000.0,
    ) -> None:
        self.id = peer_id
        self.network = network
        self.state = PeerState.OFFLINE
        self.neighbors: Set[PeerId] = set()
        self._neighbor_list: Optional[FrozenSet[PeerId]] = None
        self.processing = TokenBucket(rate_per_min=processing_qpm)
        self.counters = PeerCounters()

        # GUID -> neighbor the query arrived from (the reverse path), or
        # this peer's id for its own issues; oldest-first eviction past
        # the network's validated seen_cache_limit.
        self._seen = ExactSeenCache(network.config.seen_cache_limit)

        # Per-neighbor per-current-minute counters (rolled by the network).
        self.out_query_window: Dict[PeerId, int] = {}
        self.in_query_window: Dict[PeerId, int] = {}
        # Snapshots of the most recently completed minute window.
        self.last_minute_out: Dict[PeerId, int] = {}
        self.last_minute_in: Dict[PeerId, int] = {}

        # Hooks.
        self.control_handlers: List[Callable[[PeerId, Message], None]] = []
        self.disconnect_listeners: List[Callable[[PeerId, int], None]] = []
        self.connect_listeners: List[Callable[[PeerId], None]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def go_online(self) -> None:
        self.state = PeerState.ONLINE

    def go_offline(self) -> None:
        self.state = PeerState.OFFLINE
        self.neighbors.clear()
        self._neighbor_list = None
        self._seen.clear()
        self.out_query_window.clear()
        self.in_query_window.clear()
        # The completed-minute snapshots describe connections that no
        # longer exist; a rejoining peer must not report pre-departure
        # traffic to DD-POLICE.
        self.last_minute_out = {}
        self.last_minute_in = {}

    @property
    def online(self) -> bool:
        return self.state is PeerState.ONLINE

    # ------------------------------------------------------------------
    # neighbor management
    # ------------------------------------------------------------------
    @property
    def neighbor_list(self) -> FrozenSet[PeerId]:
        """The neighbor list this peer publishes: ``frozenset(neighbors)``.

        Built once per neighbor-set version and shared by every message
        and every directory that stores it, so n observers of one list
        hold one object. The three mutators drop it, so it is always a
        frozenset of the set as it is now and iterates exactly like a
        per-message copy would.
        """
        published = self._neighbor_list
        if published is None:
            published = self._neighbor_list = frozenset(self.neighbors)
        return published

    def add_neighbor(self, other: PeerId) -> None:
        if other == self.id:
            raise ProtocolError(f"peer {self.id} cannot neighbor itself")
        self.neighbors.add(other)
        self._neighbor_list = None
        self.out_query_window.setdefault(other, 0)
        self.in_query_window.setdefault(other, 0)
        for listener in self.connect_listeners:
            listener(other)

    def remove_neighbor(self, other: PeerId, reason_code: int = Bye.REASON_NORMAL) -> None:
        self.neighbors.discard(other)
        self._neighbor_list = None
        self.out_query_window.pop(other, None)
        self.in_query_window.pop(other, None)
        for listener in self.disconnect_listeners:
            listener(other, reason_code)

    # ------------------------------------------------------------------
    # per-minute window rollover (driven by the network clock)
    # ------------------------------------------------------------------
    def roll_minute_window(self) -> Tuple[Dict[PeerId, int], Dict[PeerId, int]]:
        """Snapshot and reset the per-minute In/Out counters.

        Returns ``(out_snapshot, in_snapshot)``; DD-POLICE's monitor keeps
        the history it needs from these snapshots.
        """
        out_snap = dict(self.out_query_window)
        in_snap = dict(self.in_query_window)
        for k in self.out_query_window:
            self.out_query_window[k] = 0
        for k in self.in_query_window:
            self.in_query_window[k] = 0
        self.last_minute_out = out_snap
        self.last_minute_in = in_snap
        return out_snap, in_snap

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _send(self, dst: PeerId, msg: Message) -> None:
        # Count only current neighbors: otherwise a send racing a
        # disconnect would resurrect the departed neighbor's counter key,
        # and the ghost entry would haunt every later minute snapshot
        # (roll_minute_window zeroes keys, it never prunes them).
        if msg.kind is MessageKind.QUERY and dst in self.neighbors:
            self.out_query_window[dst] = self.out_query_window.get(dst, 0) + 1
        self.network.transmit(self.id, dst, msg)

    def issue_query(self, keywords: Tuple[str, ...]) -> bytes:
        """Originate a query at the network's TTL and flood it to all neighbors."""
        if not self.online:
            raise ProtocolError(f"offline peer {self.id} cannot issue queries")
        msg = Query(
            guid=self.network.guid_factory.new(),
            ttl=self.network.config.default_ttl,
            hops=0,
            keywords=keywords,
        )
        self.counters.queries_issued += 1
        self._seen.add(msg.guid, self.id)
        self.network.note_query_issued(self.id, msg)
        for nb in list(self.neighbors):
            self._send(nb, msg)
        return msg.guid

    def originate_query_to(
        self,
        neighbor: PeerId,
        keywords: Tuple[str, ...],
    ) -> bytes:
        """Originate a query toward a *single* neighbor.

        This is the attack pattern of Section 2.1 / Figure 1: "Instead of
        flooding the same queries to all its neighbors, a bad peer issues
        different queries to its neighboring peers in order to make DDoS
        attacks more damaging." Legit clients never do this, but the
        receiving side cannot tell (queries carry no source address).
        """
        if not self.online:
            raise ProtocolError(f"offline peer {self.id} cannot issue queries")
        if neighbor not in self.neighbors:
            raise ProtocolError(f"{neighbor} is not a neighbor of {self.id}")
        msg = Query(
            guid=self.network.guid_factory.new(),
            ttl=self.network.config.default_ttl,
            hops=0,
            keywords=keywords,
        )
        self.counters.queries_issued += 1
        self._seen.add(msg.guid, self.id)
        self.network.note_query_issued(self.id, msg)
        self._send(neighbor, msg)
        return msg.guid

    def send_control(self, dst: PeerId, msg: Message) -> None:
        """Send a non-query message (control plane)."""
        if dst not in self.neighbors and not isinstance(msg, (Bye, NeighborTrafficMessage)):
            raise ProtocolError(
                f"{self.id} sending {msg.kind} to non-neighbor {dst}"
            )
        self._send(dst, msg)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_message(self, src: PeerId, msg: Message) -> None:
        """Entry point for all deliveries (called by the network).

        Dispatch is a table (see ``_DISPATCH`` below) rather than an
        isinstance chain: one dict hit on ``type(msg)`` per delivery.
        """
        if self.state is not PeerState.ONLINE:
            return
        handler = self._DISPATCH.get(type(msg))
        if handler is None:  # pragma: no cover - future message kinds
            raise ProtocolError(f"unhandled message kind {msg.kind}")
        handler(self, src, msg)

    def _on_control(self, src: PeerId, msg: Message) -> None:
        for handler in self.control_handlers:
            handler(src, msg)

    def _on_ping(self, src: PeerId, msg: Ping) -> None:
        pong = Pong(
            guid=msg.guid,
            ttl=1,
            hops=0,
            responder=self.id,
            shared_files=len(self.network.shared_objects(self.id)),
        )
        self._send(src, pong)

    def _on_query(self, src: PeerId, msg: Query) -> None:
        self.counters.queries_received += 1
        # In-flight queries delivered after remove_neighbor must not
        # re-create the departed neighbor's counter key (see _send).
        if src in self.neighbors:
            self.in_query_window[src] = self.in_query_window.get(src, 0) + 1

        seen = self._seen
        if seen.get(msg.guid) is not None:
            self.counters.queries_dropped_duplicate += 1
            return
        seen.add(msg.guid, src)

        # Capacity check: a saturated peer drops the query entirely
        # (Section 2.3: peer B starts discarding above ~15,000/min).
        if not self.processing.try_consume(self.network.now):
            self.counters.queries_dropped_capacity += 1
            self.network.note_query_dropped(self.id, msg)
            return

        # Local lookup -> QueryHit on the reverse path.
        hit_obj = self.network.match_content(self.id, msg)
        if hit_obj is not None:
            self.counters.hits_generated += 1
            hit = QueryHit(
                guid=self.network.guid_factory.new(),
                ttl=msg.hops + 1,
                hops=0,
                responder=self.id,
                result_count=1,
                query_guid=msg.guid,
            )
            self.network.note_query_hit(self.id, msg, hit)
            self._send(src, hit)

        # Forward to all other neighbors if TTL remains.
        if msg.ttl <= 1:
            self.counters.queries_dropped_ttl += 1
            return
        fwd = msg.aged_copy()
        targets = [nb for nb in self.neighbors if nb != src]
        for nb in targets:
            self.counters.queries_forwarded += 1
            self._send(nb, fwd)

    def _on_query_hit(self, src: PeerId, msg: QueryHit) -> None:
        if msg.query_guid is None:
            raise ProtocolError("QueryHit without query_guid")
        back = self._seen.get(msg.query_guid)
        if back is self.id:  # our own query
            self.network.note_response_arrived(self.id, msg)
            return
        # Unseen, evicted, or the neighbor it came from has left.
        if back is None or back not in self.neighbors:
            self.counters.hits_dropped_no_route += 1
            return
        self.counters.hits_routed += 1
        self._send(back, msg.aged_copy() if msg.ttl > 0 else msg)

    def has_seen(self, guid: bytes) -> bool:
        return guid in self._seen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Peer({self.id.value}, deg={len(self.neighbors)}, {self.state.value})"

    #: Receive dispatch (class-level; instances stay slotted), keyed by
    #: message class: a type hashes in C, ``MessageKind.__hash__`` is a
    #: Python frame per delivery.
    _DISPATCH = {
        Query: _on_query,
        QueryHit: _on_query_hit,
        Ping: _on_ping,
        Pong: _on_control,
        NeighborListMessage: _on_control,
        NeighborTrafficMessage: _on_control,
        Bye: _on_control,
    }
