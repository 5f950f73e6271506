"""One live overlay node: an asyncio UDP process speaking real Gnutella.

A :class:`LiveNode` is the testbed counterpart of the DES
:class:`~repro.overlay.peer.Peer` plus its slice of
:class:`~repro.overlay.network.OverlayNetwork`:

* **transport** -- an :class:`asyncio.DatagramProtocol` bound to one UDP
  socket; one overlay message per datagram via :mod:`repro.live.wire`;
  malformed datagrams are counted and dropped, never fatal.
* **liveness** -- periodic PING to every neighbor, PONG matched by GUID,
  bounded-backoff retries, and eviction of neighbors that stay silent
  (dead processes must not count as silent (0, 0) witnesses forever).
* **flooding** -- QUERY handling mirrors ``Peer._on_query`` exactly:
  per-neighbor In/Out minute counters, GUID seen-set dedup (bounded
  LRU), token-bucket processing capacity, content match against the
  shared :class:`~repro.overlay.content.ContentCatalog`, reverse-path
  QueryHit routing, TTL-decremented forwarding.
* **DD-POLICE** -- the *unmodified* :class:`repro.core.police.DDPoliceEngine`
  runs on this node. The engine was written against the DES network/peer
  surfaces; ``LiveNode`` implements both (they share no attribute
  names), with :class:`~repro.live.clock.LiveClock` standing in for the
  DES scheduler so minute rolls happen on the (compressed) wall clock.
* **attack role** -- the Fig-9/10/11 static flooder: from the attack
  minute on, ``attack_rate_qpm`` bogus single-neighbor queries per
  protocol minute, round-robin over sorted neighbors with fractional
  carry -- the same batch arithmetic as
  :class:`repro.attack.agent.DDoSAgent`.

Peers are addressed two ways at once: a :class:`~repro.overlay.ids.PeerId`
on the wire (the protocol identity) and a ``(host, port)`` UDP address
(the transport identity). Supervised swarms distribute the full address
book up front; bootstrap mode learns the mapping from a three-way
PING/PONG join handshake with seed addresses (PONG is the only message
carrying a sender identity).

Run standalone with ``python -m repro.live.node --config node.json``;
the supervisor writes one such JSON per process.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import random
import signal
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig, ExchangePolicy
from repro.errors import ConfigError, ProtocolError, WireFormatError
from repro.evidence.dedup import ExactSeenCache
from repro.live.clock import LiveClock, LiveTimer
from repro.live.ports import bind_udp_socket
from repro.live.wire import decode_message, encode_message
from repro.obs.trace import JsonlSink, Tracer
from repro.overlay.capacity import TokenBucket
from repro.overlay.content import ContentCatalog, ContentConfig
from repro.overlay.ids import Guid, GuidFactory, PeerId
from repro.overlay.message import (
    Bye,
    Message,
    MessageKind,
    NeighborTrafficMessage,
    Ping,
    Pong,
    Query,
    QueryHit,
)
from repro.simkit.rng import derive_seed

Address = Tuple[str, int]

#: Bound on remembered own-query issue times (success attribution LRU).
ISSUED_CACHE_LIMIT = 10_000


@dataclass(frozen=True)
class NodeConfig:
    """Everything one node process needs, JSON-serializable.

    The supervisor writes one of these per node; a hand-started node
    needs only ``node_id``, ``host``/``port``, and either ``addresses``
    + ``neighbors`` (preassigned topology) or ``seeds`` (bootstrap).
    """

    node_id: int
    host: str = "127.0.0.1"
    port: int = 0
    #: Full address book: peer id -> (host, port). Supervised swarms
    #: know everyone up front; bootstrap nodes start with only seeds.
    addresses: Dict[int, Address] = field(default_factory=dict)
    #: Preassigned neighbor ids (the generated topology's adjacency).
    neighbors: Tuple[int, ...] = ()
    #: Seed addresses for bootstrap mode (used when ``neighbors`` is empty).
    seeds: Tuple[Address, ...] = ()
    #: Peer-id space size; sizes the shared content catalog.
    n_peers: int = 2
    #: Scenario length in protocol minutes; 0 = run until signalled.
    minutes: int = 0
    #: Wall seconds per protocol minute.
    minute_s: float = 60.0
    #: Unix time of protocol t=0 (shared across the swarm so minute
    #: windows align); 0 = now.
    start_at: float = 0.0
    seed: int = 0
    ttl: int = 7
    seen_cache: int = 50_000
    capacity_qpm: float = 10_000.0
    queries_per_minute: float = 0.0
    #: Attack role (Fig-9/10/11 static flooder).
    agent: bool = False
    attack_start_min: int = 0
    attack_rate_qpm: float = 0.0
    cheat_strategy: str = "honest"
    #: "none" or "ddpolice".
    defense: str = "none"
    #: DDPoliceConfig field overrides (exchange_policy as its string value).
    police: Dict[str, Any] = field(default_factory=dict)
    #: Liveness timing, protocol seconds.
    ping_period_s: float = 60.0
    ping_timeout_s: float = 15.0
    ping_retries: int = 3
    #: Degree cap when accepting bootstrap joins.
    max_degree: int = 64
    stats_path: Optional[str] = None
    run_id: Optional[str] = None
    #: Startup barrier: once the socket is bound, touch ``ready_file``
    #: and wait for ``start_file`` to appear with the swarm's shared
    #: protocol t=0 (written by the supervisor after every node is
    #: ready). Replaces guessing how long interpreter start-up takes.
    ready_file: Optional[str] = None
    start_file: Optional[str] = None

    def __post_init__(self) -> None:
        if not (0 <= self.node_id < 2**24):
            raise ConfigError(f"node_id out of PeerId range: {self.node_id}")
        if self.n_peers < 2:
            raise ConfigError(f"n_peers must be >= 2, got {self.n_peers}")
        if self.minute_s <= 0:
            raise ConfigError(f"minute_s must be positive, got {self.minute_s}")
        if self.minutes < 0:
            raise ConfigError(f"minutes must be non-negative, got {self.minutes}")
        if not (1 <= self.ttl <= 32):
            raise ConfigError(f"ttl out of range [1, 32]: {self.ttl}")
        if self.seen_cache < 64:
            raise ConfigError(f"seen_cache must be >= 64, got {self.seen_cache}")
        if self.capacity_qpm <= 0:
            raise ConfigError(f"capacity_qpm must be positive, got {self.capacity_qpm}")
        if self.queries_per_minute < 0 or self.attack_rate_qpm < 0:
            raise ConfigError("query rates must be non-negative")
        if self.ping_period_s <= 0 or self.ping_timeout_s <= 0:
            raise ConfigError("ping_period_s and ping_timeout_s must be positive")
        if self.ping_retries < 0:
            raise ConfigError(f"ping_retries must be non-negative, got {self.ping_retries}")
        if self.defense not in ("none", "ddpolice"):
            raise ConfigError(f"unknown defense: {self.defense!r}")
        if self.max_degree < 1:
            raise ConfigError(f"max_degree must be >= 1, got {self.max_degree}")

    def police_config(self) -> DDPoliceConfig:
        fields = dict(self.police)
        policy = fields.pop("exchange_policy", None)
        if policy is not None:
            fields["exchange_policy"] = ExchangePolicy(policy)
        return DDPoliceConfig(**fields)

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["addresses"] = {str(k): list(v) for k, v in self.addresses.items()}
        d["neighbors"] = list(self.neighbors)
        d["seeds"] = [list(s) for s in self.seeds]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "NodeConfig":
        d = dict(d)
        d["addresses"] = {
            int(k): (v[0], int(v[1])) for k, v in d.get("addresses", {}).items()
        }
        d["neighbors"] = tuple(int(n) for n in d.get("neighbors", ()))
        d["seeds"] = tuple((s[0], int(s[1])) for s in d.get("seeds", ()))
        return cls(**d)


class _MinuteStats:
    """Counters reset at every minute roll (one JSONL record each)."""

    __slots__ = (
        "issued", "succeeded", "response_sum_s", "attack_sent", "sent",
        "received", "malformed", "unroutable", "dropped_capacity",
        "dropped_duplicate", "dropped_ttl", "hits_generated", "hits_routed",
        "hits_dropped", "evicted", "protocol_errors",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)
        self.response_sum_s = 0.0

    def as_fields(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}


class LiveNode(asyncio.DatagramProtocol):
    """One overlay node over a real UDP socket.

    Doubles as the ``network`` *and* ``peer`` facade for the unmodified
    DD-POLICE engine: the network side is ``sim``/``now``/``guid_factory``
    /``tracer``/``minute_listeners``/``transmit``/``disconnect``, the
    peer side ``id``/``online``/``neighbors``/``send_control``/the hook
    lists/the minute snapshots. The two surfaces are disjoint, so one
    object can serve both without adapters.
    """

    def __init__(
        self,
        config: NodeConfig,
        loop: asyncio.AbstractEventLoop,
        *,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self._loop = loop
        self.id = PeerId(config.node_id)
        start_at = config.start_at or time.time()
        origin = loop.time() + (start_at - time.time())
        self.sim = LiveClock(loop, minute_s=config.minute_s, origin=origin)
        self._started = False
        self.guid_factory = GuidFactory(
            random.Random(derive_seed(config.seed, "guid", config.node_id))
        )
        self.tracer = tracer
        self.minute_listeners: List[Any] = []

        # Peer facade state (mirrors overlay.peer.Peer).
        self.neighbors: set = set()
        self.control_handlers: List[Any] = []
        self.disconnect_listeners: List[Any] = []
        self.connect_listeners: List[Any] = []
        self.out_query_window: Dict[PeerId, int] = {}
        self.in_query_window: Dict[PeerId, int] = {}
        self.last_minute_out: Dict[PeerId, int] = {}
        self.last_minute_in: Dict[PeerId, int] = {}
        self.processing = TokenBucket(rate_per_min=config.capacity_qpm)
        self._seen = ExactSeenCache(config.seen_cache)
        self._route_back: "OrderedDict[bytes, PeerId]" = OrderedDict()
        #: Own issued queries: guid -> issue time (success attribution).
        self._issued: "OrderedDict[bytes, float]" = OrderedDict()

        # Transport identity maps.
        self._addr_of: Dict[PeerId, Address] = {
            PeerId(pid): addr for pid, addr in config.addresses.items()
        }
        self._id_at: Dict[Address, PeerId] = {
            addr: pid for pid, addr in self._addr_of.items()
        }
        self._pending_join: Dict[Address, int] = {}

        self._rng = random.Random(derive_seed(config.seed, "node", config.node_id))
        self.catalog = ContentCatalog(
            ContentConfig(seed=derive_seed(config.seed, "content")), config.n_peers
        )

        # Liveness: neighbor -> (awaited pong guid, retry attempt).
        self._pending_ping: Dict[PeerId, Tuple[bytes, int]] = {}

        self._minute = 0
        self._m = _MinuteStats()
        self._attack_carry = 0.0
        self._attack_rr = 0
        self._attack_nonce = 0
        self._timers: List[LiveTimer] = []
        self._closing = False
        self.done = asyncio.Event()
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.engine = None

    # ------------------------------------------------------------------
    # network facade (what DDPoliceEngine calls "network")
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def transmit(self, src: PeerId, dst: PeerId, msg: Message) -> None:
        del src  # only this node sends from here
        self._send(dst, msg)

    def disconnect(
        self, a: PeerId, b: PeerId, reason_code: int = Bye.REASON_NORMAL
    ) -> None:
        """Drop *our* side of the link (the engine already sent the Bye)."""
        nb = b if a == self.id else a
        self._drop_link(nb, reason_code)

    # ------------------------------------------------------------------
    # peer facade (what DDPoliceEngine calls "peer")
    # ------------------------------------------------------------------
    @property
    def online(self) -> bool:
        return not self._closing

    def send_control(self, dst: PeerId, msg: Message) -> None:
        if dst not in self.neighbors and not isinstance(
            msg, (Bye, NeighborTrafficMessage)
        ):
            raise ProtocolError(f"{self.id} sending {msg.kind} to non-neighbor {dst}")
        self._send(dst, msg)

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------
    def _add_link(self, nb: PeerId) -> None:
        if nb == self.id or nb in self.neighbors:
            return
        self.neighbors.add(nb)
        self.out_query_window.setdefault(nb, 0)
        self.in_query_window.setdefault(nb, 0)
        for listener in list(self.connect_listeners):
            listener(nb)

    def _drop_link(self, nb: PeerId, reason_code: int) -> None:
        if nb not in self.neighbors:
            return
        self.neighbors.discard(nb)
        self.out_query_window.pop(nb, None)
        self.in_query_window.pop(nb, None)
        self._pending_ping.pop(nb, None)
        for listener in list(self.disconnect_listeners):
            listener(nb, reason_code)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:  # type: ignore[override]
        self.transport = transport

    def _sendto(self, raw: bytes, addr: Address) -> None:
        if self.transport is None or self.transport.is_closing():
            return
        self.transport.sendto(raw, addr)
        self._m.sent += 1

    def _send(self, dst: PeerId, msg: Message) -> None:
        addr = self._addr_of.get(dst)
        if addr is None:
            self._m.unroutable += 1
            return
        if msg.kind is MessageKind.QUERY and dst in self.neighbors:
            self.out_query_window[dst] = self.out_query_window.get(dst, 0) + 1
        self._sendto(encode_message(msg), addr)

    def datagram_received(self, data: bytes, addr: Address) -> None:
        try:
            msg = decode_message(data)
        except WireFormatError:
            self._m.malformed += 1
            return
        self._m.received += 1
        src = self._id_at.get(addr)
        try:
            if src is None:
                self._on_unknown_sender(addr, msg)
            else:
                self._dispatch(src, msg)
        except ProtocolError:
            # Semantically invalid but well-formed input from a remote
            # (e.g. a control message missing a required field): the
            # overlay must survive hostile peers, so count and drop.
            self._m.protocol_errors += 1

    def error_received(self, exc: Exception) -> None:
        # ICMP port-unreachable from a crashed peer; liveness will evict.
        del exc

    def _dispatch(self, src: PeerId, msg: Message) -> None:
        if self._closing:
            return
        kind = msg.kind
        if kind is MessageKind.QUERY:
            self._on_query(src, msg)
        elif kind is MessageKind.QUERY_HIT:
            self._on_query_hit(src, msg)
        elif kind is MessageKind.PING:
            self._on_ping(src, msg)
        elif kind is MessageKind.PONG:
            self._on_pong(src, msg)
        elif kind is MessageKind.BYE:
            self._drop_link(src, msg.reason_code)
            self._on_control(src, msg)
        else:  # NEIGHBOR_LIST / NEIGHBOR_TRAFFIC
            self._on_control(src, msg)

    def _on_control(self, src: PeerId, msg: Message) -> None:
        for handler in list(self.control_handlers):
            handler(src, msg)

    # ------------------------------------------------------------------
    # query plane (mirrors Peer._on_query / _on_query_hit)
    # ------------------------------------------------------------------
    def _remember_seen(self, guid: Guid) -> None:
        self._seen.add(guid.raw)

    def _on_query(self, src: PeerId, msg: Query) -> None:
        if src in self.neighbors:
            self.in_query_window[src] = self.in_query_window.get(src, 0) + 1
        key = msg.guid.raw
        if key in self._seen:
            self._m.dropped_duplicate += 1
            return
        self._remember_seen(msg.guid)
        self._route_back[key] = src
        while len(self._route_back) > self.config.seen_cache:
            self._route_back.popitem(last=False)

        if not self.processing.try_consume(self.now):
            self._m.dropped_capacity += 1
            return

        obj = self._match_content(msg)
        if obj is not None:
            self._m.hits_generated += 1
            hit = QueryHit(
                guid=self.guid_factory.new(),
                ttl=msg.hops + 1,
                hops=0,
                responder=self.id,
                result_count=1,
                query_guid=msg.guid,
            )
            self._send(src, hit)

        if msg.ttl <= 1:
            self._m.dropped_ttl += 1
            return
        fwd = msg.aged_copy()
        for nb in list(self.neighbors):
            if nb != src:
                self._send(nb, fwd)

    def _match_content(self, msg: Query) -> Optional[int]:
        obj = self.catalog.find_object(msg.keywords)
        if obj is None:
            return None  # bogus attack keywords never resolve
        return obj if self.catalog.peer_has(self.id.value, obj) else None

    def _on_query_hit(self, src: PeerId, msg: QueryHit) -> None:
        del src
        if msg.query_guid is None:
            raise ProtocolError("QueryHit without query_guid")
        key = msg.query_guid.raw
        back = self._route_back.get(key)
        if back is None:
            issued_at = self._issued.pop(key, None)
            if issued_at is not None:
                # First response to one of our own queries: success.
                self._m.succeeded += 1
                self._m.response_sum_s += max(0.0, self.now - issued_at)
            elif key not in self._seen:
                self._m.hits_dropped += 1
            return
        if back not in self.neighbors:
            self._m.hits_dropped += 1
            return
        self._m.hits_routed += 1
        self._send(back, msg.aged_copy() if msg.ttl > 0 else msg)

    # ------------------------------------------------------------------
    # liveness + bootstrap (PING/PONG)
    # ------------------------------------------------------------------
    def _on_ping(self, src: PeerId, msg: Ping) -> None:
        pong = Pong(
            guid=msg.guid,
            ttl=1,
            hops=0,
            responder=self.id,
            shared_files=len(self.catalog.peer_objects.get(self.id.value, ())),
        )
        self._send(src, pong)

    def _on_pong(self, src: PeerId, msg: Pong) -> None:
        pending = self._pending_ping.get(src)
        if pending is not None and pending[0] == msg.guid.raw:
            del self._pending_ping[src]
        self._on_control(src, msg)

    def _on_unknown_sender(self, addr: Address, msg: Message) -> None:
        """Join traffic from an address outside the book (bootstrap mode).

        PONG is the only message carrying a sender identity, so joining
        is a three-way handshake: joiner PINGs a seed; the seed PONGs
        back (no link yet -- it cannot name the joiner); the joiner adds
        the link and confirms with a PONG of its own, from which the
        seed learns the address mapping and reciprocates the link.
        """
        if msg.kind is MessageKind.PING:
            pong = Pong(
                guid=msg.guid, ttl=1, hops=0, responder=self.id, shared_files=0
            )
            self._sendto(encode_message(pong), addr)
            return
        if msg.kind is not MessageKind.PONG or msg.responder is None:
            self._m.unroutable += 1
            return
        pid = msg.responder
        if pid == self.id:
            return
        self._addr_of[pid] = addr
        self._id_at[addr] = pid
        if addr in self._pending_join:
            # Seed answered our join PING: link up and confirm.
            del self._pending_join[addr]
            self._add_link(pid)
            confirm = Pong(
                guid=self.guid_factory.new(), ttl=1, hops=0, responder=self.id
            )
            self._send(pid, confirm)
        elif len(self.neighbors) < self.config.max_degree:
            # A joiner's confirmation PONG: reciprocate the link.
            self._add_link(pid)
        else:
            bye = Bye(
                guid=self.guid_factory.new(),
                ttl=1,
                hops=0,
                reason_code=Bye.REASON_NORMAL,
                reason_text="full",
            )
            self._send(pid, bye)

    def _ping_round(self) -> None:
        if self._closing:
            return
        for addr in list(self._pending_join):
            # Unanswered join PINGs are re-sent every round.
            ping = Ping(guid=self.guid_factory.new(), ttl=1)
            self._sendto(encode_message(ping), addr)
        for nb in list(self.neighbors):
            if nb in self._pending_ping:
                continue  # retry chain already running
            self._send_liveness_ping(nb, 0)
        jitter = self._rng.uniform(0.0, self.config.ping_period_s / 10.0)
        self._schedule(self.config.ping_period_s + jitter, self._ping_round)

    def _send_liveness_ping(self, nb: PeerId, attempt: int) -> None:
        ping = Ping(guid=self.guid_factory.new(), ttl=1)
        self._pending_ping[nb] = (ping.guid.raw, attempt)
        self._send(nb, ping)
        # Bounded backoff: timeout doubles per retry, capped at the period.
        timeout = min(
            self.config.ping_timeout_s * (2**attempt), self.config.ping_period_s
        )
        self._schedule(timeout, self._ping_timeout, nb, ping.guid.raw)

    def _ping_timeout(self, nb: PeerId, guid_raw: bytes) -> None:
        if self._closing:
            return
        pending = self._pending_ping.get(nb)
        if pending is None or pending[0] != guid_raw:
            return  # answered, or superseded by a newer ping
        attempt = pending[1] + 1
        if attempt > self.config.ping_retries:
            del self._pending_ping[nb]
            self._m.evicted += 1
            self._drop_link(nb, Bye.REASON_NORMAL)
            return
        self._send_liveness_ping(nb, attempt)

    # ------------------------------------------------------------------
    # workload + attack
    # ------------------------------------------------------------------
    def _issue_query(self, keywords: Tuple[str, ...], target: Optional[PeerId]) -> None:
        msg = Query(
            guid=self.guid_factory.new(), ttl=self.config.ttl, hops=0, keywords=keywords
        )
        self._remember_seen(msg.guid)
        if target is None:
            self._issued[msg.guid.raw] = self.now
            while len(self._issued) > ISSUED_CACHE_LIMIT:
                self._issued.popitem(last=False)
            self._m.issued += 1
            for nb in list(self.neighbors):
                self._send(nb, msg)
        else:
            self._m.attack_sent += 1
            self._send(target, msg)

    def _workload_tick(self) -> None:
        if self._closing:
            return
        if self.now >= 0 and self.neighbors:
            obj = self.catalog.sample_object(self._rng)
            self._issue_query(self.catalog.keywords_for(obj), None)
        self._schedule(
            self._rng.expovariate(self.config.queries_per_minute / 60.0),
            self._workload_tick,
        )

    def _attack_tick(self) -> None:
        """One 1-protocol-second flooder batch (DDoSAgent arithmetic)."""
        if self._closing:
            return
        targets = sorted(self.neighbors, key=lambda p: p.value)
        if targets:
            per_batch = self.config.attack_rate_qpm / 60.0 + self._attack_carry
            count = int(per_batch)
            self._attack_carry = per_batch - count
            for i in range(count):
                nb = targets[(self._attack_rr + i) % len(targets)]
                self._attack_nonce += 1
                keywords = ("bogus", f"x{self.id.value}n{self._attack_nonce}")
                self._issue_query(keywords, nb)
            self._attack_rr += count
        self._schedule(1.0, self._attack_tick)

    # ------------------------------------------------------------------
    # minute roll + stats
    # ------------------------------------------------------------------
    def _schedule(self, delay: float, fn, *args) -> LiveTimer:
        timer = self.sim.schedule_in(delay, fn, *args)
        self._timers.append(timer)
        if len(self._timers) > 256:
            self._timers = [t for t in self._timers if t.pending]
        return timer

    def _roll_minute(self) -> None:
        if self._closing:
            return
        self._minute += 1
        now = self.now
        out_snap = dict(self.out_query_window)
        in_snap = dict(self.in_query_window)
        for k in self.out_query_window:
            self.out_query_window[k] = 0
        for k in self.in_query_window:
            self.in_query_window[k] = 0
        self.last_minute_out = out_snap
        self.last_minute_in = in_snap

        if self.tracer is not None:
            self.tracer.event(
                "live.minute",
                t=now,
                node=self.id.value,
                minute=self._minute,
                agent=int(self.config.agent),
                neighbors=len(self.neighbors),
                **self._m.as_fields(),
            )
        self._m = _MinuteStats()

        for listener in list(self.minute_listeners):
            listener(self._minute, now)

        if self.config.minutes and self._minute >= self.config.minutes:
            self._loop.call_soon(self.begin_shutdown)
        else:
            self._schedule_minute_roll()

    def _schedule_minute_roll(self) -> None:
        target = (self._minute + 1) * 60.0
        self._schedule(max(0.0, target - self.now), self._roll_minute)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def rebase(self, start_at: float) -> None:
        """Re-anchor protocol t=0 at unix time ``start_at``.

        Used by the supervised startup barrier: the shared start instant
        is only known once every node in the swarm is up, which is after
        this node's constructor ran. Must be called before :meth:`start`.
        """
        if self._started:
            raise ConfigError("rebase() must run before start()")
        self.sim.origin = self._loop.time() + (start_at - time.time())

    def start(self) -> None:
        """Arm timers and the defense; call once the endpoint is up."""
        self._started = True
        for nb_int in self.config.neighbors:
            self._add_link(PeerId(nb_int))
        for seed_addr in self.config.seeds:
            if seed_addr != (self.config.host, self.config.port):
                self._pending_join[seed_addr] = 0
                ping = Ping(guid=self.guid_factory.new(), ttl=1)
                self._sendto(encode_message(ping), seed_addr)

        if self.config.defense == "ddpolice":
            from repro.core.police import DDPoliceEngine

            self.engine = DDPoliceEngine(
                self,
                self,
                self.config.police_config(),
                cheat_strategy=CheatStrategy(self.config.cheat_strategy),
                rng=random.Random(
                    derive_seed(self.config.seed, "police", self.config.node_id)
                ),
            )

        self._schedule_minute_roll()
        start_gap = max(0.0, -self.now)
        if self.config.queries_per_minute > 0:
            self._schedule(
                start_gap
                + self._rng.expovariate(self.config.queries_per_minute / 60.0),
                self._workload_tick,
            )
        if self.config.agent and self.config.attack_rate_qpm > 0:
            attack_at = self.config.attack_start_min * 60.0
            self._schedule(max(start_gap, attack_at - self.now), self._attack_tick)
        self._schedule(
            start_gap + self._rng.uniform(0.0, self.config.ping_period_s),
            self._ping_round,
        )

    def begin_shutdown(self, *, reason_code: int = Bye.REASON_NORMAL) -> None:
        """Graceful drain: Bye every neighbor, flush stats, close, exit."""
        if self._closing:
            return
        self._closing = True
        for nb in list(self.neighbors):
            bye = Bye(
                guid=self.guid_factory.new(),
                ttl=1,
                hops=0,
                reason_code=reason_code,
                reason_text="drain",
            )
            self._send(nb, bye)
        if self.engine is not None:
            self.engine.stop()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        if self.tracer is not None:
            self.tracer.event(
                "live.final",
                t=self.now,
                node=self.id.value,
                agent=int(self.config.agent),
                minutes=self._minute,
                neighbors=len(self.neighbors),
                clean=1,
            )
            self.tracer.close()
        if self.transport is not None:
            self.transport.close()
        self.done.set()


#: How long a supervised node waits for the start barrier to resolve.
START_BARRIER_TIMEOUT_S = 120.0


async def _await_start(node: "LiveNode", path: str) -> None:
    """Wait for the supervisor's start file, then re-anchor the clock.

    The file is written atomically, so appearance implies completeness.
    A SIGTERM during the barrier (``node.done`` set) aborts the wait.
    """
    deadline = time.monotonic() + START_BARRIER_TIMEOUT_S
    while not node.done.is_set():
        try:
            with open(path, "r", encoding="utf-8") as fh:
                start_at = float(json.load(fh)["start_at"])
        except (OSError, ValueError, KeyError):
            if time.monotonic() > deadline:
                raise ConfigError(f"start barrier never resolved: {path}")
            await asyncio.sleep(0.02)
            continue
        node.rebase(start_at)
        return


async def run_node(config: NodeConfig) -> None:
    """Bind, run to completion (or signal), drain cleanly."""
    loop = asyncio.get_running_loop()
    sock = bind_udp_socket(config.host, config.port)
    sock.setblocking(False)
    tracer = None
    if config.stats_path:
        tracer = Tracer(sinks=[JsonlSink(config.stats_path)], run=config.run_id)
    node = LiveNode(config, loop, tracer=tracer)
    await loop.create_datagram_endpoint(lambda: node, sock=sock)
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, node.begin_shutdown)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    if config.ready_file:
        with open(config.ready_file, "w", encoding="utf-8") as fh:
            fh.write("ready\n")
    if config.start_file:
        await _await_start(node, config.start_file)
    if not node.done.is_set():
        node.start()
    await node.done.wait()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live.node", description="Run one live overlay node."
    )
    parser.add_argument(
        "--config", required=True, help="Path to the node's JSON config."
    )
    opts = parser.parse_args(argv)
    with open(opts.config, "r", encoding="utf-8") as fh:
        config = NodeConfig.from_dict(json.load(fh))
    try:
        asyncio.run(run_node(config))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
