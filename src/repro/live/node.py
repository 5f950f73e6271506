"""One live overlay node: an asyncio UDP process speaking real Gnutella.

A :class:`LiveNode` is the *network* a single real
:class:`~repro.overlay.peer.Peer` lives in. The servent behaviour --
flooding, GUID dedup, capacity drops, content match, reverse-path
QueryHits, the per-neighbor In/Out minute windows -- is that ``Peer``,
the same class the DES runs; the node adds what only a real process has:

* **transport** -- an :class:`asyncio.DatagramProtocol` bound to one UDP
  socket; one overlay message per datagram via
  :func:`repro.core.wire.decode_message` / ``encode_message``;
  malformed datagrams are counted and dropped, never fatal. Received
  messages go to ``peer.on_message``; ``Peer._send`` comes back through
  :meth:`LiveNode.transmit` onto the socket.
* **liveness** -- periodic PING to every neighbor, PONG matched by GUID,
  bounded-backoff retries, and eviction of neighbors that stay silent
  (dead processes must not count as silent (0, 0) witnesses forever).
* **bootstrap** -- the PING/PONG join handshake below.
* **clock** -- :class:`~repro.live.clock.LiveClock` stands in for the
  DES scheduler, so minute rolls happen on the (compressed) wall clock.
* **roles** -- the Poisson workload calls ``peer.issue_query``; the
  *unmodified* :class:`repro.core.police.DDPoliceEngine` and, on the
  Fig-9/10/11 static flooder, the *unmodified*
  :class:`repro.attack.agent.DDoSAgent` run against this node as their
  ``network`` and its ``Peer`` as their peer.

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
from typing import Any, Collection, Dict, List, Optional, Tuple

from repro.attack.agent import AgentConfig, DDoSAgent
from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig, ExchangePolicy
from repro.core.police import DDPoliceEngine
from repro.core.wire import decode_message, encode_message
from repro.errors import ConfigError, ProtocolError, WireFormatError
from repro.live.clock import LiveClock, LiveTimer
from repro.live.ports import bind_udp_socket
from repro.obs.trace import JsonlSink, Tracer
from repro.overlay.content import ContentCatalog, ContentConfig
from repro.overlay.ids import GuidFactory, PeerId
from repro.overlay.message import Bye, Message, MessageKind, Ping, Pong, Query, QueryHit
from repro.overlay.peer import Peer
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
    #: Bound on the peer's seen-GUID cache and reverse-path table (the
    #: name ``Peer`` reads off its network's config).
    seen_cache_limit: int = 50_000
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
        if self.seen_cache_limit < 64:
            raise ConfigError(
                f"seen_cache_limit must be >= 64, got {self.seen_cache_limit}"
            )
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
    """Node-side counters reset at every minute roll (one JSONL record each)."""

    __slots__ = (
        "issued", "succeeded", "response_sum_s", "attack_sent", "sent",
        "received", "malformed", "unroutable", "evicted", "protocol_errors",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)
        self.response_sum_s = 0.0

    def as_fields(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}


#: ``live.minute`` field -> the lifetime ``PeerCounters`` field whose
#: growth since the previous roll it reports.
_PEER_MINUTE_FIELDS = {
    "dropped_capacity": "queries_dropped_capacity",
    "dropped_duplicate": "queries_dropped_duplicate",
    "dropped_ttl": "queries_dropped_ttl",
    "hits_generated": "hits_generated",
    "hits_routed": "hits_routed",
    "hits_dropped": "hits_dropped_no_route",
}


class LiveNode(asyncio.DatagramProtocol):
    """One overlay node over a real UDP socket.

    The node is the ``network`` of its one :class:`Peer` -- and of the
    DD-POLICE engine and DDoS agent attached to that peer. The surface
    they call is the part of ``OverlayNetwork`` a single process can
    mean: ``config.seen_cache_limit``, ``sim``, ``now``, ``guid_factory``,
    ``tracer``, ``minute_listeners``, ``peers``, ``transmit``,
    ``disconnect``, ``shared_objects``, ``match_content``, the four
    ``note_*`` bookkeeping calls and the attack-origin registration.
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

        self.peer = Peer(self.id, self, processing_qpm=config.capacity_qpm)
        self.peer.go_online()
        self.peers = {self.id: self.peer}
        self._counters_at_roll = dataclasses.replace(self.peer.counters)
        #: Own issued queries: guid -> issue time (success attribution).
        self._issued: "OrderedDict[bytes, float]" = OrderedDict()
        #: True while the DDoS agent is running: queries this node
        #: originates are attack traffic, not workload.
        self._attacking = False

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
        self._timers: List[LiveTimer] = []
        self._closing = False
        self.done = asyncio.Event()
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.engine = None
        self.agent: Optional[DDoSAgent] = None

    # ------------------------------------------------------------------
    # network facade (what Peer, DDPoliceEngine and DDoSAgent call)
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

    def shared_objects(self, pid: PeerId) -> Collection[int]:
        return self.catalog.peer_objects.get(pid.value, ())

    def match_content(self, pid: PeerId, query: Query) -> Optional[int]:
        obj = self.catalog.find_object(query.keywords)
        if obj is None:
            return None  # bogus attack keywords never resolve
        return obj if self.catalog.peer_has(pid.value, obj) else None

    def register_attack_origin(self, pid: PeerId) -> None:
        self._attacking = True

    def unregister_attack_origin(self, pid: PeerId) -> None:
        self._attacking = False

    def note_query_issued(self, origin: PeerId, msg: Query) -> None:
        if self._attacking:
            self._m.attack_sent += 1
            return
        self._m.issued += 1
        self._issued[msg.guid.raw] = self.now
        while len(self._issued) > ISSUED_CACHE_LIMIT:
            self._issued.popitem(last=False)

    def note_response_arrived(self, origin: PeerId, hit: QueryHit) -> None:
        issued_at = self._issued.pop(hit.query_guid.raw, None)
        if issued_at is not None:
            # First response to one of our own queries: success.
            self._m.succeeded += 1
            self._m.response_sum_s += max(0.0, self.now - issued_at)

    def note_query_dropped(self, pid: PeerId, msg: Query) -> None:
        """Counted by ``PeerCounters``; nothing network-wide to add."""

    def note_query_hit(self, responder: PeerId, query: Query, hit: QueryHit) -> None:
        """Counted by ``PeerCounters``; delivery is ``Peer._send``."""

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------
    def _add_link(self, nb: PeerId) -> None:
        if nb != self.id and nb not in self.peer.neighbors:
            self.peer.add_neighbor(nb)

    def _drop_link(self, nb: PeerId, reason_code: int) -> None:
        if nb in self.peer.neighbors:
            self._pending_ping.pop(nb, None)
            self.peer.remove_neighbor(nb, reason_code)

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
            elif not self._closing:
                if msg.kind is MessageKind.PONG:
                    pending = self._pending_ping.get(src)
                    if pending is not None and pending[0] == msg.guid.raw:
                        del self._pending_ping[src]
                elif msg.kind is MessageKind.BYE:
                    self._drop_link(src, msg.reason_code)
                self.peer.on_message(src, msg)
        except ProtocolError:
            # Semantically invalid but well-formed input from a remote
            # (e.g. a control message missing a required field): the
            # overlay must survive hostile peers, so count and drop.
            self._m.protocol_errors += 1

    def error_received(self, exc: Exception) -> None:
        # ICMP port-unreachable from a crashed peer; liveness will evict.
        del exc

    # ------------------------------------------------------------------
    # liveness + bootstrap (PING/PONG)
    # ------------------------------------------------------------------
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
        elif len(self.peer.neighbors) < self.config.max_degree:
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
        for nb in list(self.peer.neighbors):
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
    # workload
    # ------------------------------------------------------------------
    def _workload_tick(self) -> None:
        if self._closing:
            return
        if self.now >= 0 and self.peer.neighbors:
            obj = self.catalog.sample_object(self._rng)
            self.peer.issue_query(self.catalog.keywords_for(obj), ttl=self.config.ttl)
        self._schedule(
            self._rng.expovariate(self.config.queries_per_minute / 60.0),
            self._workload_tick,
        )

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
        self.peer.roll_minute_window()
        counters = dataclasses.replace(self.peer.counters)
        if self.tracer is not None:
            before = self._counters_at_roll
            self.tracer.event(
                "live.minute",
                t=now,
                node=self.id.value,
                minute=self._minute,
                agent=int(self.config.agent),
                neighbors=len(self.peer.neighbors),
                **self._m.as_fields(),
                **{
                    name: getattr(counters, attr) - getattr(before, attr)
                    for name, attr in _PEER_MINUTE_FIELDS.items()
                },
            )
        self._counters_at_roll = counters
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
            self.engine = DDPoliceEngine(
                self,
                self.peer,
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
            # Fig-9/10/11 static flooder, from the attack minute on.
            self.agent = DDoSAgent(
                self.sim,
                self,
                self.id,
                AgentConfig(
                    nominal_rate_qpm=self.config.attack_rate_qpm, ttl=self.config.ttl
                ),
            )
            attack_at = self.config.attack_start_min * 60.0
            self._schedule(max(start_gap, attack_at - self.now), self.agent.start)
        self._schedule(
            start_gap + self._rng.uniform(0.0, self.config.ping_period_s),
            self._ping_round,
        )

    def begin_shutdown(self, *, reason_code: int = Bye.REASON_NORMAL) -> None:
        """Graceful drain: Bye every neighbor, flush stats, close, exit."""
        if self._closing:
            return
        self._closing = True
        for nb in list(self.peer.neighbors):
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
        if self.agent is not None:
            self.agent.stop()
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
                neighbors=len(self.peer.neighbors),
                clean=1,
            )
            self.tracer.close()
        self.peer.go_offline()
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
