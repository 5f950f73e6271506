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
  (dead processes must not count as silent (0, 0) witnesses forever);
  timing is the module constants :data:`PING_PERIOD_S`,
  :data:`PING_TIMEOUT_S` and :data:`PING_RETRIES`.
* **clock** -- :class:`~repro.live.clock.LiveClock` stands in for the
  DES scheduler, so minute rolls happen on the (compressed) wall clock.
* **roles** -- the Poisson workload calls ``peer.issue_query``; the
  *unmodified* :class:`repro.core.police.DDPoliceEngine` and, on the
  Fig-9/10/11 static flooder, the *unmodified*
  :class:`repro.attack.agent.DDoSAgent` run against this node as their
  ``network`` and its ``Peer`` as their peer.

Peers are addressed two ways at once: a :class:`~repro.overlay.ids.PeerId`
on the wire (the protocol identity) and a ``(host, port)`` UDP address
(the transport identity). The supervisor distributes the full address
book up front, and the node never learns or rebinds a mapping: a
datagram from an address outside the book is counted as ``unroutable``
and dropped unanswered.

A node runs one :class:`~repro.experiments.spec.Case`: its
:class:`NodeConfig` holds that case plus the facts that differ per node,
and the node floods with the case's
:func:`~repro.experiments.spec.network_config`, as the des backends do.
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
from dataclasses import dataclass
from typing import Any, Collection, Dict, List, Optional, Tuple

from repro.attack.agent import AgentConfig, DDoSAgent
from repro.attack.cheating import CheatStrategy
from repro.core.police import DDPoliceEngine
from repro.core.wire import decode_message, encode_message
from repro.errors import ConfigError, ProtocolError, WireFormatError
from repro.experiments.spec import Case, build_dataclass, network_config
from repro.faults.plan import FaultPlan
from repro.live.clock import LiveClock, LiveTimer
from repro.live.ports import bind_udp_socket
from repro.obs.manifest import jsonable_config
from repro.obs.trace import JsonlSink, Tracer
from repro.overlay.content import ContentCatalog, ContentConfig
from repro.overlay.ids import GuidFactory, PeerId
from repro.overlay.message import Bye, Message, MessageKind, Ping, Query, QueryHit
from repro.overlay.peer import Peer
from repro.simkit.rng import derive_seed

Address = Tuple[str, int]

#: Bound on remembered own-query issue times (success attribution LRU).
ISSUED_CACHE_LIMIT = 10_000

#: Link liveness, in protocol seconds (compressed like every timer): a
#: PING to each neighbor every period; a missed PONG is retried with a
#: doubling timeout, capped at the period, up to PING_RETRIES times
#: before the neighbor is evicted.
PING_PERIOD_S = 60.0
PING_TIMEOUT_S = 15.0
PING_RETRIES = 3


def reject_unsupported(case: Case) -> None:
    """Raise :class:`ConfigError` for a case feature live nodes cannot run.

    A node checks its case on construction, so a hand-started node fails
    as loudly as ``repro run --backend live`` does.
    """
    if case.faults != FaultPlan():
        raise ConfigError(
            "backend 'live' cannot inject fault schedules (DES only)"
        )
    if case.adaptive.strategy != "static":
        raise ConfigError(
            f"backend 'live' cannot simulate adaptive strategy "
            f"{case.adaptive.strategy!r} (DES only)"
        )
    if case.defense == "naive":
        raise ConfigError("backend 'live' has no naive defense (DES only)")
    if case.workload.cheat is CheatStrategy.COLLUDE:
        raise ConfigError(
            "backend 'live' cannot simulate cheat_strategy 'collude' (DES only)"
        )
    if case.trace_path is not None:
        raise ConfigError(
            "backend 'live' has per-node JSONL stats; --trace is des/fluid only"
        )


@dataclass(frozen=True)
class NodeConfig:
    """One node process: the case its swarm runs plus its own place in it.

    Every run parameter -- length, pacing, rates, defense, police -- is
    read off ``case``; the other fields are what differs per node. The
    supervisor writes one of these per node as JSON; a hand-started node
    needs ``node_id``, ``addresses``, ``neighbors`` and ``case``.
    """

    node_id: int
    #: Full address book: peer id -> (host, port), known up front; the
    #: node binds ``addresses[node_id]``, and its size is the peer-id
    #: space the content catalog is built over.
    addresses: Dict[int, Address]
    #: Preassigned neighbor ids (the generated topology's adjacency).
    neighbors: Tuple[int, ...]
    case: Case
    #: Attack role (Fig-9/10/11 static flooder).
    agent: bool = False
    #: Unix time of protocol t=0 (shared across the swarm so minute
    #: windows align); 0 = now.
    start_at: float = 0.0
    stats_path: Optional[str] = None
    #: Startup barrier: once the socket is bound, touch ``ready_file``
    #: and wait for ``start_file`` to appear with the swarm's shared
    #: protocol t=0 (written by the supervisor after every node is
    #: ready). Replaces guessing how long interpreter start-up takes.
    ready_file: Optional[str] = None
    start_file: Optional[str] = None

    def __post_init__(self) -> None:
        if self.node_id not in self.addresses:
            raise ConfigError(f"node {self.node_id} is not in its address book")
        reject_unsupported(self.case)

    def to_dict(self) -> Dict[str, Any]:
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        d["addresses"] = {str(k): list(v) for k, v in self.addresses.items()}
        d["neighbors"] = list(self.neighbors)
        d["case"] = jsonable_config(self.case)
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "NodeConfig":
        d = dict(d)
        d["addresses"] = {int(k): (v[0], int(v[1])) for k, v in d["addresses"].items()}
        d["neighbors"] = tuple(int(n) for n in d["neighbors"])
        d["case"] = build_dataclass(Case, d["case"], path="case")
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
    mean: ``config`` (the case's :class:`NetworkConfig`: TTL, seen-cache
    bound, capacity), ``sim``, ``now``, ``guid_factory``,
    ``tracer``, ``minute_listeners``, ``peers``, ``transmit``,
    ``disconnect``, ``shared_objects``, ``match_content``, the four
    ``note_*`` bookkeeping calls and the attack-origin registration.
    """

    def __init__(
        self,
        node_config: NodeConfig,
        loop: asyncio.AbstractEventLoop,
        *,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.node_config = node_config
        self.case = case = node_config.case
        self.config = network_config(case)
        self._loop = loop
        self.id = PeerId(node_config.node_id)
        start_at = node_config.start_at or time.time()
        origin = loop.time() + (start_at - time.time())
        self.sim = LiveClock(loop, minute_s=case.live.minute_s, origin=origin)
        self._started = False
        self.guid_factory = GuidFactory(
            random.Random(derive_seed(case.seed, "guid", node_config.node_id))
        )
        self.tracer = tracer
        self.minute_listeners: List[Any] = []

        self.peer = Peer(self.id, self, processing_qpm=self.config.processing_qpm_good)
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
            PeerId(pid): addr for pid, addr in node_config.addresses.items()
        }
        self._id_at: Dict[Address, PeerId] = {
            addr: pid for pid, addr in self._addr_of.items()
        }

        self._rng = random.Random(derive_seed(case.seed, "node", node_config.node_id))
        self.catalog = ContentCatalog(
            ContentConfig(seed=derive_seed(case.seed, "content")),
            len(node_config.addresses),
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
        self._issued[msg.guid] = self.now
        while len(self._issued) > ISSUED_CACHE_LIMIT:
            self._issued.popitem(last=False)

    def note_response_arrived(self, origin: PeerId, hit: QueryHit) -> None:
        issued_at = self._issued.pop(hit.query_guid, None)
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

    def _send(self, dst: PeerId, msg: Message) -> None:
        addr = self._addr_of.get(dst)
        if addr is None:
            self._m.unroutable += 1
            return
        if self.transport is None or self.transport.is_closing():
            return
        self.transport.sendto(encode_message(msg), addr)
        self._m.sent += 1

    def datagram_received(self, data: bytes, addr: Address) -> None:
        try:
            msg = decode_message(data)
        except WireFormatError:
            self._m.malformed += 1
            return
        self._m.received += 1
        src = self._id_at.get(addr)
        if src is None:
            # Outside the address book: never answered, never learned.
            self._m.unroutable += 1
            return
        if self._closing:
            return
        try:
            if msg.kind is MessageKind.PONG:
                pending = self._pending_ping.get(src)
                if pending is not None and pending[0] == msg.guid:
                    del self._pending_ping[src]
            elif msg.kind is MessageKind.BYE:
                self._drop_link(src, msg.reason_code)
            self.peer.on_message(src, msg)
        except ProtocolError:
            # Semantically invalid but well-formed input from a remote
            # (e.g. a control message missing a required field): the
            # overlay must survive hostile peers, so count and drop.
            self._m.protocol_errors += 1

    # ------------------------------------------------------------------
    # liveness (PING/PONG)
    # ------------------------------------------------------------------
    def _ping_round(self) -> None:
        if self._closing:
            return
        for nb in list(self.peer.neighbors):
            if nb in self._pending_ping:
                continue  # retry chain already running
            self._send_liveness_ping(nb, 0)
        jitter = self._rng.uniform(0.0, PING_PERIOD_S / 10.0)
        self._schedule(PING_PERIOD_S + jitter, self._ping_round)

    def _send_liveness_ping(self, nb: PeerId, attempt: int) -> None:
        ping = Ping(guid=self.guid_factory.new(), ttl=1)
        self._pending_ping[nb] = (ping.guid, attempt)
        self._send(nb, ping)
        # Bounded backoff: timeout doubles per retry, capped at the period.
        timeout = min(PING_TIMEOUT_S * (2**attempt), PING_PERIOD_S)
        self._schedule(timeout, self._ping_timeout, nb, ping.guid)

    def _ping_timeout(self, nb: PeerId, guid: bytes) -> None:
        if self._closing:
            return
        pending = self._pending_ping.get(nb)
        if pending is None or pending[0] != guid:
            return  # answered, or superseded by a newer ping
        attempt = pending[1] + 1
        if attempt > PING_RETRIES:
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
            self.peer.issue_query(self.catalog.keywords_for(obj))
        self._schedule(
            self._rng.expovariate(self.case.workload.queries_per_minute / 60.0),
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
                agent=int(self.node_config.agent),
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

        if self._minute >= self.case.minutes:
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
        node, case = self.node_config, self.case
        for nb_int in node.neighbors:
            self._add_link(PeerId(nb_int))

        if case.defense == "ddpolice":
            self.engine = DDPoliceEngine(
                self,
                self.peer,
                case.police,
                cheat_strategy=(
                    case.workload.cheat if node.agent else CheatStrategy.HONEST
                ),
                rng=random.Random(derive_seed(case.seed, "police", node.node_id)),
            )

        self._schedule_minute_roll()
        start_gap = max(0.0, -self.now)
        rate = case.workload.queries_per_minute / 60.0
        self._schedule(start_gap + self._rng.expovariate(rate), self._workload_tick)
        if node.agent:
            # Fig-9/10/11 static flooder, from the attack minute on.
            self.agent = DDoSAgent(
                self.sim,
                self,
                self.id,
                AgentConfig(nominal_rate_qpm=case.workload.attack_rate_qpm),
            )
            attack_at = case.attack_start_min * 60.0
            self._schedule(max(start_gap, attack_at - self.now), self.agent.start)
        self._schedule(
            start_gap + self._rng.uniform(0.0, PING_PERIOD_S), self._ping_round
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
                agent=int(self.node_config.agent),
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
    sock = bind_udp_socket(*config.addresses[config.node_id])
    sock.setblocking(False)
    tracer = None
    if config.stats_path:
        tracer = Tracer(
            sinks=[JsonlSink(config.stats_path)], run=f"live-{config.case.seed}"
        )
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
