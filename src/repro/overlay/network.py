"""Overlay network container: peers + DES engine + content + links.

This is the message-level ("detailed") simulation substrate. It delivers
messages with per-hop latency, drives the per-minute traffic windows, and
records the per-query bookkeeping behind the paper's service-quality
metrics (response time = first response; success = at least one location
found; traffic cost = bytes moved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.errors import ConfigError, ProtocolError
from repro.metrics.accounting import QueryAccounting
from repro.overlay.capacity import TokenBucket
from repro.overlay.content import ContentCatalog, ContentConfig
from repro.overlay.ids import Guid, GuidFactory, PeerId
from repro.overlay.message import Message, MessageKind, Query, QueryHit
from repro.overlay.peer import Peer, PeerState
from repro.overlay.topology import Topology
from repro.simkit.engine import Simulator
from repro.simkit.rng import RngRegistry
from repro.simkit.timers import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs.trace import Tracer


@dataclass(frozen=True)
class NetworkConfig:
    """Message-level network parameters."""

    default_ttl: int = 7
    hop_latency_s: float = 0.05
    hop_latency_jitter_s: float = 0.02
    minute_window_s: float = 60.0
    processing_qpm_good: float = 10_000.0
    #: Enforce per-peer access-link rates (Section 3.5's Saroiu
    #: assignment): messages beyond the sender's upstream or receiver's
    #: downstream budget are dropped in flight. Off by default so unit
    #: tests see lossless links.
    bandwidth_enabled: bool = False
    #: Windows to wait after a minute closes before its metrics row is
    #: emitted and its settled ``QueryRecord``s retired (in-flight
    #: responses land during the grace). The only place a grace is set:
    #: ``des`` and ``des-soa`` both hand it to their accounting.
    metrics_grace_minutes: int = 1
    #: Upper bound on remembered GUIDs per peer (seen cache + reverse-
    #: path routes), mirroring the bounded routing tables of real
    #: servents.  Promoted from a module constant so cache sizing is a
    #: first-class, validated knob (``network.seen_cache_limit``).
    seen_cache_limit: int = 50_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.default_ttl < 1:
            raise ConfigError(f"default_ttl must be >= 1, got {self.default_ttl}")
        if self.hop_latency_s <= 0:
            raise ConfigError(
                f"hop_latency_s must be positive, got {self.hop_latency_s}"
            )
        if self.hop_latency_jitter_s < 0:
            raise ConfigError(
                f"hop_latency_jitter_s must be non-negative, "
                f"got {self.hop_latency_jitter_s}"
            )
        if self.minute_window_s <= 0:
            raise ConfigError(
                f"minute_window_s must be positive, got {self.minute_window_s}"
            )
        if self.processing_qpm_good <= 0:
            raise ConfigError(
                f"processing_qpm_good must be positive, got {self.processing_qpm_good}"
            )
        if self.metrics_grace_minutes < 0:
            raise ConfigError(
                f"metrics_grace_minutes must be non-negative, "
                f"got {self.metrics_grace_minutes}"
            )
        if self.seen_cache_limit < 1:
            raise ConfigError(
                f"seen_cache_limit must be >= 1, got {self.seen_cache_limit}"
            )


@dataclass(slots=True)
class QueryRecord:
    """Per-issued-query bookkeeping.

    Records live only until their minute window is finalized (grace
    elapsed); after that they are retired into the accounting's per-class
    running aggregates. ``is_attack`` is the issue-time origin class,
    ``window`` the minute-window index the issue fell into.
    """

    guid: Guid
    origin: PeerId
    issued_at: float
    object_id: Optional[int] = None
    first_response_at: Optional[float] = None
    responses: int = 0
    is_attack: bool = False
    window: int = 0

    @property
    def response_time(self) -> Optional[float]:
        if self.first_response_at is None:
            return None
        return self.first_response_at - self.issued_at


@dataclass
class NetworkStats:
    """Aggregate counters."""

    messages_delivered: int = 0
    bytes_transferred: int = 0
    query_messages: int = 0
    hit_messages: int = 0
    control_messages: int = 0
    queries_dropped_capacity: int = 0
    messages_dropped_bandwidth: int = 0
    messages_dropped_fault: int = 0
    messages_duplicated_fault: int = 0


class OverlayNetwork:
    """All peers plus the event-driven message fabric.

    ``minute_listeners`` fire once per minute window with
    ``(minute_index, now)`` *after* every peer's window has been rolled;
    DD-POLICE engines subscribe there.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        *,
        config: NetworkConfig = NetworkConfig(),
        content: Optional[ContentCatalog] = None,
        rng_registry: Optional[RngRegistry] = None,
        processing_qpm: Optional[Dict[int, float]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        #: Optional ``repro.obs.trace.Tracer``; hot paths pay one attribute
        #: load + falsy branch when tracing is off.
        self.tracer = tracer
        self.rngs = rng_registry or RngRegistry(config.seed)
        self._latency_rng = self.rngs.stream("net.latency")
        self.guid_factory = GuidFactory(self.rngs.stream("net.guid"))
        self.content = content or ContentCatalog(
            ContentConfig(seed=config.seed), topology.n
        )
        self.stats = NetworkStats()
        self.query_records: Dict[bytes, QueryRecord] = {}
        #: Peers registered as attack-query origins (DDoS agents). Queries
        #: they originate are classified ATTACK at issue time and excluded
        #: from the default service metrics (see docs/METRICS.md).
        self.attack_origins: Set[PeerId] = set()
        self.accounting = QueryAccounting(
            grace_minutes=config.metrics_grace_minutes, retire_records=True
        )
        self.minute_listeners: List[Callable[[int, float], None]] = []
        self.minute_index = 0
        #: Optional fault layer; set by ``FaultInjector.attach``. ``None``
        #: keeps the transmit path untouched (bit-identical to pre-fault
        #: builds).
        self.fault_injector = None

        # Optional per-peer access-link budgets (messages/min), assigned
        # from the Saroiu classes when bandwidth enforcement is on.
        self._up_links: Dict[PeerId, TokenBucket] = {}
        self._down_links: Dict[PeerId, TokenBucket] = {}
        if config.bandwidth_enabled:
            from repro.overlay.bandwidth import BandwidthModel

            bw = BandwidthModel(seed=config.seed)
            for u in range(topology.n):
                cls = bw.sample_class()
                pid = PeerId(u)
                self._up_links[pid] = TokenBucket(rate_per_min=bw.upstream_qpm(cls))
                self._down_links[pid] = TokenBucket(
                    rate_per_min=bw.downstream_qpm(cls)
                )

        # Build peers and wire up the topology.
        self.peers: Dict[PeerId, Peer] = {}
        for u in range(topology.n):
            pid = PeerId(u)
            qpm = (
                processing_qpm.get(u, config.processing_qpm_good)
                if processing_qpm
                else config.processing_qpm_good
            )
            self.peers[pid] = Peer(pid, self, processing_qpm=qpm)
        # Neighbor sets hold the key objects of ``self.peers`` (canonical
        # ids), so later dict/set probes hit on identity, not ``__eq__``.
        pids = list(self.peers)
        for u, pu in enumerate(self.peers.values()):
            pu.go_online()
            for v in topology.adjacency[u]:
                pu.add_neighbor(pids[v])

        # Negative priority: the roll must observe state *before* any
        # application event scheduled at the exact window boundary, so a
        # query issued at t == 120.0 lands in the [120, 180) window of
        # the accounting's rolls counter.
        self._minute_task = PeriodicTask(
            sim,
            config.minute_window_s,
            self._roll_minute,
            start_delay=config.minute_window_s,
            priority=-1,
        )

    # ------------------------------------------------------------------
    # clock / content glue
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def shared_objects(self, pid: PeerId) -> Set[int]:
        return self.content.peer_objects.get(pid.value, set())

    def match_content(self, pid: PeerId, query: Query) -> Optional[int]:
        """Return the object id if ``pid`` shares what the query asks for.

        Attack queries carry keyword tuples that resolve to no object and
        therefore never match -- 'bogus queries' in the paper's terms.
        """
        obj = self.content.find_object(query.keywords)
        if obj is None:
            return None
        return obj if self.content.peer_has(pid.value, obj) else None

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def transmit(self, src: PeerId, dst: PeerId, msg: Message) -> None:
        """Schedule delivery of ``msg`` after one hop of latency.

        With bandwidth enforcement on, the sender's upstream and the
        receiver's downstream budgets are charged per message; a depleted
        link drops the message in flight (Section 3.5's link model).
        """
        if dst not in self.peers:
            raise ProtocolError(f"unknown destination {dst}")
        if self._up_links:
            now = self.sim.now
            up = self._up_links.get(src)
            down = self._down_links.get(dst)
            if (up is not None and not up.try_consume(now)) or (
                down is not None and not down.try_consume(now)
            ):
                self.stats.messages_dropped_bandwidth += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "net.drop.bandwidth",
                        t=now,
                        src=src.value,
                        dst=dst.value,
                        msg=msg.kind.name,
                    )
                return
        delay = self.config.hop_latency_s
        if self.config.hop_latency_jitter_s > 0:
            delay += self._latency_rng.uniform(0, self.config.hop_latency_jitter_s)
        if self.fault_injector is not None:
            shaped = self.fault_injector.shape_transmit(src, dst, msg, delay)
            if shaped is None:
                self.stats.messages_dropped_fault += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "net.drop.fault",
                        t=self.now,
                        src=src.value,
                        dst=dst.value,
                        msg=msg.kind.name,
                    )
                return
            delay = shaped
        # ``schedule_in`` minus its frame; the same float.
        sim = self.sim
        sim.schedule_at(sim.now + delay, self._deliver, src, dst, msg)

    def _deliver(self, src: PeerId, dst: PeerId, msg: Message) -> None:
        peer = self.peers[dst]
        if peer.state is not PeerState.ONLINE:
            if self.tracer is not None:
                self.tracer.event(
                    "net.drop.offline",
                    t=self.now,
                    src=src.value,
                    dst=dst.value,
                    msg=msg.kind.name,
                )
            return
        stats = self.stats
        stats.messages_delivered += 1
        stats.bytes_transferred += msg.size_bytes
        # Everything that is neither query nor hit is control plane.
        kind = msg.kind
        if kind is MessageKind.QUERY:
            stats.query_messages += 1
        elif kind is MessageKind.QUERY_HIT:
            stats.hit_messages += 1
        else:
            stats.control_messages += 1
        if self.tracer is not None:
            self.tracer.event(
                "net.deliver",
                t=self.now,
                src=src.value,
                dst=dst.value,
                msg=kind.name,
                size=msg.size_bytes,
            )
        peer.on_message(src, msg)

    # ------------------------------------------------------------------
    # connection management (used by churn and DD-POLICE disconnects)
    # ------------------------------------------------------------------
    def connect(self, a: PeerId, b: PeerId) -> None:
        """Create the undirected logical connection a<->b."""
        if a == b:
            raise ProtocolError("cannot connect a peer to itself")
        self.peers[a].add_neighbor(b)
        self.peers[b].add_neighbor(a)

    def disconnect(self, a: PeerId, b: PeerId, reason_code: int = 0) -> None:
        """Tear down a<->b; both sides observe the reason."""
        self.peers[a].remove_neighbor(b, reason_code)
        self.peers[b].remove_neighbor(a, reason_code)

    def neighbors_of(self, pid: PeerId) -> Set[PeerId]:
        return set(self.peers[pid].neighbors)

    # ------------------------------------------------------------------
    # attack-origin registry
    # ------------------------------------------------------------------
    def register_attack_origin(self, pid: PeerId) -> None:
        """Mark ``pid`` as an attack-query origin (called by DDoS agents).

        Classification is at *issue* time: queries the peer originated
        before compromise keep their GOOD class, everything after is
        ATTACK -- the ground truth behind the paper's good-only S(t).
        """
        if pid not in self.peers:
            raise ProtocolError(f"unknown peer {pid}")
        self.attack_origins.add(pid)

    def unregister_attack_origin(self, pid: PeerId) -> None:
        self.attack_origins.discard(pid)

    # ------------------------------------------------------------------
    # query bookkeeping
    # ------------------------------------------------------------------
    def note_query_issued(self, origin: PeerId, msg: Query) -> None:
        obj = self.content.find_object(msg.keywords)
        is_attack = origin in self.attack_origins
        window = self.accounting.on_issued(msg.guid.raw, is_attack)
        self.query_records[msg.guid.raw] = QueryRecord(
            guid=msg.guid,
            origin=origin,
            issued_at=self.now,
            object_id=obj,
            is_attack=is_attack,
            window=window,
        )

    def note_query_hit(self, responder: PeerId, query: Query, hit: QueryHit) -> None:
        # Bookkeeping only; delivery happens along the reverse path.
        pass

    def note_response_arrived(self, origin: PeerId, hit: QueryHit) -> None:
        if hit.query_guid is None:
            return
        rec = self.query_records.get(hit.query_guid.raw)
        if rec is None or rec.origin != origin:
            return
        rec.responses += 1
        if rec.first_response_at is None:
            rec.first_response_at = self.now
            self.accounting.on_first_response(
                rec.window, rec.is_attack, self.now - rec.issued_at
            )

    def note_query_dropped(self, pid: PeerId, msg: Query) -> None:
        self.stats.queries_dropped_capacity += 1

    # ------------------------------------------------------------------
    # minute windows
    # ------------------------------------------------------------------
    def _roll_minute(self) -> None:
        self.minute_index += 1
        for peer in self.peers.values():
            if peer.online:
                peer.roll_minute_window()
        retired = self.accounting.on_minute_rolled(
            self.now,
            self.stats.messages_delivered,
            self.stats.bytes_transferred,
        )
        records = self.query_records
        for key in retired:
            records.pop(key, None)
        for listener in self.minute_listeners:
            listener(self.minute_index, self.now)
        if self.tracer is not None:
            self.tracer.event(
                "net.minute",
                t=self.now,
                minute=self.minute_index,
                delivered=self.stats.messages_delivered,
                queue_depth=self.sim.pending_count,
            )

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def success_rate(self, traffic: str = "good") -> float:
        """Fraction of issued queries with >= 1 response, whole run.

        Defaults to good-origin queries only -- the paper's S(t)
        denominator. Pass ``traffic="all"`` for the pre-fix diagnostic
        that also counts agent-originated bogus queries, or
        ``traffic="attack"`` for the agents alone.
        """
        return self.accounting.success_rate(traffic)

    def mean_response_time(self, traffic: str = "good") -> Optional[float]:
        """Mean first-response time of answered queries, whole run."""
        return self.accounting.mean_response_time(traffic)
