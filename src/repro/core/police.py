"""DD-POLICE per-peer protocol engine (message-level overlay).

Wires the three protocol steps of Section 3 onto a live
:class:`~repro.overlay.peer.Peer`:

1. **Neighbor list exchanging** -- periodic (or event-driven) broadcast of
   the local neighbor list; received lists populate the directory that
   buddy groups are derived from; pairwise consistency is cross-checked.
2. **Neighbor query traffic monitoring** -- each minute window's
   In/Out_query snapshots feed the peer's
   :class:`~repro.evidence.store.ExactTrafficStore`.
3. **Bad peer recognizing** -- a neighbor whose last-minute incoming count
   exceeds the warning threshold opens an :class:`Investigation`;
   Neighbor_Traffic messages are exchanged with the suspect's buddy
   group (deduplicated over 5 s); after the collection window the verdict
   kernel (:mod:`repro.core.decision`) judges the reports held and a
   convicted suspect is disconnected with an explanatory Bye.

A compromised peer runs the same engine with a non-honest
:class:`CheatStrategy`, which distorts (or silences) only its *outgoing
reports* -- exactly the adversary model of Section 3.4.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Optional, Set

from repro.attack.adaptive import CollusionRing
from repro.attack.cheating import CheatStrategy, apply_cheat
from repro.core.buddy import buddy_group_of
from repro.core.config import DDPoliceConfig, ExchangePolicy
from repro.core.decision import NAN, Outcome, Verdict
from repro.core.investigation import Investigation
from repro.core.exchange import ConsistencyTracker, NeighborListDirectory
from repro.core.indicators import NeighborReport
from repro.errors import ProtocolError
from repro.evidence.dedup import ExactDedupWindow
from repro.evidence.store import ExactTrafficStore
from repro.metrics.errors import JudgmentLog
from repro.overlay.ids import PeerId
from repro.overlay.message import (
    Bye,
    Message,
    NeighborListMessage,
    NeighborTrafficMessage,
    Ping,
    Pong,
)
from repro.overlay.network import OverlayNetwork
from repro.overlay.peer import Peer
from repro.simkit.timers import PeriodicTask


class DDPoliceEngine:
    """One peer's DD-POLICE instance.

    It reaches its host only through ``network.now``, ``.sim.schedule_in``,
    ``.transmit``, ``.guid_factory``, ``.disconnect``, ``.tracer``,
    ``.minute_listeners`` and the ``peer`` surface. The peer is a real
    :class:`Peer` on both substrates; on the testbed the network is a
    ``repro.live.node.LiveNode``, which implements those names plus what
    ``Peer`` itself calls (listed once in docs/LIVE.md). On the DES the
    ids it handles are the network's canonical ``PeerId`` objects
    (identity hits); on a live node they are decoded off the wire, so it
    compares by value.
    """

    def __init__(
        self,
        network: OverlayNetwork,
        peer: Peer,
        config: DDPoliceConfig = DDPoliceConfig(),
        *,
        judgment_log: Optional[JudgmentLog] = None,
        cheat_strategy: CheatStrategy = CheatStrategy.HONEST,
        collusion: Optional[CollusionRing] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.network = network
        self.peer = peer
        self.config = config
        self.cheat_strategy = cheat_strategy
        #: Set only on compromised peers running the COLLUDE strategy:
        #: the ring whose members this engine lies for (fabricated
        #: neighbor-list claims + excusing Neighbor_Traffic answers).
        self.collusion = (
            collusion
            if collusion is not None and peer.id in collusion.members
            else None
        )
        self.judgments = judgment_log if judgment_log is not None else JudgmentLog()
        self._rng = rng or random.Random(peer.id.value)

        self.store = ExactTrafficStore()
        self.directory = NeighborListDirectory()
        self.consistency = ConsistencyTracker(config.inconsistency_tolerance)
        self._investigations: Dict[PeerId, Investigation] = {}
        self._report_dedup = ExactDedupWindow(config.report_dedup_window_s)

        self.reports_sent = 0
        self.reports_received = 0
        self.lists_sent = 0
        self.disconnects_issued = 0
        self.pings_sent = 0
        self.pongs_received = 0
        # Hardening counters (all stay 0 under the paper-literal config).
        self.report_retries_sent = 0
        self.window_extensions_used = 0
        self.quorum_abstentions = 0
        self.list_retransmits_sent = 0
        self.stale_lists_rejected = 0
        self.stale_reports_rejected = 0
        # Liveness: directory owners we pinged and are awaiting a Pong
        # from; two missed rounds evict the entry ("A peer pings members
        # within the same BG periodically to make sure that other members
        # are online", Section 3.1).
        self._awaiting_pong: Dict[PeerId, int] = {}
        # Rate limiter for confirmation list exchanges with non-neighbors.
        self._list_courtesy: Dict[PeerId, float] = {}
        # Last time each peer's list reached us -- the implicit ack that
        # cancels a pending exchange retransmission.
        self._last_list_from: Dict[PeerId, float] = {}
        self._stopped = False

        peer.control_handlers.append(self._on_control)
        peer.disconnect_listeners.append(self._on_neighbor_gone)
        network.minute_listeners.append(self._on_minute)
        self._liveness_task = PeriodicTask(
            network.sim,
            config.liveness_ping_period_s,
            self._ping_directory,
            jitter=min(5.0, config.liveness_ping_period_s / 10.0),
            start_delay=self._rng.uniform(0.0, config.liveness_ping_period_s),
            rng=self._rng,
        )
        self._exchange_task: Optional[PeriodicTask] = None
        if config.exchange_policy is ExchangePolicy.PERIODIC:
            self._exchange_task = PeriodicTask(
                network.sim,
                config.exchange_period_s,
                self._broadcast_list,
                jitter=min(5.0, config.exchange_period_s / 10.0),
                start_delay=self._rng.uniform(0.0, config.exchange_period_s),
                rng=self._rng,
            )
        else:
            peer.connect_listeners.append(lambda _nb: self._broadcast_list())
            peer.disconnect_listeners.append(
                lambda _nb, _reason: self._broadcast_list()
            )
            # Event-driven peers still announce once at startup.
            network.sim.schedule_in(self._rng.uniform(0.0, 5.0), self._broadcast_list)

    # ------------------------------------------------------------------
    # step 1: neighbor-list exchange
    # ------------------------------------------------------------------
    def _make_list_msg(self, now: float) -> NeighborListMessage:
        claimed = frozenset(self.peer.neighbors)
        if self.collusion is not None:
            # The consistent lie: claim every fellow colluder as a
            # neighbor. Each of them claims us back, so the pairwise
            # cross-check of Section 3.2 sees two corroborating lists --
            # and the fabricated members enlarge the suspect's buddy
            # group with witnesses that will excuse it.
            claimed = claimed | (self.collusion.members - {self.peer.id})
        return NeighborListMessage(
            guid=self.network.guid_factory.new(),
            ttl=1,
            hops=0,
            sender=self.peer.id,
            neighbors=claimed,
            sent_at=now,
        )

    def _broadcast_list(self) -> None:
        # stop() leaves the event-driven listeners and announcement armed.
        if self._stopped or not self.peer.online or not self.peer.neighbors:
            return
        now = self.network.now
        msg = self._make_list_msg(now)
        for nb in list(self.peer.neighbors):
            self.peer.send_control(nb, msg)
            self.lists_sent += 1
            if self.config.exchange_retransmit_limit > 0:
                self.network.sim.schedule_in(
                    self.config.exchange_retransmit_timeout_s,
                    self._maybe_retransmit_list,
                    nb,
                    now,
                    1,
                )

    def _maybe_retransmit_list(
        self, nb: PeerId, sent_at: float, attempt: int
    ) -> None:
        """Re-send our list to a neighbor that stayed silent.

        Hearing *anything* list-shaped from ``nb`` after our send is the
        implicit ack: the link works and both directories are fresh. A
        silent neighbor gets our (current) list again, up to the
        configured retransmit limit.
        """
        if self._stopped or not self.peer.online or nb not in self.peer.neighbors:
            return
        if self._last_list_from.get(nb, float("-inf")) >= sent_at:
            return
        self.list_retransmits_sent += 1
        now = self.network.now
        self.peer.send_control(nb, self._make_list_msg(now))
        self.lists_sent += 1
        if attempt < self.config.exchange_retransmit_limit:
            self.network.sim.schedule_in(
                self.config.exchange_retransmit_timeout_s,
                self._maybe_retransmit_list,
                nb,
                now,
                attempt + 1,
            )

    def _on_neighbor_list(self, src: PeerId, msg: NeighborListMessage) -> None:
        sender = msg.sender
        if sender is None:
            raise ProtocolError("neighbor list without sender")
        now = self.network.now
        listed = msg.neighbors
        directory = self.directory
        self._last_list_from[src] = now
        if not directory.update(sender, listed, now, sent_at=msg.sent_at):
            # Reordered/duplicated stale list: fresher evidence already
            # held, so neither the directory nor the consistency checks
            # may regress to it.
            self.stale_lists_rejected += 1
            return
        # "they will confirm the correctness of the lists with the
        # corresponding peers": ask claimed peers whose list we lack (or
        # hold only a stale copy of) to exchange lists with us (they
        # reciprocate below).
        me = self.peer.id
        period = self.config.exchange_period_s
        for claimed in listed:
            if claimed == me:
                continue
            snap = directory.get(claimed)
            if snap is None or now - snap.received_at > period:
                self._send_list_to(claimed, now)
        # A list from a peer that is not our neighbor is a confirmation
        # request: reciprocate so the asker can cross-check.
        if sender not in self.peer.neighbors:
            self._send_list_to(sender, now)
        self._check_consistency(sender, listed, now)

    def _send_list_to(self, target: PeerId, now: float) -> None:
        """Send our list directly to ``target``, at most once per period."""
        last = self._list_courtesy.get(target)
        if last is not None and now - last < self.config.exchange_period_s:
            return
        if not self.peer.online or self._stopped:
            return
        self._list_courtesy[target] = now
        self.network.transmit(self.peer.id, target, self._make_list_msg(now))
        self.lists_sent += 1

    def _check_consistency(self, owner: PeerId, claimed: FrozenSet[PeerId], now: float) -> None:
        """Cross-check a fresh list against lists we already hold.

        "If a peer finds out that the claim of a pair of neighboring peers
        are not consistent, it will disconnect with the one which is its
        neighbor" -- the strike counter tolerates transient churn races,
        and only lists fresh within ~one exchange period count as
        evidence (a disconnected peer's fossil list must not convict its
        ex-neighbors).
        """
        max_age = 1.5 * self.config.exchange_period_s
        directory = self.directory
        for other in claimed:
            snap = directory.get(other)
            if snap is None or now - snap.received_at > max_age:
                continue
            if owner not in snap.neighbors:
                self._strike_pair(owner, other)
            else:
                self.consistency.observe_consistent(owner, other)
        # Reverse direction: peers whose stored lists claim `owner` but
        # owner's fresh list does not reciprocate. The reverse index
        # yields the same owners (in the same order) a full directory
        # scan filtered on membership would.
        for peer in directory.claimers(owner):
            if peer == owner:
                continue
            snap = directory.get(peer)
            if snap is None or now - snap.received_at > max_age:
                continue
            if peer not in claimed:
                self._strike_pair(peer, owner)
            else:
                self.consistency.observe_consistent(peer, owner)

    def _strike_pair(self, a: PeerId, b: PeerId) -> None:
        if self.consistency.strike(a, b):
            # "it will disconnect with the one which is its neighbor"
            for candidate in (a, b):
                if candidate in self.peer.neighbors:
                    self._disconnect(
                        Verdict(
                            self.peer.id, candidate, NAN, NAN,
                            Outcome.CONVICTED, "inconsistent_list",
                        ),
                        bye_code=Bye.REASON_LIST_INCONSISTENT,
                    )
            self.consistency.clear(a, b)

    # ------------------------------------------------------------------
    # buddy-group liveness (Section 3.1)
    # ------------------------------------------------------------------
    def _ping_directory(self) -> None:
        """Ping every peer we hold a neighbor list for; evict the stale.

        Members that missed the previous round's Pong are forgotten, so
        buddy groups stop counting long-gone peers as silent (0,0)
        witnesses forever.
        """
        if not self.peer.online:
            return
        network = self.network
        me = self.peer.id
        awaiting = self._awaiting_pong
        for owner in self.directory.owners():
            missed = awaiting.get(owner, 0)
            if missed >= 2:
                self.directory.forget(owner)
                del awaiting[owner]
                continue
            awaiting[owner] = missed + 1
            # BG members need not be direct neighbors; ping them directly.
            network.transmit(me, owner, Ping(guid=network.guid_factory.new(), ttl=1))
            self.pings_sent += 1

    def _on_pong(self, src: PeerId) -> None:
        self.pongs_received += 1
        self._awaiting_pong.pop(src, None)

    # ------------------------------------------------------------------
    # step 2: traffic monitoring
    # ------------------------------------------------------------------
    def _on_minute(self, minute: int, now: float) -> None:
        # A stopped engine stays subscribed to the network's minute
        # listeners; it must not keep opening investigations.
        if self._stopped or not self.peer.online:
            return
        self.store.record_window(
            minute, self.peer.last_minute_out, self.peer.last_minute_in
        )
        for suspect in self.store.suspicious_neighbors(
            self.config.warning_threshold_qpm
        ):
            if suspect in self.peer.neighbors:
                self._open_investigation(suspect)

    # ------------------------------------------------------------------
    # step 3: bad-peer recognition
    # ------------------------------------------------------------------
    def _open_investigation(self, suspect: PeerId) -> None:
        if suspect in self._investigations:
            return  # already collecting evidence
        group = buddy_group_of(
            suspect,
            lambda p: self.directory.known_neighbors(p),
            radius=self.config.radius,
            now=self.network.now,
        )
        members = set(group.members)
        members.add(self.peer.id)  # we are a neighbor of the suspect
        members.discard(suspect)
        expected = frozenset(members - {self.peer.id})
        own_out, own_in = self.store.report_pair(suspect)
        inv = Investigation(
            observer=self.peer.id,
            suspect=suspect,
            started_at=self.network.now,
            expected_members=expected,
            own_out_to_suspect=own_out,
            own_in_from_suspect=own_in,
        )
        self._investigations[suspect] = inv
        tracer = self.network.tracer
        if tracer is not None:
            tracer.event(
                "police.suspect",
                t=self.network.now,
                observer=self.peer.id.value,
                suspect=suspect.value,
                expected=len(expected),
            )
        self._send_reports(suspect, expected)
        self.network.sim.schedule_in(
            self.config.collection_window_s, self._conclude, suspect
        )
        if self.config.report_retry_limit > 0 and expected:
            self.network.sim.schedule_in(
                self.config.report_retry_backoff_s, self._retry_missing, suspect
            )

    def _retry_missing(self, suspect: PeerId) -> None:
        """Re-request reports from members still silent (hardening).

        Each attempt sends our own (possibly cheated) numbers again with
        ``is_retry`` set, asking the member to answer us directly even
        inside its dedup window. Attempts back off exponentially; the
        chain dies with the investigation, so retries are bounded by the
        (possibly quorum-extended) collection window. Retries recover
        evidence *about* others -- a cheating member's reply still goes
        through its own cheat strategy, so retrying never helps a liar.
        """
        if self._stopped or not self.peer.online:
            return
        inv = self._investigations.get(suspect)
        if inv is None or inv.verdict is not None:
            return
        if inv.retries_used >= self.config.report_retry_limit:
            return
        missing = inv.missing_members
        if not missing:
            return
        inv.retries_used += 1
        self.report_retries_sent += 1
        self._send_reports(suspect, set(missing), is_retry=True, force=True)
        if inv.retries_used < self.config.report_retry_limit:
            delay = self.config.report_retry_backoff_s * (2 ** inv.retries_used)
            self.network.sim.schedule_in(delay, self._retry_missing, suspect)

    def _send_reports(
        self,
        suspect: PeerId,
        members: Set[PeerId],
        *,
        is_retry: bool = False,
        force: bool = False,
    ) -> None:
        """Send our Neighbor_Traffic numbers to the other BG members.

        ``force`` bypasses the 5 s dedup window without updating its
        stamp -- used for retry re-requests and for direct answers to
        them, which must go out even when we reported recently.
        """
        now = self.network.now
        if not force:
            if not self._report_dedup.should_send(suspect, now):
                return
            self._report_dedup.record(suspect, now)
        out_q, in_q = self.store.report_pair(suspect)
        reported = apply_cheat(
            self.cheat_strategy,
            out_q,
            in_q,
            suspect_is_colluder=(
                self.collusion is not None and suspect in self.collusion.members
            ),
            collude_excuse_qpm=(
                self.collusion.excuse_qpm if self.collusion is not None else 0.0
            ),
        )
        if reported is None:
            return  # SILENT: refuse to report (retries don't change this)
        rep_out, rep_in = reported
        if members and self.network.tracer is not None:
            self.network.tracer.event(
                "police.report",
                t=now,
                observer=self.peer.id.value,
                suspect=suspect.value,
                members=len(members),
                retry=is_retry,
            )
        for member in members:
            msg = NeighborTrafficMessage(
                guid=self.network.guid_factory.new(),
                ttl=1,
                hops=0,
                source=self.peer.id,
                suspect=suspect,
                timestamp=int(now),
                outgoing_queries=rep_out,
                incoming_queries=rep_in,
                is_retry=is_retry,
            )
            self.peer.send_control(member, msg)
            self.reports_sent += 1

    def _on_neighbor_traffic(self, src: PeerId, msg: NeighborTrafficMessage) -> None:
        if msg.suspect is None or msg.source is None:
            raise ProtocolError("Neighbor_Traffic missing source/suspect")
        self.reports_received += 1
        suspect = msg.suspect
        if suspect == self.peer.id:
            return  # gossip about ourselves; nothing to do
        if suspect not in self.peer.neighbors:
            if msg.is_retry:
                # A direct re-request: the asker needs our answer (even a
                # zero count) to reach its quorum. Answer it alone, past
                # the dedup window.
                self._send_reports(suspect, {msg.source}, force=True)
                return
            # No longer (or not yet) in this buddy group, but the question
            # is about the *last minute*: answer the group from our
            # retained counters so a just-closed connection still counts.
            # A colluder asked about a fellow ring member always answers:
            # its membership in the BG is itself fabricated (the
            # consistent neighbor-list lie), so it has no real counters,
            # only the excuse apply_cheat will produce.
            out_q, in_q = self.store.report_pair(suspect)
            colluding_for = (
                self.collusion is not None and suspect in self.collusion.members
            )
            if out_q or in_q or colluding_for:
                members = set(self.directory.known_neighbors(suspect))
                members.add(msg.source)
                members.discard(self.peer.id)
                members.discard(suspect)
                self._send_reports(suspect, members)
            return
        inv = self._investigations.get(suspect)
        if inv is None:
            if msg.is_retry:
                # A re-request is a poll, not an alarm: answer it, but do
                # not open an investigation we would never have joined
                # had the (lost) original arrived -- otherwise retries
                # recruit extra judges and each one is a fresh chance to
                # misjudge under the very loss being mitigated.
                self._send_reports(suspect, {msg.source}, force=True)
                return
            # A buddy noticed before we did: join the investigation.
            self._open_investigation(suspect)
            inv = self._investigations.get(suspect)
            if inv is None:
                return
        accepted = inv.add_report(
            msg.source,
            NeighborReport(
                member=msg.source.value,
                outgoing=msg.outgoing_queries,
                incoming=msg.incoming_queries,
            ),
            timestamp=msg.timestamp,
        )
        if not accepted and msg.source in inv.report_times:
            self.stale_reports_rejected += 1
        if msg.is_retry:
            # Answer the asker directly (is_retry=False on the reply, so
            # two observers re-requesting each other cannot loop).
            self._send_reports(suspect, {msg.source}, force=True)
        # "it will check whether it has sent a Neighbor_Traffic message to
        # other members in this BG in past 5 seconds. If not, it will send
        # such a message" -- handled by the dedup window in _send_reports.
        self._send_reports(suspect, set(inv.expected_members))
        if inv.complete:
            self._conclude(suspect)

    def _conclude(self, suspect: PeerId) -> None:
        # The timer survives stop(); a stopped engine must not judge.
        if self._stopped:
            return
        inv = self._investigations.get(suspect)
        if inv is None or inv.verdict is not None:
            return
        verdict = inv.decide(self.config)
        if verdict.outcome is Outcome.UNDECIDED:
            if inv.window_extensions < self.config.quorum_extension_limit:
                # Extend the window, which also gives backed-off retries
                # time; still below quorum after that, abstain.
                inv.window_extensions += 1
                self.window_extensions_used += 1
                self.network.sim.schedule_in(
                    self.config.collection_window_s, self._conclude, suspect
                )
                return
            self.quorum_abstentions += 1
        tracer = self.network.tracer
        if tracer is not None:
            tracer.event(
                "police.decision", t=self.network.now, **verdict.trace_fields()
            )
        if verdict.convicted and suspect in self.peer.neighbors:
            self._disconnect(verdict)
        else:
            self.judgments.record(verdict.judgment(self.network.now, executed=False))
        # _disconnect may already have evicted the entry via the
        # neighbor-gone listener.
        self._investigations.pop(suspect, None)

    def _disconnect(
        self, verdict: Verdict, *, bye_code: int = Bye.REASON_DDOS_SUSPECT
    ) -> None:
        suspect = verdict.suspect
        self.disconnects_issued += 1
        tracer = self.network.tracer
        if tracer is not None:
            tracer.event("police.cut", t=self.network.now, **verdict.trace_fields())
        self.judgments.record(verdict.judgment(self.network.now))
        bye = Bye(
            guid=self.network.guid_factory.new(),
            ttl=1,
            hops=0,
            reason_code=bye_code,
            reason_text=verdict.reason,
        )
        try:
            self.peer.send_control(suspect, bye)
        except ProtocolError:
            pass  # already gone
        self.network.disconnect(self.peer.id, suspect, reason_code=bye_code)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _on_control(self, src: PeerId, msg: Message) -> None:
        if isinstance(msg, NeighborListMessage):
            self._on_neighbor_list(src, msg)
        elif isinstance(msg, NeighborTrafficMessage):
            self._on_neighbor_traffic(src, msg)
        elif isinstance(msg, Pong):
            self._on_pong(msg.responder if msg.responder is not None else src)
        # Bye needs no protocol action here.

    def _on_neighbor_gone(self, neighbor: PeerId, reason_code: int) -> None:
        # Keep the store's history: it is still valid evidence about the
        # just-ended minute, and buddy groups may ask for it right after a
        # disconnection race. The bounded history ages it out naturally.
        self._investigations.pop(neighbor, None)

    def stop(self) -> None:
        self._stopped = True
        if self._exchange_task is not None:
            self._exchange_task.stop()
        self._liveness_task.stop()


def deploy_ddpolice(
    network: OverlayNetwork,
    config: DDPoliceConfig = DDPoliceConfig(),
    *,
    bad_peers: Optional[Set[PeerId]] = None,
    bad_strategy: CheatStrategy = CheatStrategy.SILENT,
    collusion: Optional[CollusionRing] = None,
    rng: Optional[random.Random] = None,
) -> Dict[PeerId, DDPoliceEngine]:
    """Attach a DD-POLICE engine to every peer in the network.

    Good peers report honestly; peers in ``bad_peers`` use
    ``bad_strategy``. When ``bad_strategy`` is COLLUDE, ``collusion``
    (default: a ring over ``bad_peers``) arms the compromised engines'
    coordinated lying. All engines share one :class:`JudgmentLog`
    (accessible on any engine as ``.judgments``).
    """
    bad_peers = bad_peers or set()
    log = JudgmentLog()
    rng = rng or random.Random(0)
    if collusion is None and bad_strategy is CheatStrategy.COLLUDE and bad_peers:
        collusion = CollusionRing(members=frozenset(bad_peers))
    engines: Dict[PeerId, DDPoliceEngine] = {}
    for pid, peer in network.peers.items():
        strategy = bad_strategy if pid in bad_peers else CheatStrategy.HONEST
        engines[pid] = DDPoliceEngine(
            network,
            peer,
            config,
            judgment_log=log,
            cheat_strategy=strategy,
            collusion=collusion if pid in bad_peers else None,
            rng=random.Random(rng.getrandbits(32)),
        )
    return engines
