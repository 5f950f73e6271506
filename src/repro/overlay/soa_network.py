"""Struct-of-arrays flood engine: batched vectorized DES backend.

The message-level engine (:mod:`repro.overlay.network`) pays one Python
heap event per message delivery; at n >= 100k the flood dominates and
per-event dispatch caps throughput around tens of thousands of events
per second. This module replays the *same* protocol semantics with peer
state in numpy arrays indexed by peer id and flooding advanced in
*waves*: the deliveries sharing one exact virtual timestamp. Every wave
keeps its own heap event, but the first one to fire takes the whole
*hop window* behind it -- every buffered wave less than one hop later
and before the next minute roll or DD-POLICE conclusion -- through one
vectorized step (dedup mask -> seen-map insert -> token-bucket clamp ->
hits and CSR gather/scatter fan-out); the later waves' events then
return at once. The binary-heap engine is retained for the sparse
control plane: workload issue timers, attack batches, the per-minute
window roll, and DD-POLICE conclusion timeouts.

Equivalence contract (enforced by ``tests/property/test_soa_equivalence.py``)
-----------------------------------------------------------------------------
With churn/faults/bandwidth off and ``hop_latency_jitter_s == 0`` the
wave schedule reproduces the message engine's delivery timeline exactly:
every hop adds the same ``HOP_LATENCY_S`` float, so all copies of one
TTL generation share one timestamp, and per-receiver arrival order is
identical to the DES event order (one forwarder event sends one query
to many *distinct* receivers, so reordering inside a forwarder's send
loop never permutes any single receiver's arrival sequence). Dedup
winners, reverse routes, token-bucket grants, drop counts, per-minute
rows, and S(t) therefore match the message DES float-for-float.

Batching a hop window changes none of that, because:

* one query's waves are one hop apart (repeated float addition is
  monotone), so a window holds at most one timestamp per qid and
  everything keyed by ``(qid, peer)`` -- dedup, the seen/route map,
  ``_meta`` -- is independent across the window's timestamps;
* every wave of the window is buffered when its first one fires: its
  producer ran at least one hop earlier;
* only minute rolls and conclusions change state a wave reads (window
  counters, live edges), and the window ends before the next of each;
  issues and attack batches touch integer counters, fresh qids and the
  pending origin keys, so they commute with it;
* per-peer token buckets are consumed in rounds -- round ``r`` grants
  each peer's ``r``-th timestamp of the window at that timestamp -- so
  each bucket sees the sequential float ops in the sequential order;
* every output goes to its own row's timestamp plus one hop, tagged
  with its producer's ``(time, priority)``, and a wave concatenates its
  chunks in tag order: a batch that pushed before an earlier-stamped
  issue still lands behind it, as in the DES event order.

A DD-POLICE run judges through the same verdict kernel as the message
engine (:mod:`repro.core.decision`): the police round only gathers each
buddy group's counts from one CSR slice and works out when each
investigator's conclusion fires. What the kernel owns therefore needs no
code here (``assume_zero_on_missing`` is honoured either way); what needs
*scheduling* this engine does not model -- quorum window extensions, report
retries, radius > 1 groups, non-SILENT cheats -- is rejected up front.

Known divergences, all confined to DD-POLICE runs:

* the SoA engine sends no control-plane messages (exchange lists,
  liveness pings, Neighbor_Traffic, Bye), so ``messages_delivered`` and
  ``bytes_transferred`` exclude the control plane (compare
  ``query_messages``/``hit_messages`` instead);
* buddy groups are derived from *current* alive neighbor sets rather
  than the directory's last-broadcast snapshot. The two agree whenever
  the attack starts after the directory has converged (first exchange
  broadcasts complete by t = exchange start delay <= 120 s) and no edge
  was cut in the preceding exchange period.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Dict, List, Optional, Set, TYPE_CHECKING, Tuple

import numpy as np

from repro.attack.agent import BATCH_INTERVAL_S
from repro.attack.cheating import CheatStrategy
from repro.core.decision import GroupEvidence, Verdict, judge
from repro.errors import ConfigError
from repro.fluid.flows import build_edge_arrays, edge_slice_index
from repro.metrics.accounting import QueryAccounting
from repro.metrics.errors import ErrorCounts, JudgmentLog
from repro.overlay.content import ContentCatalog
from repro.overlay.ids import PeerId
from repro.overlay.message import GNUTELLA_HEADER_SIZE, HOP_LATENCY_S, MINUTE_WINDOW_S
from repro.overlay.topology import TopologyConfig, generate_topology
from repro.simkit.engine import Simulator
from repro.simkit.rng import RngRegistry
from repro.simkit.soa import Int64Map, TokenBucketArray
from repro.simkit.timers import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids a layering cycle
    from repro.experiments.runner import DESConfig

#: Route-table sentinel: the keyed peer originated the query.
ORIGIN = -2
#: Route lookup miss (seen-set entry expired or never existed).
MISSING = -3

#: QueryHit wire size: 23-byte header + 11 + 40 * result_count(1) + 16.
HIT_SIZE = 90

#: Heap priority of a wave event: same-time issues, attack batches and
#: police conclusions (0) and the minute roll (-1) fire first, matching
#: the DES seq order of in-flight deliveries.
WAVE_PRIORITY = 1

#: Where each chunk kind sits in a wave buffer.
QUERIES, HITS = 0, 1

#: A chunk's first field: its producer's ``(time, priority)``.
_tag = itemgetter(0)


def _run_bounds(sorted_vals: np.ndarray) -> np.ndarray:
    """Bounds ``b`` of the equal-value runs of a sorted, non-empty array:
    run ``i`` is ``sorted_vals[b[i]:b[i + 1]]``."""
    k = len(sorted_vals)
    bound = np.empty(k + 1, dtype=bool)
    bound[0] = bound[k] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=bound[1:k])
    return bound.nonzero()[0]


def _gather(waves: list, kind: int) -> Optional[tuple]:
    """One chunk kind's rows over a hop window, in DES event order.

    Rows run by timestamp, then by producer tag, then in append order.
    Returns ``(w, *columns)`` with ``w`` each row's index into the
    window's timestamps, or None when no wave carries that kind.
    """
    chunks: list = []
    index: List[int] = []
    for i, wave in enumerate(waves):
        part = wave[kind]
        if len(part) > 1:
            part.sort(key=_tag)  # stable: equal tags keep append order
        chunks += part
        index += [i] * len(part)
    if not chunks:
        return None
    if len(chunks) == 1:
        cols = chunks[0][1:]
        return (np.full(len(cols[0]), index[0], dtype=np.int64), *cols)
    w = np.repeat(np.array(index, dtype=np.int64), [len(c[1]) for c in chunks])
    _, *cols = zip(*chunks)
    return (w, *(np.concatenate(col) for col in cols))


def query_size_bytes(keywords: Tuple[str, ...]) -> int:
    """Wire size of a Query: header + min_speed(2) + NUL search string."""
    payload = 2 + sum(len(k) for k in keywords) + max(0, len(keywords) - 1) + 1
    return GNUTELLA_HEADER_SIZE + payload


@dataclass
class SoaStats:
    """Aggregate counters, aligned with :class:`NetworkStats` field names.

    ``control_messages`` stays 0 by construction: the SoA engine models
    no control plane.
    """

    messages_delivered: int = 0
    bytes_transferred: int = 0
    query_messages: int = 0
    hit_messages: int = 0
    control_messages: int = 0
    queries_dropped_capacity: int = 0
    # Extras (sums of the DES per-peer counters, for the oracle tests).
    queries_dropped_duplicate: int = 0
    hits_dropped_no_route: int = 0
    queries_issued: int = 0
    attack_queries_sent: int = 0
    edges_cut: int = 0


@dataclass
class SoaRun:
    """A finished SoA run with the surfaces result extraction needs."""

    config: "DESConfig"
    n: int
    stats: SoaStats
    accounting: QueryAccounting
    judgments: Optional[JudgmentLog]
    bad_peers: Set[PeerId] = field(default_factory=set)
    wall_s: float = 0.0
    heap_events: int = 0
    waves_processed: int = 0
    #: Bytes of per-minute traffic-evidence state at the end of the run.
    evidence_bytes: int = 0

    @property
    def deliveries(self) -> int:
        return self.stats.messages_delivered

    def error_counts(self) -> ErrorCounts:
        if self.judgments is None:
            raise ConfigError("run had no defense; no judgments recorded")
        return self.judgments.error_counts(set(self.bad_peers))


def _reject_unsupported(config: "DESConfig") -> None:
    """Refuse configurations whose semantics the wave engine cannot honor.

    Mirrors the fluid backend's policy: fail loudly rather than run a
    simulation that silently ignores part of the configuration.
    """
    if config.churn.enabled:
        raise ConfigError("backend 'des-soa' cannot simulate churn (DES only)")
    if config.faults.enabled:
        raise ConfigError(
            "backend 'des-soa' cannot simulate fault injection (DES only)"
        )
    if config.defense not in ("none", "ddpolice"):
        raise ConfigError(
            f"backend 'des-soa' has no {config.defense!r} defense (DES only)"
        )
    if config.adaptive.strategy != "static":
        raise ConfigError(
            f"backend 'des-soa' cannot simulate adaptive strategy "
            f"{config.adaptive.strategy!r} (DES only)"
        )
    if config.defense == "ddpolice":
        if config.cheat_strategy is not CheatStrategy.SILENT:
            raise ConfigError(
                f"backend 'des-soa' only models cheat_strategy 'silent' "
                f"under ddpolice, got {config.cheat_strategy!r} (DES only)"
            )
        if config.police.radius != 1:
            raise ConfigError("backend 'des-soa' requires police radius 1")
        if config.police.report_quorum:
            raise ConfigError(
                "backend 'des-soa' cannot honour police.report_quorum (it "
                "schedules no collection-window extension; DES only)"
            )
        if config.police.report_retry_limit:
            raise ConfigError(
                "backend 'des-soa' cannot honour police.report_retry_limit (DES only)"
            )
    if config.network.hop_latency_jitter_s != 0.0:
        raise ConfigError(
            "backend 'des-soa' requires hop_latency_jitter_s=0 (wave "
            "batching relies on shared per-generation timestamps)"
        )
    if config.network.bandwidth_enabled:
        raise ConfigError("backend 'des-soa' has no bandwidth model (DES only)")
    if config.network.seen_cache_limit != type(config.network).seen_cache_limit:
        raise ConfigError(
            "backend 'des-soa' cannot honour network.seen_cache_limit (its "
            "seen map never evicts; DES only)"
        )
    if config.trace_path is not None:
        raise ConfigError("backend 'des-soa' emits no trace records (--trace is des/fluid only)")


def _build_graph(
    config: "DESConfig",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The overlay's CSR edge arrays ``(src, dst, rev)`` and the fan-out
    replay permutation ``proto``: ``proto[indptr[p]:indptr[p + 1]]`` lists
    ``p``'s out-edges in DES neighbor-set iteration order."""
    n = config.n
    topo_cfg = config.topology or TopologyConfig(n=n, seed=config.seed)
    if topo_cfg.n != n:
        raise ConfigError(f"topology n={topo_cfg.n} does not match config n={n}")
    neighbors = generate_topology(topo_cfg).adjacency
    src, dst, rev = build_edge_arrays(dict(enumerate(neighbors)))

    # DES peers keep neighbors in a Python set, and issue_query /
    # _on_query emit sends in its *iteration order*. Which same-depth
    # forwarder fires first decides the dedup winner at the next hop
    # (= route parent = the neighbor excluded from that peer's
    # fan-out), so per-edge counters only match if the batched
    # fan-out emits in the same order. Replaying the identical
    # insertions into an identical set reproduces the (deterministic)
    # order; edge cuts never reorder survivors, matching set.discard.
    # A ``PeerId`` is the 1-tuple ``(value,)`` and hashes as one, so a
    # set of plain 1-tuples iterates in the same order.
    order = np.fromiter(
        chain.from_iterable(
            chain.from_iterable({(v,) for v in vs} for vs in neighbors)
        ),
        dtype=np.int64,
        count=len(src),
    )
    del neighbors  # the topology's sets: most of the build's peak
    # Each source's replay keys permute its slice of the (src, dst)
    # sorted edge keys, so their argsort lists the replay slots in
    # edge order and its inverse maps a replay slot to its edge.
    replay_keys = src * n + order
    slots = np.argsort(replay_keys, kind="stable")
    proto = np.empty_like(slots)
    proto[slots] = np.arange(len(src), dtype=np.int64)
    assert np.array_equal(src[proto] * n + dst[proto], replay_keys)
    return src, dst, rev, proto


class SoaFloodEngine:
    """One configured run of the wave-batched flood simulation."""

    def __init__(self, config: "DESConfig") -> None:
        _reject_unsupported(config)
        self.config = config
        n = config.n
        self.n = n
        self.stats = SoaStats()
        rngs = RngRegistry(config.seed)

        # -- topology -> CSR edge arrays -> fan-out replay ---------------
        # Built in a helper, so the topology's sets and the build's
        # temporaries are freed before any run state is allocated.
        self._src, self._dst, self._rev, self._proto_edge = _build_graph(config)
        self._E = len(self._src)
        self._indptr = edge_slice_index(self._src, n)
        self._deg = np.diff(self._indptr)

        # -- content ----------------------------------------------------
        self.content = ContentCatalog(config.content, n)
        # Bit ``obj * n + peer`` of ``_holders`` is set when ``peer``
        # shares ``obj``.
        holders = self.content.replica_holders
        sizes = [len(h) for h in holders]
        keys = np.repeat(np.arange(len(holders), dtype=np.int64) * n, sizes)
        keys += np.fromiter(chain.from_iterable(holders), np.int64, len(keys))
        self._holders = np.zeros((len(holders) * n + 7) // 8, dtype=np.uint8)
        np.bitwise_or.at(
            self._holders, keys >> 3, np.left_shift(1, keys & 7).astype(np.uint8)
        )

        # -- per-peer / per-edge dynamic state --------------------------
        net = config.network
        self._hop = HOP_LATENCY_S
        self._default_ttl = net.default_ttl
        self.bucket = TokenBucketArray(n, net.processing_qpm_good)
        self.edge_alive = np.ones(self._E, dtype=bool)
        self.win_out = np.zeros(self._E, dtype=np.int64)
        self.win_in = np.zeros(self._E, dtype=np.int64)
        # Seen-set + reverse routes. Entries survive at least one epoch
        # past their insert. A key is inserted by its hop window's batch,
        # up to one hop before its own timestamp, and read until at most
        # a query's out-and-back lifetime (2*ttl*hop) after it, so the
        # epoch must cover lifetime + hop. 1.5 * lifetime does whenever
        # ttl >= 1 (0.5 * lifetime = ttl * hop >= hop), and
        # NetworkConfig rejects ttl < 1.
        lifetime = 2.0 * self._default_ttl * self._hop
        epoch_s = max(0.5, 1.5 * lifetime)
        assert epoch_s >= lifetime + self._hop, (epoch_s, lifetime, self._hop)
        self.seen = Int64Map(epoch_s=epoch_s)
        self._pending_seen: List[np.ndarray] = []

        # -- metrics ----------------------------------------------------
        # retire_records=False switches off per-query key tracking (the
        # SoA engine keeps no QueryRecord table to retire); the emitted
        # rows are identical either way.
        self.accounting = QueryAccounting(
            grace_minutes=net.metrics_grace_minutes, retire_records=False
        )
        #: qid -> (window, issued_at, is_attack) for queries that can be
        #: answered (workload-issued; bogus attack batches never match).
        self._meta: Dict[int, Tuple[int, float, bool]] = {}
        self._next_qid = 0

        # -- simulator + timers -----------------------------------------
        self.sim = Simulator()
        self.minute_index = 0
        self._minute_task = PeriodicTask(
            self.sim,
            MINUTE_WINDOW_S,
            self._roll_minute,
            start_delay=MINUTE_WINDOW_S,
            priority=-1,
        )
        #: wave buffers: timestamp -> (query chunks, hit chunks). A chunk
        #: is its producer's (time, priority) tag followed by parallel
        #: arrays: a query copy is (qid, directed edge id it travels on,
        #: ttl, obj, size), a hit is (qid, receiving peer).
        self._waves: Dict[float, Tuple[list, list]] = {}
        #: min-heap of the buffered timestamps (the keys of ``_waves``)
        self._wave_times: List[float] = []
        #: min-heap of the scheduled ``_conclude`` times
        self._conclude_times: List[float] = []
        self.waves_processed = 0

        # -- workload ----------------------------------------------------
        self._wl_rng = rngs.stream("workload")
        self._wl_mean_gap = 60.0 / config.workload.queries_per_minute
        self._origin_mask = np.zeros(n, dtype=bool)

        # -- attack ------------------------------------------------------
        self.bad_peers: Set[PeerId] = set()
        self._bad_mask = np.zeros(n, dtype=bool)
        self._agents: List[dict] = []
        if config.num_agents > 0:
            atk_rng = rngs.stream("attack")
            chosen = atk_rng.sample(list(range(n)), config.num_agents)
            for pid in chosen:
                atk_rng.getrandbits(32)  # per-agent rng seed draw (unused here)
                self._agents.append({"pid": pid, "carry": 0.0, "nonce": 0})
            self.bad_peers = {PeerId(p) for p in chosen}
            self._bad_mask[chosen] = True
            self.sim.schedule_at(config.attack_start_s, self._attack_launch)

        # -- defense -----------------------------------------------------
        self.judgments: Optional[JudgmentLog] = None
        if config.defense == "ddpolice":
            self.judgments = JudgmentLog()

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _count_out(self, eids: np.ndarray) -> None:
        """Count one outgoing query on each edge id (repeats allowed)."""
        if len(eids):
            np.add.at(self.win_out, eids, 1)

    def _count_in(self, eids: np.ndarray) -> None:
        """Count one incoming query on each edge id (repeats allowed)."""
        if len(eids):
            np.add.at(self.win_in, eids, 1)

    def evidence_bytes(self) -> int:
        """Bytes of per-minute traffic-evidence state (both directions)."""
        return int(self.win_out.nbytes + self.win_in.nbytes)

    def _alive_out_edges(self, p: int) -> np.ndarray:
        a, b = int(self._indptr[p]), int(self._indptr[p + 1])
        return a + np.flatnonzero(self.edge_alive[a:b])

    def _proto_out_edges(self, p: int) -> np.ndarray:
        """Alive out-edges of ``p`` in DES neighbor-set iteration order."""
        a, b = int(self._indptr[p]), int(self._indptr[p + 1])
        e = self._proto_edge[a:b]
        return e[self.edge_alive[e]]

    def _push(
        self, t: float, tag: Tuple[float, int], kind: int, *cols: np.ndarray
    ) -> None:
        """Buffer one chunk of ``kind`` for delivery at ``t``; ``tag`` is
        its producer's ``(time, priority)``."""
        wave = self._waves.get(t)
        if wave is None:
            wave = self._waves[t] = ([], [])
            heapq.heappush(self._wave_times, t)
            self.sim.schedule_at(t, self._process_wave, t, priority=WAVE_PRIORITY)
        wave[kind].append((tag, *cols))

    def _push_window(
        self, times: List[float], w: np.ndarray, kind: int, *cols: np.ndarray
    ) -> None:
        """Send rows produced by a hop window, each one hop after its own
        timestamp ``times[w]``; ``w`` is non-decreasing."""
        hop = self._hop
        i, j = int(w[0]), int(w[-1])
        cut = w.searchsorted(np.arange(i, j + 2)).tolist()
        for k, ts in enumerate(times[i : j + 1]):
            a, b = cut[k], cut[k + 1]
            if a < b:
                self._push(
                    ts + hop, (ts, WAVE_PRIORITY), kind, *(c[a:b] for c in cols)
                )

    # ------------------------------------------------------------------
    # workload (good queries; replicates QueryWorkload's rng sequence)
    # ------------------------------------------------------------------
    def start_workload(self) -> None:
        rate = 1.0 / self._wl_mean_gap
        rng = self._wl_rng
        self.sim.schedule_bulk(
            self._issue, ((rng.expovariate(rate), pid) for pid in range(self.n))
        )

    def _issue(self, pid: int) -> None:
        eids = self._proto_out_edges(pid)
        if len(eids):
            obj = self.content.sample_object(self._wl_rng)
            keywords = self.content.keywords_for(obj)
            size = query_size_bytes(keywords)
            now = self.sim.now
            qid = self._next_qid
            self._next_qid += 1
            is_attack = bool(self._origin_mask[pid])
            window = self.accounting.on_issued(None, is_attack)
            self._meta[qid] = (window, now, is_attack)
            self._pending_seen.append(
                np.array([qid * self.n + pid], dtype=np.int64)
            )
            # A peer's out-edges are distinct: no add.at needed.
            self.win_out[eids] += 1
            # The four constant columns share one allocation.
            cols = np.empty((4, len(eids)), dtype=np.int64)
            cols.T[:] = (qid, self._default_ttl, obj, size)
            qids, ttls, objs, sizes = cols
            self._push(now + self._hop, (now, 0), QUERIES, qids, eids, ttls, objs, sizes)
            self.stats.queries_issued += 1
        self.sim.schedule_in(
            self._wl_rng.expovariate(1.0 / self._wl_mean_gap), self._issue, pid
        )

    # ------------------------------------------------------------------
    # attack (replicates the DES runner's agent planting and the
    # DDoSAgent batch arithmetic)
    # ------------------------------------------------------------------
    def _attack_launch(self) -> None:
        # Origins register at launch (not construction): agent peers'
        # earlier workload queries keep their GOOD class.
        for agent in self._agents:
            self._origin_mask[agent["pid"]] = True
        # The first batch fires at launch time but *after* any same-time
        # workload issues, like the DES agents' schedule_in(0) batches.
        self.sim.schedule_at(self.sim.now, self._attack_batch)

    def _attack_batch(self) -> None:
        rate_qpm = self.config.attack_rate_qpm
        now = self.sim.now
        n = self.n
        deliver_at = now + self._hop
        for agent in self._agents:
            pid = agent["pid"]
            eids = self._alive_out_edges(pid)
            if not len(eids):
                continue  # carry/nonce untouched, exactly like the DES agent
            per_batch = rate_qpm * BATCH_INTERVAL_S / 60.0 + agent["carry"]
            count = int(per_batch)
            agent["carry"] = per_batch - count
            if count == 0:
                continue
            nonce0 = agent["nonce"]
            agent["nonce"] = nonce0 + count
            nonces = np.arange(nonce0 + 1, nonce0 + count + 1, dtype=np.int64)
            # Query size: header + min_speed + "bogus x{pid}n{nonce}" NUL.
            # 23 + (2 + 5 + (2 + d(pid) + d(nonce)) + 1 + 1)
            digits = np.ones(count, dtype=np.int64)
            p10 = 10
            while p10 <= int(nonces[-1]):
                digits += nonces >= p10
                p10 *= 10
            sizes = 34 + len(str(pid)) + digits
            qid0 = self._next_qid
            self._next_qid = qid0 + count
            qids = np.arange(qid0, qid0 + count, dtype=np.int64)
            self.accounting.on_issued_many(count, is_attack=True)
            self._pending_seen.append(qids * n + pid)
            # Round-robin over dst-sorted alive neighbors (the DES agent
            # sorts its neighbor set by peer id).
            te = np.resize(eids, count)
            self._count_out(te)
            self._push(
                deliver_at,
                (now, 0),
                QUERIES,
                qids,
                te,
                np.full(count, self._default_ttl, dtype=np.int64),
                np.full(count, -1, dtype=np.int64),
                sizes,
            )
            self.stats.attack_queries_sent += count
            self.stats.queries_issued += count
        self.sim.schedule_in(BATCH_INTERVAL_S, self._attack_batch)

    # ------------------------------------------------------------------
    # wave processing
    # ------------------------------------------------------------------
    def _take_pending_seen(self) -> Tuple[np.ndarray, np.ndarray]:
        """Origin keys of the queries issued since the last batch, with
        their ``ORIGIN`` route values."""
        keys = np.concatenate(self._pending_seen)
        self._pending_seen.clear()
        return keys, np.full(len(keys), ORIGIN, dtype=np.int64)

    def _take_window(self, t0: float) -> List[float]:
        """Pop the buffered timestamps of the hop window opened at ``t0``.

        The window is ``t0 <= t < t0 + hop``, cut before the next minute
        roll and the next conclusion (both fire ahead of a same-time wave
        and change what it reads) and at the end of the run.
        """
        end = min(t0 + self._hop, self._minute_task.next_time)
        if self._conclude_times:
            end = min(end, self._conclude_times[0])
        last = self.config.duration_s
        heap = self._wave_times
        times = []
        while heap and heap[0] < end and heap[0] <= last:
            times.append(heapq.heappop(heap))
        return times

    def _process_wave(self, t: float) -> None:
        """Heap event of the wave at ``t``: the first wave of a hop
        window runs the whole window as one batch."""
        self.waves_processed += 1
        if t not in self._waves:
            return  # delivered by the batch of an earlier hop window
        times = self._take_window(t)
        waves = [self._waves.pop(ts) for ts in times]
        queries = _gather(waves, QUERIES)
        hits = _gather(waves, HITS)
        del waves  # frees the chunks _gather concatenated
        if self._pending_seen and queries is None:
            # A query batch inserts them together with its own keys.
            self.seen.insert_new(*self._take_pending_seen())
        self.seen.maybe_rotate(t)
        if queries is not None:
            self._process_queries(times, *queries)
        if hits is not None:
            self._process_hits(times, *hits)

    def _grant(
        self, times: List[float], groups: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Token grants for sorted ``peer * len(times) + w`` groups.

        Round ``r`` grants every peer's ``r``-th timestamp of the window,
        at that timestamp, so each bucket refills and consumes in time
        order exactly as one grant per wave would.
        """
        nw = len(times)
        if nw == 1:
            return self.bucket.grant(groups, counts, times[0])
        peers, w = np.divmod(groups, nw)
        now = np.array(times)[w]
        runs = _run_bounds(peers)
        if len(runs) - 1 == len(peers):
            return self.bucket.grant(peers, counts, now)
        rank = np.arange(len(peers)) - np.repeat(runs[:-1], np.diff(runs))
        granted = np.empty(len(peers), dtype=np.int64)
        for r in range(int(rank.max()) + 1):
            sel = (rank == r).nonzero()[0]
            granted[sel] = self.bucket.grant(peers[sel], counts[sel], now[sel])
        return granted

    def _process_queries(
        self,
        times: List[float],
        w: np.ndarray,
        qid: np.ndarray,
        edge: np.ndarray,
        ttl: np.ndarray,
        obj: np.ndarray,
        size: np.ndarray,
    ) -> None:
        """One hop window's query copies, ``w`` indexing ``times``.

        Each stage is a method of its own, so its temporaries are freed
        before the next one allocates.
        """
        m = len(qid)
        stats = self.stats
        stats.messages_delivered += m
        stats.bytes_transferred += int(size.sum())
        stats.query_messages += m

        # In_query window stamps: receiver-side, gated on the connection
        # still existing (in-flight copies on a cut edge deliver but do
        # not resurrect the counter key).
        self._count_in(edge[self.edge_alive[edge]])

        dst = self._dst[edge]
        keep = self._first_sights(qid, dst, edge)
        if keep is not None:
            stats.queries_dropped_duplicate += m - len(keep)
            if not len(keep):
                return
            w, qid, dst, edge, ttl, obj, size = (
                a[keep] for a in (w, qid, dst, edge, ttl, obj, size)
            )
        passed = self._clamp(times, w, dst)
        if passed is not None:
            kept = int(np.count_nonzero(passed))
            stats.queries_dropped_capacity += len(passed) - kept
            if not kept:
                return
            w, qid, dst, edge, ttl, obj, size = (
                a[passed] for a in (w, qid, dst, edge, ttl, obj, size)
            )
        self._answer(times, w, qid, dst, edge, obj)
        self._fan_out(times, w, qid, dst, edge, ttl, obj, size)

    def _first_sights(
        self, qid: np.ndarray, dst: np.ndarray, edge: np.ndarray
    ) -> Optional[np.ndarray]:
        """Duplicate suppression: the rows to keep, in arrival order, or
        None to keep them all.

        Within-window first occurrence, then the cross-window seen-set.
        Route = arrival edge of the first sight, recorded even for copies
        the capacity clamp later drops. The origin keys of queries issued
        since the last batch join it: none can equal a window key,
        because a query's first wave (one HOP_LATENCY_S > 0 after its
        issue) is no earlier than this window, its second is past it, and
        the first never delivers to its origin.
        """
        keys = qid * self.n + dst
        order = keys.argsort()
        keys = keys[order]
        first = _run_bounds(keys)[:-1]
        # Each key's earliest arrival, however the sort broke ties.
        first_idx = np.minimum.reduceat(order, first)
        new_keys = keys[first]
        routes = edge[first_idx]
        if self._pending_seen:
            origin_keys, origins = self._take_pending_seen()
            new_keys = np.concatenate([new_keys, origin_keys])
            routes = np.concatenate([routes, origins])
        fresh = self.seen.insert_new(new_keys, routes)[: len(first_idx)]
        if int(np.count_nonzero(fresh)) == len(qid):
            return None
        return np.sort(first_idx[fresh])  # back to arrival order

    def _clamp(
        self, times: List[float], w: np.ndarray, dst: np.ndarray
    ) -> Optional[np.ndarray]:
        """Capacity clamp: the passed mask, or None when all pass.

        Per receiving peer and timestamp, the first ``granted`` fresh
        arrivals (in arrival order) consume tokens; the rest drop.
        Groups are sorted with each row's arrival index packed into the
        low bits, so ties within a group keep arrival order.
        """
        nw = len(times)
        group = dst * nw + w if nw > 1 else dst
        bits = len(group).bit_length()
        # group < n * nw, and PeerId keeps n below 2**24.
        assert (self.n * nw).bit_length() + bits <= 63, (self.n, nw, bits)
        packed = np.sort((group << bits) | np.arange(len(group)))
        order = packed & ((1 << bits) - 1)
        gs = packed >> bits
        bounds = _run_bounds(gs)
        starts = bounds[:-1]
        counts = bounds[1:] - starts
        granted = self._grant(times, gs[starts], counts)
        if not (granted < counts).any():
            return None
        rank = np.arange(len(gs)) - np.repeat(starts, counts)
        passed = np.empty(len(gs), dtype=bool)
        passed[order] = rank < np.repeat(granted, counts)
        return passed

    def _answer(
        self,
        times: List[float],
        w: np.ndarray,
        qid: np.ndarray,
        dst: np.ndarray,
        edge: np.ndarray,
        obj: np.ndarray,
    ) -> None:
        """Local content match -> QueryHit back along the arrival edge."""
        cand = obj >= 0
        if not cand.any():
            return
        hkeys = obj[cand] * self.n + dst[cand]
        found = ((self._holders[hkeys >> 3] >> (hkeys & 7)) & 1) != 0
        if found.any():
            sel = cand.nonzero()[0][found]
            self._push_window(times, w[sel], HITS, qid[sel], self._src[edge[sel]])

    def _fan_out(
        self,
        times: List[float],
        w: np.ndarray,
        qid: np.ndarray,
        dst: np.ndarray,
        edge: np.ndarray,
        ttl: np.ndarray,
        obj: np.ndarray,
        size: np.ndarray,
    ) -> None:
        """CSR fan-out of the survivors with TTL left: forward on every
        alive out-edge except the reverse of the arrival edge."""
        f_idx = (ttl > 1).nonzero()[0]
        u = dst[f_idx]
        lens = self._deg[u]
        total = int(lens.sum())
        if total == 0:
            return
        first = np.cumsum(lens) - lens
        # Map row positions through the protocol-order permutation so
        # each owner's forwards are emitted in DES set-iteration order.
        e = self._proto_edge[
            np.repeat(self._indptr[u] - first, lens) + np.arange(total)
        ]
        owner = np.repeat(f_idx, lens)
        ok = self.edge_alive[e] & (e != self._rev[edge][owner])
        e = e[ok]
        if not len(e):
            return
        owner = owner[ok]
        self._count_out(e)
        self._push_window(
            times, w[owner], QUERIES, qid[owner], e, ttl[owner] - 1, obj[owner], size[owner]
        )

    def _process_hits(
        self, times: List[float], w: np.ndarray, qid: np.ndarray, at: np.ndarray
    ) -> None:
        """One hop window's hit copies, ``w`` indexing ``times``."""
        m = len(qid)
        stats = self.stats
        stats.messages_delivered += m
        stats.bytes_transferred += HIT_SIZE * m
        stats.hit_messages += m

        # Route value: the edge the query arrived on at ``at``; the hit
        # goes back over its reverse, to that edge's source.
        arrival = self.seen.lookup(qid * self.n + at, missing=MISSING)
        is_origin = arrival == ORIGIN
        if is_origin.any():
            # Row order is time-then-chunk order, the order the DES
            # delivers them in, so the accounting float sums match.
            meta = self._meta
            for q, i in zip(qid[is_origin].tolist(), w[is_origin].tolist()):
                rec = meta.pop(q, None)
                if rec is not None:
                    window, issued_at, is_attack = rec
                    self.accounting.on_first_response(
                        window, is_attack, times[i] - issued_at
                    )
        stats.hits_dropped_no_route += int((arrival == MISSING).sum())
        route = arrival >= 0
        if not route.any():
            return
        sel = route.nonzero()[0]
        alive = self.edge_alive[self._rev[arrival[sel]]]
        stats.hits_dropped_no_route += len(sel) - int(np.count_nonzero(alive))
        if alive.any():
            sel = sel[alive]
            self._push_window(times, w[sel], HITS, qid[sel], self._src[arrival[sel]])

    # ------------------------------------------------------------------
    # minute roll + DD-POLICE
    # ------------------------------------------------------------------
    def _roll_minute(self) -> None:
        self.minute_index += 1
        prev_out = self.win_out
        prev_in = self.win_in
        self.win_out = np.zeros(self._E, dtype=np.int64)
        self.win_in = np.zeros(self._E, dtype=np.int64)
        self.accounting.on_minute_rolled(
            self.sim.now,
            self.stats.messages_delivered,
            self.stats.bytes_transferred,
        )
        if self.judgments is not None:
            self._police_round(prev_out, prev_in)

    def _police_round(self, prev_out: np.ndarray, prev_in: np.ndarray) -> None:
        """One suspicion/evidence round over the just-completed minute.

        Edge e = (j -> u) crossing the warning threshold makes observer u
        open an investigation of suspect j at the roll. Good investigators
        push Neighbor_Traffic reports to the whole buddy group (arriving
        one hop later), every member that receives one joins, and joiners'
        own reports arrive a second hop later; SILENT attackers
        investigate and judge but never report. An investigation
        concludes the moment its last expected report arrives -- one hop
        after the roll when every other member is a direct observer, two
        hops when a joiner's report is needed -- and only falls back to
        the collection-window timer (+5 s for directs, one hop later for
        joiners) when a SILENT member's report never comes. These are the
        same decision instants the message engine's early-completion path
        (``Investigation.complete``) produces.
        """
        police = self.config.police
        hot = self.edge_alive & (prev_in > police.warning_threshold_qpm)
        if not hot.any():
            return
        now = self.sim.now
        report_at = now + self._hop  # direct observers' reports land here
        by_time: Dict[float, List[Tuple[int, int, Verdict]]] = {}
        for j in np.unique(self._src[hot]).tolist():
            # The buddy group: j's alive out-edges (j -> m), members m
            # ascending. sent[x] = Q_jm as m counted it arriving,
            # received[x] = Q_mj as m counted it leaving on the reverse edge.
            e_jm = self._alive_out_edges(j)
            e_mj = self._rev[e_jm]
            members = self._dst[e_jm]
            observer = hot[e_jm]
            k = len(e_jm)
            # Without a good direct observer no reports circulate, so
            # nobody joins: only the directs investigate (on silence).
            bad = self._bad_mask[members]
            if (observer & ~bad).any():
                reporter = ~bad
                judges = range(k)
            else:
                reporter = np.zeros(k, dtype=bool)
                judges = np.flatnonzero(observer).tolist()
            sent = prev_in[e_jm]
            received = prev_out[e_mj]
            group = GroupEvidence(
                k,
                int(np.count_nonzero(reporter)),
                int(sent[reporter].sum()),
                int(received[reporter].sum()),
            )
            # The two highest-id reporting directs / joiners: the last
            # report an investigator waits for is the highest not its own.
            directs = np.flatnonzero(reporter & observer)[-2:].tolist()
            joiners = np.flatnonzero(reporter & ~observer)[-2:].tolist()
            members, e_mj, sent, received, reporter, observer = (
                arr.tolist()
                for arr in (members, e_mj, sent, received, reporter, observer)
            )
            for x in judges:
                u = members[x]
                verdict = judge(
                    police, group, PeerId(u), PeerId(j), received[x], sent[x],
                    own_counted=reporter[x],
                )
                # An investigation completes at the arrival of its *last*
                # expected report, and a conviction's disconnect evicts
                # the endpoints' still-pending investigations of each
                # other. Reports are sent in ascending sender-id order
                # (the roll visits peers in id order), so the delivery
                # rank of that last report -- the sender's id -- orders
                # same-instant conclusions exactly like the message
                # engine's event sequence.
                if verdict.answered < verdict.expected or k == 1:
                    # Never completes: the collection-window timer fires,
                    # anchored at the investigation's opening time (the
                    # roll for directs, first report arrival for joiners);
                    # timers fire in opening order = observer-id order.
                    opened = now if observer[x] else report_at
                    t_end = opened + police.collection_window_s
                    rank = u
                elif joiners and joiners != [x]:
                    t_end = report_at + self._hop
                    rank = members[max(y for y in joiners if y != x)]
                else:
                    t_end = report_at
                    rank = members[max(y for y in directs if y != x)]
                # Edge ids are (src, dst)-sorted: (rank, u -> j edge) is
                # the (rank, observer, suspect) order.
                by_time.setdefault(t_end, []).append((rank, e_mj[x], verdict))
        for t_end in sorted(by_time):
            decisions = [d[1:] for d in sorted(by_time[t_end])]
            heapq.heappush(self._conclude_times, t_end)
            self.sim.schedule_at(t_end, self._conclude, decisions)

    def _conclude(self, decisions: List[Tuple[int, Verdict]]) -> None:
        heapq.heappop(self._conclude_times)
        now = self.sim.now
        for e_uj, verdict in decisions:
            if not self.edge_alive[e_uj]:
                # The edge died before this conclusion (possibly cut by an
                # earlier decision in this same batch): the message engine
                # evicts the investigation via its neighbor-gone listener,
                # so no judgment is recorded.
                continue
            if verdict.convicted:
                self.edge_alive[e_uj] = False
                self.edge_alive[self._rev[e_uj]] = False
                self.stats.edges_cut += 1
            self.judgments.record(verdict.judgment(now))

    # ------------------------------------------------------------------
    def run(self) -> None:
        self.start_workload()
        self.sim.run(until=self.config.duration_s)


def run_soa_experiment(config: "DESConfig") -> SoaRun:
    """Build and run one wave-batched experiment end to end."""
    engine = SoaFloodEngine(config)
    t0 = time.perf_counter()
    engine.run()
    wall_s = time.perf_counter() - t0
    return SoaRun(
        config=config,
        n=engine.n,
        stats=engine.stats,
        accounting=engine.accounting,
        judgments=engine.judgments,
        bad_peers=engine.bad_peers,
        wall_s=wall_s,
        heap_events=engine.sim.events_fired,
        waves_processed=engine.waves_processed,
        evidence_bytes=engine.evidence_bytes(),
    )
