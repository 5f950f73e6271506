"""The fluid simulation: churn + attack + flows + defense + metrics.

One :class:`FluidSimulation` advances minute by minute:

1. churn step (leaves/joins/reconnects) and neighbor-list republication;
2. attack injection for the active agents, rate-law
   ``Q_d = min(nominal, upstream link capacity)`` with a partial-minute
   factor on (re)join minutes;
3. flow propagation (:mod:`repro.fluid.flows`) yielding the per-edge
   per-minute counts;
4. service-quality metrics: traffic cost, success rate, response time --
   derived from flood reach against the content catalog's replica
   distribution;
5. the configured defense (DD-POLICE / naive cutoff / none) reacts to the
   counts, cutting edges and expelling fully-disconnected peers.

Twin runs (no attack, attack, attack + defense) differ only from minute 0
on: everything before -- topology, agent sample, bandwidth, replica
counts and the churn warm-up -- is a function of a few config fields, so
the last such warm start is kept and each run restores a private copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig, ExchangePolicy
from repro.core.decision import NAIVE_THRESHOLD_QPM
from repro.errors import ConfigError, MetricsError
from repro.fluid.coverage import novelty_schedule
from repro.fluid.flows import FlowResult, propagate_flows
from repro.fluid.graphstate import FluidChurnConfig, GraphCheckpoint, GraphState
from repro.fluid.police import FluidNaiveCutoff, FluidPolice
from repro.metrics.errors import ErrorCounts, JudgmentLog
from repro.obs.trace import JsonlSink, Tracer
from repro.overlay.bandwidth import BandwidthModel
from repro.simkit.rng import RngRegistry, derive_seed
from repro.overlay.content import ContentConfig, replica_counts, zipf_popularity
from repro.overlay.message import HOP_LATENCY_S
from repro.overlay.topology import TopologyConfig, generate_topology

#: Flood radius of every query (the Gnutella default).
TTL = 7
#: Cap on a hop's queueing wait (seconds).
QUEUE_WAIT_CAP_S = 2.0


@dataclass(frozen=True)
class FluidConfig:
    """Everything a large-scale run needs."""

    n: int = 2000
    topology: Optional[TopologyConfig] = None
    #: Normal-peer behaviour.
    queries_per_minute: float = 0.3
    capacity_qpm: float = 10_000.0
    #: Attack: each agent floods at min(nominal, its upstream capacity).
    num_agents: int = 0
    attack_start_min: int = 0
    attack_rate_qpm: float = 20_000.0
    cheat_strategy: CheatStrategy = CheatStrategy.SILENT
    #: Dynamics.
    churn: FluidChurnConfig = FluidChurnConfig()
    #: Minutes of churn-only warmup before metrics start, so the online
    #: population and topology begin at churn steady state instead of
    #: decaying through the measurement window.
    churn_warmup_min: int = 15
    #: Defense: "none" | "ddpolice" | "naive".
    defense: str = "none"
    police: DDPoliceConfig = DDPoliceConfig()
    seed: int = 0
    #: JSONL file the run appends one ``fluid.minute`` record per step
    #: to. ``None`` (the default) costs one branch per minute step, and
    #: rows are bit-identical either way.
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.queries_per_minute < 0:
            raise ConfigError("queries_per_minute must be non-negative")
        if self.capacity_qpm <= 0:
            raise ConfigError("capacity_qpm must be positive")
        if not (0 <= self.num_agents <= self.n):
            raise ConfigError("num_agents out of range")
        if self.attack_start_min < 0:
            raise ConfigError("attack_start_min must be non-negative")
        if self.attack_rate_qpm <= 0:
            raise ConfigError("attack_rate_qpm must be positive")
        if self.churn_warmup_min < 0:
            raise ConfigError("churn_warmup_min must be non-negative")
        period = self.police.exchange_period_s
        if period < 60.0 or period % 60.0:
            raise ConfigError(
                f"police.exchange_period_s: the fluid model steps whole "
                f"minutes, so the exchange period must be a whole number "
                f"of minutes >= 1, got {period} s"
            )
        if self.defense not in ("none", "ddpolice", "naive"):
            raise ConfigError(f"unknown defense {self.defense!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class MinuteRow:
    """Metrics for one simulated minute."""

    minute: int
    online: int
    edges_directed: int
    agents_online: int
    agents_attacking: int
    good_injected_qpm: float
    attack_injected_qpm: float
    query_messages_qpm: float
    control_messages_qpm: float
    dropped_fraction: float
    mean_rho: float
    reach_per_query: float
    success_rate: float
    response_time_s: float
    edges_cut: int
    list_staleness: float

    @property
    def traffic_cost_kqpm(self) -> float:
        """Total messages per minute in thousands (Figure 9 units)."""
        return (self.query_messages_qpm + self.control_messages_qpm) / 1000.0


def _republish_period_min(police: DDPoliceConfig) -> int:
    """Minutes between a peer's neighbor-list republications: every
    ``exchange_period_s // 60``, or every minute (the model's finest
    step) under the event-driven policy."""
    if police.exchange_policy is ExchangePolicy.EVENT_DRIVEN:
        return 1
    return int(police.exchange_period_s // 60)


@dataclass(frozen=True)
class _WarmStart:
    """What every run with the same :func:`_warm_start` key starts from.

    Immutable: the graph is a checkpoint each run restores privately, and
    the arrays are read-only.
    """

    graph: GraphCheckpoint
    #: The agent sample, in draw order.
    agents: Tuple[int, ...]
    upstream_qpm: np.ndarray
    downstream_qpm: np.ndarray
    popularity: np.ndarray
    replicas: np.ndarray


def _read_only(values) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    array.flags.writeable = False
    return array


@lru_cache(maxsize=1)
def _warm_start(
    n: int,
    topology: TopologyConfig,
    seed: int,
    num_agents: int,
    churn: FluidChurnConfig,
    churn_warmup_min: int,
    republish_period_min: int,
) -> _WarmStart:
    """The state of a run at minute 0, from the only config fields it
    depends on; the last one is kept, so consecutive twins build it once.

    Named streams: baseline and attacked twins share identical
    churn/bandwidth/topology draws (common random numbers), so damage-rate
    series are exactly zero before the attack starts.
    """
    rngs = RngRegistry(seed)
    topo = generate_topology(topology)
    state = GraphState(
        n,
        {u: set(vs) for u, vs in enumerate(topo.adjacency)},
        churn=churn,
        exchange_period_min=republish_period_min,
        rng=rngs.stream("churn"),
    )
    # Ground truth: which peers are compromised.
    agents = tuple(rngs.stream("agents").sample(range(n), num_agents))
    # Per-node access bandwidth (Saroiu assignment, Section 3.5).
    bw = BandwidthModel(seed=derive_seed(seed, "bandwidth"))
    classes = bw.assign(n)
    # Agents stay online for the whole attack ("keep sending out attack
    # queries at the maximum rate"); they still lose their position when
    # the defense expels them, and rejoin via churn.
    state.pinned = set(agents)
    # Churn-only warmup: converge the online population/topology to
    # steady state before minute 0.
    if churn.enabled and churn_warmup_min > 0:
        for _ in range(churn_warmup_min):
            state.step_churn()
            state.step_exchange()
        state.minute = 0
        state.joins = 0
        state.leaves = 0
    content = ContentConfig()
    return _WarmStart(
        graph=state.checkpoint(),
        agents=agents,
        upstream_qpm=_read_only([bw.upstream_qpm(c) for c in classes]),
        downstream_qpm=_read_only([bw.downstream_qpm(c) for c in classes]),
        popularity=_read_only(zipf_popularity(content)),
        replicas=_read_only(replica_counts(content, n)),
    )


class FluidSimulation:
    """Minute-stepped large-scale simulation."""

    def __init__(self, config: FluidConfig) -> None:
        self.config = config
        self._rng = RngRegistry(config.seed).stream("model")
        topo_cfg = config.topology or TopologyConfig(n=config.n, seed=config.seed)
        if topo_cfg.n != config.n:
            raise ConfigError("topology n must match config n")
        warm = _warm_start(
            config.n,
            topo_cfg,
            config.seed,
            config.num_agents,
            config.churn,
            config.churn_warmup_min,
            _republish_period_min(config.police),
        )
        self.state = GraphState.restore(warm.graph)
        self.bad_peers: Set[int] = set(warm.agents)
        self.upstream_qpm = warm.upstream_qpm
        self.downstream_qpm = warm.downstream_qpm
        self._pop = warm.popularity
        self._rep = warm.replicas
        # Attack rate per agent: Q_d = min(nominal, upstream capacity).
        self.attack_rate: Dict[int, float] = {}
        for u in sorted(self.bad_peers):
            self.attack_rate[u] = min(
                config.attack_rate_qpm, float(self.upstream_qpm[u])
            )

        self.capacity = np.full(config.n, config.capacity_qpm)

        self.judgments = JudgmentLog()
        self.police: Optional[FluidPolice] = None
        self.naive: Optional[FluidNaiveCutoff] = None
        if config.defense == "ddpolice":
            self.police = FluidPolice(
                config.police,
                self.bad_peers,
                cheat_strategy=config.cheat_strategy,
                judgment_log=self.judgments,
            )
        elif config.defense == "naive":
            self.naive = FluidNaiveCutoff(
                NAIVE_THRESHOLD_QPM, self.bad_peers, judgment_log=self.judgments
            )

        self.rows: List[MinuteRow] = []
        self._agent_fresh: Dict[int, bool] = {u: True for u in self.bad_peers}
        self._was_online: Dict[int, bool] = {u: True for u in self.bad_peers}
        self._control_messages_acc = 0.0

        #: None without a ``trace_path`` (the default), so the per-minute
        #: guard in :meth:`step` is a single falsy branch.
        self._tracer: Optional[Tracer] = None
        if config.trace_path is not None:
            self._tracer = Tracer(
                sinks=[JsonlSink(config.trace_path)], run=f"fluid-seed{config.seed}"
            )

    # ------------------------------------------------------------------
    @property
    def minute(self) -> int:
        return self.state.minute

    def attack_active(self) -> bool:
        return bool(self.bad_peers) and self.minute >= self.config.attack_start_min

    # ------------------------------------------------------------------
    def step(self) -> MinuteRow:
        """Advance one minute and return its metrics row."""
        if self._tracer is None:
            return self._step_minute()
        import time as _time

        started = _time.perf_counter()
        row = self._step_minute()
        self._tracer.event(
            "fluid.minute",
            t=row.minute * 60.0,
            minute=row.minute,
            online=row.online,
            agents_attacking=row.agents_attacking,
            success_rate=row.success_rate,
            edges_cut=row.edges_cut,
            wall_s=_time.perf_counter() - started,
        )
        return row

    def _step_minute(self) -> MinuteRow:
        cfg = self.config
        state = self.state
        state.step_churn()
        refreshed = state.step_exchange()

        online = state.online_count()
        # Cached between minutes; GraphState invalidates on any
        # churn/edge-cut mutation via its topology version.
        src, dst, rev, indptr = state.edge_arrays()
        E = len(src)

        # -- injections -------------------------------------------------
        # A peer issues queries iff it is online with >= 1 live neighbor,
        # which (edges exist only between online peers) is exactly
        # out-degree > 0.
        deg_all = np.diff(indptr)
        good_rate = np.where(deg_all > 0, cfg.queries_per_minute, 0.0)

        attack_inject = np.zeros(E)
        attacking = 0
        agents_online = 0
        if self.attack_active():
            for u in sorted(self.bad_peers):
                now_online = bool(state.online[u]) and bool(state.adjacency[u])
                if now_online:
                    agents_online += 1
                    factor = 1.0
                    if not self._was_online.get(u, False) or self._agent_fresh.get(u, False):
                        # partial first minute after (re)joining
                        factor = self._rng.uniform(0.3, 1.0)
                        self._agent_fresh[u] = False
                    rate = self.attack_rate[u] * factor
                    # CSR slice: node u's out-edges are contiguous in
                    # the (src, dst)-sorted edge arrays.
                    lo, hi = int(indptr[u]), int(indptr[u + 1])
                    if hi > lo:
                        attack_inject[lo:hi] = rate / (hi - lo)
                        attacking += 1
                else:
                    self._agent_fresh[u] = True
                self._was_online[u] = now_online
        else:
            for u in self.bad_peers:
                now_online = bool(state.online[u]) and bool(state.adjacency[u])
                if now_online:
                    agents_online += 1
                self._was_online[u] = now_online

        # -- flows -------------------------------------------------------
        degrees = deg_all[state.online]
        if degrees.size == 0:
            degrees = [0]
        sigma = novelty_schedule(degrees, TTL, n=max(1, online))
        flow = propagate_flows(
            src,
            dst,
            rev,
            cfg.n,
            good_rate=good_rate,
            attack_edge_inject=attack_inject,
            capacity=self.capacity,
            ttl=TTL,
            sigma=sigma,
            upstream_qpm=self.upstream_qpm,
            downstream_qpm=self.downstream_qpm,
        )

        # -- service metrics ----------------------------------------------
        reach = self._reach_per_query(flow)
        success = self._success_rate(reach)
        response = self._response_time(flow)

        # -- defense -------------------------------------------------------
        edges_cut = 0
        # Every directed edge has an online source, so the online degree
        # sum is exactly E.
        mean_deg = float(E) / online if online else 0.0
        # Each republishing peer sends its list to every neighbor.
        control_msgs = float(refreshed) * mean_deg
        if self.police is not None:
            before = self.police.stats.traffic_messages
            edges_cut = self.police.step(
                float(self.minute), state, flow.edge_total, flow.edge_sent_total
            )
            control_msgs += self.police.stats.traffic_messages - before
        elif self.naive is not None:
            edges_cut = self.naive.step(float(self.minute), state, flow.edge_total)

        row = MinuteRow(
            minute=self.minute,
            online=online,
            edges_directed=E,
            agents_online=agents_online,
            agents_attacking=attacking,
            good_injected_qpm=float(good_rate.sum()),
            attack_injected_qpm=float(attack_inject.sum()),
            query_messages_qpm=flow.total_messages_per_min,
            control_messages_qpm=float(control_msgs),
            dropped_fraction=flow.dropped_fraction,
            mean_rho=float(flow.rho[state.online].mean()) if online else 1.0,
            reach_per_query=reach,
            success_rate=success,
            response_time_s=response,
            edges_cut=edges_cut,
            list_staleness=state.snapshot_staleness(),
        )
        self.rows.append(row)
        return row

    def run(self, minutes: int) -> List[MinuteRow]:
        """Advance ``minutes`` minutes; returns all accumulated rows."""
        if minutes < 1:
            raise ConfigError("minutes must be >= 1")
        for _ in range(minutes):
            self.step()
        return self.rows

    def close_trace(self) -> None:
        """Close the trace file (no-op without a ``trace_path``)."""
        if self._tracer is not None:
            self._tracer.close()

    # ------------------------------------------------------------------
    # derived service metrics
    # ------------------------------------------------------------------
    def _effective_per_hop(self, flow: FlowResult) -> "np.ndarray":
        """Per-hop *useful* reach of one good query.

        A hop-h peer contributes to success only if (a) it processes the
        query and (b) its QueryHit survives the h-hop return path; each
        return hop crosses a node that forwards with its processed
        fraction, so survival multiplies the path-weighted rho per hop.
        """
        if flow.good_injected <= 0:
            return np.zeros(TTL)
        per_hop = flow.good_processed_per_hop / flow.good_injected
        survival = np.cumprod(flow.good_path_quality_per_hop)
        return per_hop * survival

    def _reach_per_query(self, flow: FlowResult) -> float:
        """Expected distinct peers whose answer could come back.

        Capped at the online population (the novelty approximation can
        overshoot on small dense graphs).
        """
        reach = float(self._effective_per_hop(flow).sum())
        return min(reach, float(max(1, self.state.online_count())))

    def _success_rate(self, reach: float) -> float:
        """S(t): popularity-weighted P(>=1 replica within reach).

        With R replicas uniform over n peers and an expected processed
        reach of m peers, P(hit) ~= 1 - exp(-m R / n).
        """
        if reach <= 0:
            return 0.0
        p_hit = 1.0 - np.exp(-reach * self._rep / self.config.n)
        return float((self._pop * p_hit).sum())

    def _response_time(self, flow: FlowResult) -> float:
        """Mean response time of successful queries (seconds).

        First-hit hop distribution from cumulative per-hop reach;
        round-trip over that many hops with congestion-dependent per-hop
        delay (M/D/1 wait at the flow-weighted mean utilization).
        """
        cfg = self.config
        if flow.good_injected <= 0:
            return 0.0
        cum = np.cumsum(self._effective_per_hop(flow))
        # Popularity-weighted P(hit within h hops).
        p_by_hop = 1.0 - np.exp(
            -np.outer(cum, self._rep) / cfg.n
        )  # (ttl, K)
        p_h = (p_by_hop * self._pop).sum(axis=1)  # success prob by hop
        total = p_h[-1]
        if total <= 1e-12:
            return 0.0
        pmf = np.diff(np.concatenate([[0.0], p_h])) / total
        hops = np.arange(1, TTL + 1)
        expected_hops = float((pmf * hops).sum())
        # Congestion delay: demand-weighted utilization across nodes (a
        # response crosses the nodes where the load actually is).
        util = np.minimum(1.0, flow.offered / self.capacity)
        weights = flow.offered
        wsum = float(weights.sum())
        mean_util = float((util * weights).sum() / wsum) if wsum > 0 else 0.0
        mean_util = min(mean_util, 0.98)
        service_s = 60.0 / cfg.capacity_qpm
        wait = service_s * mean_util / (2.0 * (1.0 - mean_util))
        wait = min(wait, QUEUE_WAIT_CAP_S)
        hop_delay = HOP_LATENCY_S + wait
        return 2.0 * expected_hops * hop_delay

    # ------------------------------------------------------------------
    # run-level summaries
    # ------------------------------------------------------------------
    def error_counts(self) -> ErrorCounts:
        """Figure 13 error measures against ground truth."""
        return self.judgments.error_counts(set(self.bad_peers))

    def mean_over(self, first_minute: int, attr: str) -> float:
        """Mean of a row attribute from ``first_minute`` (1-based) on.

        Raises :class:`~repro.errors.MetricsError` when the selection
        window is empty (e.g. ``first_minute`` past the end of the run,
        or the simulation has not been stepped yet).
        """
        vals = [getattr(r, attr) for r in self.rows if r.minute >= first_minute]
        if not vals:
            last = self.rows[-1].minute if self.rows else None
            raise MetricsError(
                f"empty selection window: no rows at minute >= {first_minute} "
                f"(last simulated minute: {last})"
            )
        return float(np.mean(vals))
