"""Message-level (DES) experiment runner.

Small-scale end-to-end runs of the full protocol stack: real messages,
real Neighbor_Traffic exchanges, churn, attack agents, and a pluggable
defense. Used by the integration tests, the examples, and the
fluid-vs-DES cross-validation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.attack.adaptive import AdaptiveConfig
from repro.attack.cheating import CheatStrategy
from repro.attack.scenario import AttackScenario, ScenarioConfig
from repro.baselines.naive import NaiveCutoffConfig, deploy_naive
from repro.baselines.traceback import TracebackConfig, deploy_traceback
from repro.churn.process import ChurnConfig, ChurnProcess
from repro.core.config import DDPoliceConfig
from repro.core.police import deploy_ddpolice
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.metrics.accounting import QueryAccounting
from repro.metrics.errors import ErrorCounts, JudgmentLog
from repro.obs.trace import JsonlSink, Tracer
from repro.overlay.content import ContentCatalog, ContentConfig
from repro.overlay.ids import PeerId
from repro.overlay.network import NetworkConfig, OverlayNetwork
from repro.overlay.topology import TopologyConfig, generate_topology
from repro.simkit.engine import Simulator
from repro.simkit.rng import RngRegistry
from repro.workload.generator import QueryWorkload, WorkloadConfig


@dataclass(frozen=True)
class DESConfig:
    """Configuration of one message-level run."""

    n: int = 100
    duration_s: float = 600.0
    seed: int = 0
    topology: Optional[TopologyConfig] = None
    network: NetworkConfig = NetworkConfig()
    content: ContentConfig = ContentConfig(num_objects=100)
    workload: WorkloadConfig = WorkloadConfig()
    churn: ChurnConfig = ChurnConfig(enabled=False)
    #: Attack: 0 agents = clean run. Rates here are usually scaled down
    #: (DES is for small N, so keep ratios, not absolutes).
    num_agents: int = 0
    attack_start_s: float = 0.0
    attack_rate_qpm: float = 2000.0
    cheat_strategy: CheatStrategy = CheatStrategy.SILENT
    #: Adaptive-adversary strategy ("static" = the paper's flooder; see
    #: :mod:`repro.attack.adaptive` for throttle/collude/churn/pulse).
    adaptive: AdaptiveConfig = AdaptiveConfig()
    #: Defense: "none" | "ddpolice" | "naive" | "traceback".
    defense: str = "none"
    police: DDPoliceConfig = DDPoliceConfig()
    naive_cutoff_qpm: float = 500.0
    traceback: TracebackConfig = TracebackConfig()
    #: Fault schedule executed against the run (empty plan = no injector
    #: attached, transmit path untouched). Random crash / fail-slow
    #: victims are drawn from the *good* population so the ground-truth
    #: error accounting stays meaningful; explicit peer lists override.
    faults: FaultPlan = FaultPlan()
    #: JSONL file the run appends its trace records to. ``None`` (the
    #: default) builds no tracer: every instrumentation site reduces to
    #: one falsy branch and the run is bit-identical to a traced one.
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if not (0 <= self.num_agents <= self.n):
            raise ConfigError("num_agents out of range")
        if self.attack_start_s < 0:
            raise ConfigError("attack_start_s must be non-negative")
        if self.attack_rate_qpm <= 0:
            raise ConfigError("attack_rate_qpm must be positive")
        if self.defense not in ("none", "ddpolice", "naive", "traceback"):
            raise ConfigError(f"unknown defense {self.defense!r}")
        if self.adaptive.strategy == "collude" and self.num_agents > 0 and (
            self.cheat_strategy is not CheatStrategy.COLLUDE
        ):
            raise ConfigError(
                "adaptive strategy 'collude' requires cheat_strategy 'collude'"
            )
        if self.naive_cutoff_qpm <= 0:
            raise ConfigError("naive_cutoff_qpm must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class DESRun:
    """A finished run with everything inspectable."""

    config: DESConfig
    sim: Simulator
    network: OverlayNetwork
    churn: Optional[ChurnProcess]
    scenario: Optional[AttackScenario]
    judgments: Optional[JudgmentLog]
    bad_peers: Set[PeerId] = field(default_factory=set)
    injector: Optional[FaultInjector] = None
    #: Wall-clock duration of the event loop (seconds).
    wall_s: float = 0.0
    #: Bytes of DD-POLICE evidence state summed over all engines
    #: (traffic stores + report-dedup windows); 0 without the defense.
    evidence_bytes: int = 0

    @property
    def accounting(self) -> QueryAccounting:
        """The network's accounting; ``rows`` is the per-minute view."""
        return self.network.accounting

    @property
    def success_rate(self) -> float:
        """Whole-run S of good-origin (user) queries -- the paper's metric."""
        return self.network.success_rate()

    @property
    def success_rate_all_traffic(self) -> float:
        """Diagnostic: pre-fix S with attack queries in the denominator."""
        return self.network.success_rate("all")

    @property
    def mean_response_time(self) -> Optional[float]:
        return self.network.mean_response_time()

    @property
    def total_messages(self) -> int:
        return self.network.stats.messages_delivered

    def error_counts(self) -> ErrorCounts:
        if self.judgments is None:
            raise ConfigError("run had no defense; no judgments recorded")
        return self.judgments.error_counts(set(self.bad_peers))


def run_des_experiment(config: DESConfig) -> DESRun:
    """Build and run one message-level experiment end to end."""
    rngs = RngRegistry(config.seed)
    tracer: Optional[Tracer] = None
    if config.trace_path is not None:
        tracer = Tracer(sinks=[JsonlSink(config.trace_path)], run=f"des-seed{config.seed}")
    sim = Simulator(tracer=tracer)
    topo_cfg = config.topology or TopologyConfig(n=config.n, seed=config.seed)
    if topo_cfg.n != config.n:
        raise ConfigError("topology n must match config n")
    topo = generate_topology(topo_cfg)
    content = ContentCatalog(config.content, config.n)
    network = OverlayNetwork(
        sim, topo, config=config.network, content=content, rng_registry=rngs, tracer=tracer
    )

    # Churn-assisted evasion drives a ChurnProcess even when natural
    # churn is disabled: the evading agents need the leave/rejoin
    # machinery (host cache, content relocation, listeners) to flee
    # through. The stream name stays "churn" either way, so enabling
    # evasion never perturbs a natural-churn run's draws.
    evading = config.num_agents > 0 and config.adaptive.strategy == "churn"
    churn: Optional[ChurnProcess] = None
    if config.churn.enabled or evading:
        churn = ChurnProcess(
            sim, network, config.churn, rng=rngs.stream("churn")
        )

    scenario: Optional[AttackScenario] = None
    bad_peers: Set[PeerId] = set()
    if config.num_agents > 0:
        scenario = AttackScenario(
            sim,
            network,
            ScenarioConfig(
                num_agents=config.num_agents,
                start_time_s=config.attack_start_s,
                nominal_rate_qpm=config.attack_rate_qpm,
                cheat_strategy=config.cheat_strategy,
                seed=config.seed,
            ),
            rng=rngs.stream("attack"),
            adaptive=config.adaptive,
            churn=churn,
        )
        bad_peers = set(scenario.compromised)
        if evading and churn is not None:
            # The agents time their own leave/rejoin cycle; pin them so
            # the sampled churn cycle cannot double-drive them.
            churn.pinned.update(bad_peers)

    injector: Optional[FaultInjector] = None
    if config.faults.enabled:
        injector = FaultInjector(config.faults, rngs)
        injector.attach(network, churn=churn, protected=tuple(sorted(bad_peers)))

    judgments: Optional[JudgmentLog] = None
    engines: Dict[PeerId, Any] = {}
    if config.defense == "ddpolice":
        collusion = None
        if config.cheat_strategy is CheatStrategy.COLLUDE and bad_peers:
            from repro.attack.adaptive import CollusionRing

            collusion = CollusionRing(
                members=frozenset(bad_peers),
                excuse_qpm=config.adaptive.collude_excuse_qpm,
            )
        engines = deploy_ddpolice(
            network,
            config.police,
            bad_peers=bad_peers,
            bad_strategy=config.cheat_strategy,
            collusion=collusion,
            rng=rngs.stream("police"),
        )
        judgments = next(iter(engines.values())).judgments if engines else None
    elif config.defense == "naive":
        defenses = deploy_naive(network, NaiveCutoffConfig(config.naive_cutoff_qpm))
        judgments = next(iter(defenses.values())).judgments if defenses else None
    elif config.defense == "traceback":
        tracebacks = deploy_traceback(
            network, config.traceback, rng=rngs.stream("traceback")
        )
        judgments = next(iter(tracebacks.values())).judgments if tracebacks else None

    workload = QueryWorkload(
        sim, network, config.workload, rng=rngs.stream("workload"), exclude=set()
    )
    workload.start()
    if churn is not None:
        churn.start()
    if scenario is not None:
        scenario.launch()

    import time as _time

    started = _time.perf_counter()
    try:
        sim.run(until=config.duration_s)
    finally:
        if tracer is not None:
            tracer.close()
    wall_s = _time.perf_counter() - started
    return DESRun(
        config=config,
        sim=sim,
        network=network,
        churn=churn,
        scenario=scenario,
        judgments=judgments,
        bad_peers=bad_peers,
        injector=injector,
        wall_s=wall_s,
        evidence_bytes=sum(
            e.store.evidence_bytes() + e._report_dedup.evidence_bytes()
            for e in engines.values()
        ),
    )
