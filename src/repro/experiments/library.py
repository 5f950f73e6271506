"""The experiment library: scenario drivers, their tables, the spec table.

Every figure of the paper's evaluation (and the robustness studies that
grew around it) is an :class:`~repro.experiments.spec.ExperimentSpec` in
:data:`SPECS`, resolved by name -- ``repro run fig12`` -- over one of
the scenarios in the table at the end of the drivers:

========================  ====================================================
scenario                  produces
========================  ====================================================
``testbed-rate``          Figures 5 & 6 (A->B->C capacity sweep, closed form)
``agent-sweep``           Figures 9-11 (service quality vs #agents)
``damage-timelines``      Figure 12 (damage over time per cut threshold)
``cut-threshold-sweep``   Figures 13/14 + stabilized damage vs CT
``exchange-frequency``    Section 3.7.1 (neighbor-list exchange policies)
``fault-sweep``           loss x crash robustness grid (DES, message level)
``robustness-matrix``     defense x adaptive adversary x topology grid (DES)
========================  ====================================================

A scenario is declared in two parts. Its *driver* states the grid as an
ordered ``{key: Case}`` plan, runs it through :func:`_run_plan` (one
pmap over the whole plan, in plan order; ``workers=1`` byte-identical)
and aggregates the keyed results into scenario-native rows: damage is
always :func:`_damage_vs_baseline` against the clean twin run, and
trials are always averaged by :func:`~repro.experiments.spec.mean` (one
trial is the n = 1 case, not a separate branch). Its *tables* map each
artifact name, declared once, to the renderer that turns those rows into
the exact text published under ``results/`` -- the benchmarks and the
CLI both call :func:`run_spec`, so there is one implementation to keep
byte-identical.

Scenario results are cached per ``(scenario_sha256, trace_path)``: fig9/10/11
share one agent sweep, and fig13/fig14/fig12-stabilized share one cut-
threshold sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.attack.adaptive import ADAPTIVE_STRATEGIES, AdaptiveConfig
from repro.core.config import DDPoliceConfig
from repro.errors import ConfigError
from repro.exec import resolve_workers
from repro.experiments.reporting import render_table
from repro.experiments.scenarios import SCALES, TIER_OVERRIDES, Scale
from repro.experiments.spec import (
    Case,
    CaseResult,
    ExperimentSpec,
    GridSpec,
    WorkloadSpec,
    apply_overrides,
    get_backend,
    get_spec,
    lookup,
    mean,
    parse_assignments,
    run_cases,
    scenario_sha256,
    spec_sha256,
    trial_seed,
)
from repro.faults.plan import CrashRule, FaultPlan
from repro.live.spec import LIVE_TIERS
from repro.metrics.damage import damage_rate, damage_recovery_time
from repro.metrics.series import TimeSeries
from repro.obs.manifest import build_manifest
from repro.testbed.pipeline import run_rate_sweep


# ---------------------------------------------------------------------------
# scenario row types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentSweepRow:
    """One x-axis point of Figures 9-11 (all three curves)."""

    agents: int
    paper_equivalent_agents: int
    traffic_no_ddos_k: float
    traffic_attack_k: float
    traffic_defended_k: float
    response_no_ddos_s: float
    response_attack_s: float
    response_defended_s: float
    success_no_ddos: float
    success_attack: float
    success_defended: float


@dataclass(frozen=True)
class DamageTimeline:
    """One defense variant's damage-rate trajectory."""

    label: str
    cut_threshold: Optional[float]
    minutes: List[int]
    damage_pct: List[float]

    def series(self) -> TimeSeries:
        return TimeSeries(zip((float(m) for m in self.minutes), self.damage_pct))


@dataclass(frozen=True)
class CutThresholdRow:
    """One CT point of Figures 13/14."""

    cut_threshold: float
    false_negative: int  # good peers wrongly disconnected (paper's term)
    false_positive: int  # bad peers not identified (paper's term)
    false_judgment: int
    damage_recovery_min: Optional[float]
    stabilized_damage_pct: float


@dataclass(frozen=True)
class ExchangeFrequencyRow:
    """One policy point of the Section 3.7.1 study."""

    policy: str
    period_min: Optional[int]
    false_judgment: int
    control_overhead_kqpm: float
    stabilized_damage_pct: float


#: Evidence-collection profiles compared by the fault sweep.
FAULT_PROFILES: Tuple[str, ...] = ("paper", "hardened")


@dataclass(frozen=True)
class FaultPoint:
    """Aggregated outcome of one (loss, crashes, profile) grid point."""

    loss: float
    crashes: int
    profile: str
    false_negative: float
    false_positive: float
    false_judgment: float
    #: Mean damage-recovery time over the trials where it was defined.
    recovery_time_s: Optional[float]
    #: Trials where the damage both crossed 20% and recovered to 15%.
    recovered_trials: int
    trials: int


@dataclass(frozen=True)
class MatrixRow:
    """Aggregated outcome of one (defense, adversary, topology) cell."""

    defense: str
    adversary: str
    topology: str
    #: Mean censored detection latency (s from attack start; uncaught
    #: attackers contribute the full remaining run).
    detection_latency_s: float
    #: Mean attackers caught per trial (out of ``total_attackers``).
    caught_attackers: float
    total_attackers: int
    #: Mean good peers wrongly disconnected (false suspects).
    false_negative: float
    #: Mean damage rate (%) over the post-attack window.
    damage_pct: float
    trials: int


# ---------------------------------------------------------------------------
# scenario machinery
# ---------------------------------------------------------------------------

@dataclass
class ScenarioOutput:
    """What a scenario driver hands back to :func:`run_spec`."""

    #: Scenario-native rows (AgentSweepRow / DamageTimeline / ... lists).
    data: Any
    #: Number of simulation cases executed.
    cases: int
    #: Seed-derivation labels for the run manifest (empty = raw seed).
    seed_derivation: Tuple[str, ...] = ()


#: Driver signature: (spec, *, workers, trace_path) -> ScenarioOutput.
Driver = Callable[..., ScenarioOutput]

#: Table renderer: (spec, ScenarioOutput.data) -> the published text.
Renderer = Callable[[ExperimentSpec, Any], str]


@dataclass(frozen=True)
class Scenario:
    """A scenario driver and the tables its rows render to."""

    name: str
    driver: Driver
    #: Artifact name -> renderer, in publication order (iterates as the
    #: table names).
    tables: Mapping[str, Renderer]
    description: str = ""


def _run_plan(
    spec: ExperimentSpec,
    plan: Mapping[Any, Case],
    workers: Optional[int],
    trace_path: Optional[str],
) -> Dict[Any, CaseResult]:
    """Run an ordered ``{key: Case}`` plan; results come back under its keys.

    The flat task list handed to :func:`run_cases` is the plan's values
    in insertion order, so manifest ``tasks`` and trace order are the
    plan's. Every case carries the run's trace path and live sizing
    (only the ``live`` backend reads the latter).
    """
    cases = [replace(case, trace_path=trace_path, live=spec.live) for case in plan.values()]
    return dict(zip(plan, run_cases(cases, backend=spec.backend, workers=workers)))


def _derived_agents(spec: ExperimentSpec) -> int:
    """Timeline-scenario agent count: explicit or density at scale."""
    if spec.grid.agents:
        return spec.grid.agents
    return max(1, round(spec.grid.agent_fraction * spec.scale.n_peers))


def _damage_vs_baseline(
    res: CaseResult, clean: CaseResult, attack_start_min: int
) -> List[Tuple[float, float]]:
    """Per-minute (minute, damage %) of ``res`` against its clean twin run.

    Minutes the baseline run lacks are skipped; before the attack the
    two runs differ only by seed noise, so damage is pinned to zero.
    """
    base_success = dict(clean.rows)
    out: List[Tuple[float, float]] = []
    for minute, success in res.rows:
        s0 = base_success.get(minute)
        if s0 is None:
            continue
        if minute < attack_start_min:
            out.append((minute, 0.0))
        else:
            out.append((minute, damage_rate(s0, min(success, s0))))
    return out


def _trial_damages(
    results: Mapping[Any, CaseResult],
    key: Tuple[Any, ...],
    clean_key: Tuple[Any, ...],
    trials: Sequence[int],
    attack_start_min: int,
) -> List[List[Tuple[float, float]]]:
    """Damage series of plan entry ``(*key, t)`` vs ``(*clean_key, t)``, per trial."""
    return [
        _damage_vs_baseline(
            results[(*key, t)], results[(*clean_key, t)], attack_start_min
        )
        for t in trials
    ]


def _mean_damage_from(damage: Sequence[Tuple[float, float]], minute: float) -> float:
    """Mean damage % over the samples at or after ``minute`` (0.0 if none)."""
    tail = [d for m, d in damage if m >= minute]
    return mean(tail) if tail else 0.0


def _recovery_minutes(damages: Sequence[Sequence[Tuple[float, float]]]) -> List[float]:
    """Damage-recovery times of the trials where one is defined."""
    times = (damage_recovery_time(TimeSeries(d)) for d in damages)
    return [t for t in times if t is not None]


def _table(
    title: str, headers: Sequence[str], cells: Callable[[Any], Sequence[object]]
) -> Renderer:
    """Renderer of a one-line-per-row table: ``cells(row)`` is one line."""
    return lambda spec, rows: render_table(
        headers, [cells(r) for r in rows], title=title
    )


# ---------------------------------------------------------------------------
# scenario: testbed-rate (Figures 5 & 6)
# ---------------------------------------------------------------------------

def _scn_testbed_rate(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> ScenarioOutput:
    """A->B->C capacity sweep (closed form; scale/backend-independent)."""
    return ScenarioOutput(data=list(run_rate_sweep()), cases=0)


# ---------------------------------------------------------------------------
# scenario: agent-sweep (Figures 9-11)
# ---------------------------------------------------------------------------

def _scn_agent_sweep(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> ScenarioOutput:
    """For each agent density: no attack, attack, attack + DD-POLICE."""
    scale = spec.scale
    agent_counts = list(spec.grid.agent_counts) or scale.agent_counts()
    settle = scale.attack_start_min + 4  # measure after detection settles
    if scale.sim_minutes < settle:
        raise ConfigError(
            f"scale.sim_minutes={scale.sim_minutes} leaves no steady-state "
            f"window: the agent sweep averages from minute "
            f"scale.attack_start_min + 4 = {settle} on"
        )

    # ba_m is fluid-invisible; on the DES backend it pins the m=1
    # attachment the fault sweep uses, so message-level cross-backend
    # runs pay O(n) per flooded query instead of O(n * degree).
    clean = Case(
        n=scale.n_peers,
        minutes=scale.sim_minutes,
        seed=spec.seed,
        workload=spec.workload,
        settle_min=settle,
        ba_m=1,
    )
    # Keyed by axis position, not by k: the densities derived at a small
    # scale repeat (smoke's are 1, 1, 1, 2, 3) and every axis point is
    # its own pair of cases.
    plan: Dict[Any, Case] = {"clean": clean}
    for i, k in enumerate(agent_counts):
        attack = replace(
            clean, num_agents=k, attack_start_min=scale.attack_start_min
        )
        plan["attack", i] = attack
        plan["defended", i] = replace(attack, defense="ddpolice", police=spec.police)
    results = _run_plan(spec, plan, workers, trace_path)

    t0, r0, s0 = results["clean"].steady
    rows: List[AgentSweepRow] = []
    for i, k in enumerate(agent_counts):
        t1, r1, s1 = results["attack", i].steady
        t2, r2, s2 = results["defended", i].steady
        rows.append(
            AgentSweepRow(
                agents=k,
                paper_equivalent_agents=scale.paper_equivalent_agents(k),
                traffic_no_ddos_k=t0,
                traffic_attack_k=t1,
                traffic_defended_k=t2,
                response_no_ddos_s=r0,
                response_attack_s=r1,
                response_defended_s=r2,
                success_no_ddos=s0,
                success_attack=s1,
                success_defended=s2,
            )
        )
    return ScenarioOutput(data=rows, cases=len(plan))


def _agent_sweep_table(
    title: str, digits: int, curves: Callable[[AgentSweepRow], Sequence[float]]
) -> Renderer:
    """One of Figures 9-11: ``curves(row)`` is (attack, defended, no DDoS)."""
    return _table(
        title,
        ["agents (paper-equiv)", "under DDoS", "DDoS + DD-POLICE", "no DDoS"],
        lambda r: [r.paper_equivalent_agents, *(round(v, digits) for v in curves(r))],
    )


# ---------------------------------------------------------------------------
# scenarios: damage-timelines (Figure 12), cut-threshold-sweep (Figures
# 13 & 14 + stabilized damage)
# ---------------------------------------------------------------------------

def _timeline_cases(spec: ExperimentSpec, trial: int) -> Tuple[Case, Case]:
    """Trial ``trial`` of Figures 12-14: the clean run and its undefended twin."""
    scale = spec.scale
    clean = Case(
        n=scale.n_peers,
        minutes=spec.grid.minutes
        or max(scale.sim_minutes, scale.attack_start_min + 20),
        seed=trial_seed(spec.seed, trial),
        workload=spec.workload,
    )
    return clean, replace(
        clean,
        num_agents=_derived_agents(spec),
        attack_start_min=scale.attack_start_min,
    )


def _scn_damage_timelines(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> ScenarioOutput:
    """No-defense + DD-POLICE-CT damage trajectories, trial-averaged."""
    scale = spec.scale
    trials = range(spec.trials)

    # Plan key (None, t) is trial t's undefended run, (ct, t) its
    # DD-POLICE run at cut threshold ct.
    plan: Dict[Any, Case] = {}
    for t in trials:
        plan["clean", t], attack = _timeline_cases(spec, t)
        plan[None, t] = attack
        for ct in spec.grid.cut_thresholds:
            plan[ct, t] = replace(
                attack, defense="ddpolice", police=spec.police.with_cut_threshold(ct)
            )
    results = _run_plan(spec, plan, workers, trace_path)

    timelines: List[DamageTimeline] = []
    for ct in (None, *spec.grid.cut_thresholds):
        runs = _trial_damages(
            results, (ct,), ("clean",), trials, scale.attack_start_min
        )
        length = min(len(run) for run in runs)
        timelines.append(
            DamageTimeline(
                label="no DD-POLICE" if ct is None else f"DD-POLICE-{ct:g}",
                cut_threshold=ct,
                minutes=[minute for minute, _ in runs[0][:length]],
                damage_pct=[mean([run[i][1] for run in runs]) for i in range(length)],
            )
        )
    return ScenarioOutput(
        data=timelines, cases=len(plan), seed_derivation=("trial", "<t>")
    )


def _render_damage_timelines(
    spec: ExperimentSpec, timelines: Sequence[DamageTimeline]
) -> str:
    """Figure 12: one line per minute, one column per defense variant."""
    return render_table(
        ["minute"] + [t.label for t in timelines],
        [
            [minute] + [round(t.damage_pct[i], 1) for t in timelines]
            for i, minute in enumerate(timelines[0].minutes)
        ],
        title="Figure 12: damage rate (%) over time, 0.5% agents",
    )


def _scn_cut_threshold_sweep(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> ScenarioOutput:
    """Errors / recovery / stabilized damage per cut threshold."""
    scale = spec.scale
    trials = range(spec.trials)

    # Unlike Figure 12, the undefended twin is only the template here.
    plan: Dict[Any, Case] = {}
    for t in trials:
        plan["clean", t], attack = _timeline_cases(spec, t)
        for ct in spec.grid.cut_thresholds:
            plan[ct, t] = replace(
                attack, defense="ddpolice", police=spec.police.with_cut_threshold(ct)
            )
    results = _run_plan(spec, plan, workers, trace_path)
    minutes = plan["clean", 0].minutes

    rows: List[CutThresholdRow] = []
    for ct in spec.grid.cut_thresholds:
        damages = _trial_damages(
            results, (ct,), ("clean",), trials, scale.attack_start_min
        )
        recoveries = _recovery_minutes(damages)
        # Error counts are summed, not averaged, over the trials.
        fn = sum(results[ct, t].false_negative for t in trials)
        fp = sum(results[ct, t].false_positive for t in trials)
        rows.append(
            CutThresholdRow(
                cut_threshold=ct,
                false_negative=fn,
                false_positive=fp,
                false_judgment=fn + fp,
                damage_recovery_min=mean(recoveries) if recoveries else None,
                stabilized_damage_pct=mean(
                    [_mean_damage_from(d, minutes - 5) for d in damages]
                ),
            )
        )
    return ScenarioOutput(
        data=rows, cases=len(plan), seed_derivation=("trial", "<t>")
    )


# ---------------------------------------------------------------------------
# scenario: exchange-frequency (Section 3.7.1)
# ---------------------------------------------------------------------------

def _scn_exchange_frequency(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> ScenarioOutput:
    """Periodic exchange at several periods + the event-driven policy.

    Event-driven is approximated at fluid granularity by a 1-minute
    period with per-change message accounting (every join/leave triggers
    a republication).
    """
    scale = spec.scale
    minutes = spec.grid.minutes or scale.sim_minutes
    mean_deg = 6.0

    clean = Case(
        n=scale.n_peers, minutes=minutes, seed=spec.seed, workload=spec.workload
    )
    # policy label -> exchange period (None = event-driven, run at 1 min)
    policies: Dict[str, Optional[int]] = {
        f"periodic-{p}min": p for p in spec.grid.periods_min
    }
    policies["event-driven"] = None
    plan: Dict[Any, Case] = {"clean": clean}
    for label, period in policies.items():
        plan[label] = replace(
            clean,
            num_agents=_derived_agents(spec),
            attack_start_min=scale.attack_start_min,
            defense="ddpolice",
            police=spec.police,
            exchange_period_min=period or 1,
        )
    results = _run_plan(spec, plan, workers, trace_path)

    rows: List[ExchangeFrequencyRow] = []
    for label, period in policies.items():
        res = results[label]
        if period is None:
            # "a peer informs all its neighbors whenever its neighboring
            # peer is leaving or a new peer is joining": every churn event
            # touches ~deg neighbors, each republishing to ~deg peers.
            overhead = res.churn_events / max(1, minutes) * mean_deg * mean_deg
        else:
            # each online peer republishes to all neighbors every period
            overhead = res.online_mean * mean_deg / period
        damage = _damage_vs_baseline(res, results["clean"], scale.attack_start_min)
        rows.append(
            ExchangeFrequencyRow(
                policy=label,
                period_min=period,
                false_judgment=res.false_negative + res.false_positive,
                control_overhead_kqpm=overhead / 1000.0,
                stabilized_damage_pct=_mean_damage_from(damage, minutes - 5),
            )
        )
    return ScenarioOutput(data=rows, cases=len(plan))


# ---------------------------------------------------------------------------
# scenario: fault-sweep (loss x crashes, DES)
# ---------------------------------------------------------------------------

def _fault_plan(scale: Scale, loss: float, crashes: int) -> FaultPlan:
    plan = FaultPlan()
    if loss > 0.0:
        plan = plan.merged(FaultPlan.control_loss(loss))
    if crashes > 0:
        # Crash good peers one minute into the attack: silent buddies at
        # exactly the moment their reports are needed.
        plan = plan.merged(
            FaultPlan(
                crashes=(
                    CrashRule(
                        at_s=(scale.attack_start_min + 1) * 60.0, count=crashes
                    ),
                )
            )
        )
    return plan


def _scn_fault_sweep(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> ScenarioOutput:
    """Control-plane loss x fail-stop crashes, per evidence profile.

    ``paper`` is the literal Section 3.3 collection rule (missing report
    => assume 0); ``hardened`` adds bounded retries, the report quorum
    with one window extension, and exchange retransmission
    (:meth:`DDPoliceConfig.with_hardening`). Both see the exact same
    fault schedule per (grid point, trial). Message-level runs, so the
    registered population is far below the fluid scales: every
    Neighbor_Traffic message is real, which is precisely what the fault
    layer perturbs. Agents flood but *report honestly*, so any false
    negative at loss 0 is a protocol artifact and every additional one
    under loss is attributable to injected faults, not Section 3.4
    cheating.
    """
    scale, grid = spec.scale, spec.grid
    profiles = grid.profiles or FAULT_PROFILES
    police_by_profile = {
        "paper": spec.police,
        "hardened": spec.police.with_hardening(),
    }
    for profile in profiles:
        if profile not in police_by_profile:
            raise ConfigError(f"unknown fault profile {profile!r}")
    cells = [
        (loss, crashes) for loss in grid.loss_fractions for crashes in grid.crash_counts
    ]
    trials = range(spec.trials)

    # One clean-run baseline per (loss, crashes, trial), shared by the
    # profiles: with no attackers there are no investigations, so the
    # evidence profile cannot matter there. Tree overlay (ba_m=1):
    # flooding is duplicate-free, so the Definition 2.1 send/receive
    # balance is exact and indicator noise comes only from the injected
    # faults.
    plan: Dict[Any, Case] = {
        ("clean", loss, crashes, t): Case(
            n=scale.n_peers,
            minutes=scale.sim_minutes,
            seed=trial_seed(spec.seed, t),
            attack_start_min=scale.attack_start_min,
            defense="ddpolice",
            police=spec.police,
            workload=spec.workload,
            faults=_fault_plan(scale, loss, crashes),
            ba_m=1,
        )
        for loss, crashes in cells
        for t in trials
    }
    for loss, crashes in cells:
        for profile in profiles:
            for t in trials:
                plan[profile, loss, crashes, t] = replace(
                    plan["clean", loss, crashes, t],
                    num_agents=grid.agents,
                    police=police_by_profile[profile],
                )
    results = _run_plan(spec, plan, workers, trace_path)

    points: List[FaultPoint] = []
    for loss, crashes in cells:
        for profile in profiles:
            runs = [results[profile, loss, crashes, t] for t in trials]
            damages = _trial_damages(
                results,
                (profile, loss, crashes),
                ("clean", loss, crashes),
                trials,
                scale.attack_start_min,
            )
            # The table reports seconds.
            recoveries = [rec * 60.0 for rec in _recovery_minutes(damages)]
            fn = mean([float(res.false_negative) for res in runs])
            fp = mean([float(res.false_positive) for res in runs])
            points.append(
                FaultPoint(
                    loss=loss,
                    crashes=crashes,
                    profile=profile,
                    false_negative=fn,
                    false_positive=fp,
                    false_judgment=fn + fp,
                    recovery_time_s=mean(recoveries) if recoveries else None,
                    recovered_trials=len(recoveries),
                    trials=spec.trials,
                )
            )
    return ScenarioOutput(
        data=points, cases=len(plan), seed_derivation=("trial", "<t>")
    )


def format_fault_sweep(spec: ExperimentSpec, points: Sequence[FaultPoint]) -> str:
    """Fixed-width table of a fault sweep, ready for ``results/``."""
    scale = spec.scale
    lines = [
        "Fault-robustness sweep: control-plane loss x fail-stop crashes",
        f"scale={scale.name}  n={scale.n_peers}  agents={spec.grid.agents} "
        f"(honest reporters)  attack={spec.workload.attack_rate_qpm:g} qpm "
        f"from minute {scale.attack_start_min}  "
        f"duration={scale.sim_minutes} min  trials={spec.trials}",
        "profiles: paper = assume-0 on missing reports (Section 3.3); "
        "hardened = retries + quorum 0.5 + window extension + "
        "list retransmit",
        "FN = good peers wrongly cut, FP = bad peers never caught "
        "(paper's Figure 13 terms), means over trials",
        "",
        f"{'loss':>5} {'crashes':>7} {'profile':>9} {'FN':>6} {'FP':>6} "
        f"{'FJ':>6} {'recovery_s':>11} {'recovered':>9}",
    ]
    for p in points:
        rec = f"{p.recovery_time_s:.0f}" if p.recovery_time_s is not None else "n/c"
        recovered = f"{p.recovered_trials}/{p.trials}"
        lines.append(
            f"{p.loss:>5.2f} {p.crashes:>7d} {p.profile:>9} "
            f"{p.false_negative:>6.2f} {p.false_positive:>6.2f} "
            f"{p.false_judgment:>6.2f} {rec:>11} {recovered:>9}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# scenario: robustness-matrix (defense x adversary x topology, DES)
# ---------------------------------------------------------------------------

def _scn_robustness_matrix(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> ScenarioOutput:
    """DD-POLICE variants and the PPM baseline vs adversaries that adapt.

    Every cell runs the same flooding attack through a different
    (defense, adversary behaviour, overlay topology) combination and
    reports censored detection latency, attackers caught, false
    suspects, and post-attack damage. ``paper`` is the literal Section
    3.3 evidence rule, ``hardened`` is
    :meth:`DDPoliceConfig.with_hardening`, ``traceback`` is the PPM
    last-hop marking baseline. The ``collude`` adversary forces the
    matching Neighbor_Traffic cheat so colluders actually corroborate
    each other's excuse reports. A full grid is dozens of message-level
    runs, so the registered population is deliberately small.
    """
    scale, grid = spec.scale, spec.grid
    cells = [
        (defense, adversary, topo)
        for defense in grid.defenses
        for adversary in grid.adversaries
        for topo in grid.topologies
    ]
    trials = range(spec.trials)
    police_by_defense = {
        "paper": spec.police,
        "hardened": spec.police.with_hardening(),
    }
    collude_workload = replace(spec.workload, cheat_strategy="collude")

    # ba_m=1 keeps the preferential-attachment topologies duplicate-free
    # (the fault-sweep convention): the flood visits every edge once, so
    # a message-level run stays tractable and the indicator signal is
    # structural, not duplicate noise. The bittorrent generator ignores
    # ba_m -- its dense swarm graph, duplicates and all, is the point of
    # that column.
    #
    # One clean baseline per (topology, trial) -- shared by every
    # defense/adversary cell on that topology, since with no attackers
    # neither the defense nor the adversary behaviour can matter.
    plan: Dict[Any, Case] = {
        ("clean", topo, t): Case(
            n=scale.n_peers,
            minutes=scale.sim_minutes,
            seed=trial_seed(spec.seed, t),
            workload=spec.workload,
            topology=topo,
            ba_m=1,
        )
        for topo in grid.topologies
        for t in trials
    }
    for defense, adversary, topo in cells:
        for t in trials:
            plan[defense, adversary, topo, t] = replace(
                plan["clean", topo, t],
                num_agents=grid.agents,
                attack_start_min=scale.attack_start_min,
                defense="traceback" if defense == "traceback" else "ddpolice",
                police=police_by_defense.get(defense, spec.police),
                workload=collude_workload if adversary == "collude" else spec.workload,
                adaptive=replace(spec.adversary, strategy=adversary),
                traceback=spec.traceback,
            )
    results = _run_plan(spec, plan, workers, trace_path)

    rows: List[MatrixRow] = []
    for defense, adversary, topo in cells:
        runs = [results[defense, adversary, topo, t] for t in trials]
        damages = _trial_damages(
            results,
            (defense, adversary, topo),
            ("clean", topo),
            trials,
            scale.attack_start_min,
        )
        rows.append(
            MatrixRow(
                defense=defense,
                adversary=adversary,
                topology=topo,
                detection_latency_s=mean(
                    [res.detection_latency_s or 0.0 for res in runs]
                ),
                caught_attackers=mean([float(res.caught_attackers) for res in runs]),
                total_attackers=grid.agents,
                false_negative=mean([float(res.false_negative) for res in runs]),
                damage_pct=mean(
                    [_mean_damage_from(d, scale.attack_start_min) for d in damages]
                ),
                trials=spec.trials,
            )
        )
    return ScenarioOutput(
        data=rows, cases=len(plan), seed_derivation=("trial", "<t>")
    )


def format_robustness_matrix(spec: ExperimentSpec, rows: Sequence[MatrixRow]) -> str:
    """Fixed-width robustness-matrix table, ready for ``results/``."""
    scale = spec.scale
    lines = [
        "Robustness matrix: defense x adaptive adversary x overlay topology (DES)",
        f"scale={scale.name}  n={scale.n_peers}  agents={spec.grid.agents}  "
        f"attack={spec.workload.attack_rate_qpm:g} qpm "
        f"from minute {scale.attack_start_min}  "
        f"duration={scale.sim_minutes} min  trials={spec.trials}",
        "defenses: paper = literal Section 3.3 evidence; hardened = retries + "
        "quorum + window extension; traceback = PPM last-hop marking",
        "latency_s = mean seconds from attack start to first disconnection, "
        "censored at run end for attackers never caught",
        "FN = good peers wrongly cut (false suspects); damage% = mean damage "
        "rate after attack start; means over trials",
        "",
        f"{'defense':>9} {'adversary':>9} {'topology':>11} {'latency_s':>9} "
        f"{'caught':>7} {'FN':>6} {'damage%':>8}",
    ]
    for r in rows:
        caught = f"{r.caught_attackers:.1f}/{r.total_attackers}"
        lines.append(
            f"{r.defense:>9} {r.adversary:>9} {r.topology:>11} "
            f"{r.detection_latency_s:>9.0f} {caught:>7} "
            f"{r.false_negative:>6.1f} {r.damage_pct:>8.1f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the scenario table: driver + {table name: renderer}, declared once
# ---------------------------------------------------------------------------

_SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="testbed-rate",
            description="A->B->C capacity sweep (Figures 5 & 6, closed form)",
            driver=_scn_testbed_rate,
            tables={
                "fig05_processed": _table(
                    "Figure 5: queries sent vs processed at peer B",
                    ["sent (q/min)", "processed (q/min)"],
                    lambda p: [int(p.sent_qpm), int(p.processed_qpm)],
                ),
                "fig06_droprate": _table(
                    "Figure 6: query drop rate vs query density at peer B",
                    ["received (q/min)", "drop rate (%)"],
                    lambda p: [int(p.sent_qpm), round(p.drop_rate_pct, 1)],
                ),
            },
        ),
        Scenario(
            name="agent-sweep",
            description="service quality vs #agents (Figures 9-11)",
            driver=_scn_agent_sweep,
            tables={
                "fig09_traffic": _agent_sweep_table(
                    "Figure 9: average traffic cost (10^3 messages/min)",
                    1,
                    lambda r: (
                        r.traffic_attack_k, r.traffic_defended_k, r.traffic_no_ddos_k
                    ),
                ),
                "fig10_response": _agent_sweep_table(
                    "Figure 10: average response time (s)",
                    3,
                    lambda r: (
                        r.response_attack_s, r.response_defended_s, r.response_no_ddos_s
                    ),
                ),
                "fig11_success": _agent_sweep_table(
                    "Figure 11: average success rate (%)",
                    1,
                    lambda r: (
                        100.0 * r.success_attack,
                        100.0 * r.success_defended,
                        100.0 * r.success_no_ddos,
                    ),
                ),
            },
        ),
        Scenario(
            name="damage-timelines",
            description="damage over time per cut threshold (Figure 12)",
            driver=_scn_damage_timelines,
            tables={"fig12_damage": _render_damage_timelines},
        ),
        Scenario(
            name="cut-threshold-sweep",
            description="errors / recovery / stabilized damage vs CT (Figures 13-14)",
            driver=_scn_cut_threshold_sweep,
            tables={
                "fig13_errors": _table(
                    "Figure 13: errors vs cut threshold (paper terminology: "
                    "FN = good peers wrongly cut, FP = bad peers missed)",
                    ["cut threshold", "false judgment", "false positive",
                     "false negative"],
                    lambda r: [
                        r.cut_threshold, r.false_judgment, r.false_positive,
                        r.false_negative,
                    ],
                ),
                "fig14_recovery": _table(
                    "Figure 14: damage recovery time vs cut threshold",
                    ["cut threshold", "damage recovery time (min)"],
                    lambda r: [
                        r.cut_threshold,
                        "n/a"
                        if r.damage_recovery_min is None
                        else round(r.damage_recovery_min, 1),
                    ],
                ),
                "fig12_stabilized_damage": _table(
                    "Figure 12 companion: stabilized damage by cut threshold",
                    ["cut threshold", "stabilized damage (%)"],
                    lambda r: [r.cut_threshold, round(r.stabilized_damage_pct, 1)],
                ),
            },
        ),
        Scenario(
            name="exchange-frequency",
            description="neighbor-list exchange policy comparison (Section 3.7.1)",
            driver=_scn_exchange_frequency,
            tables={
                "exchange_frequency": _table(
                    "Section 3.7.1: neighbor-list exchange policy comparison",
                    ["policy", "false judgment", "control overhead (k msgs/min)",
                     "stabilized damage (%)"],
                    lambda r: [
                        r.policy, r.false_judgment, round(r.control_overhead_kqpm, 2),
                        round(r.stabilized_damage_pct, 1),
                    ],
                ),
            },
        ),
        Scenario(
            name="fault-sweep",
            description="control-plane loss x crash robustness grid (DES)",
            driver=_scn_fault_sweep,
            tables={"fault_sweep": format_fault_sweep},
        ),
        Scenario(
            name="robustness-matrix",
            description="defense x adaptive adversary x topology grid (DES)",
            driver=_scn_robustness_matrix,
            tables={"robustness_matrix": format_robustness_matrix},
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name; unknown names list the valid ones."""
    return lookup(_SCENARIOS, "scenario", name)


def list_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_SCENARIOS[k] for k in sorted(_SCENARIOS)]


# ---------------------------------------------------------------------------
# running specs
# ---------------------------------------------------------------------------

def spec_at_scale(spec: ExperimentSpec, tier: str) -> ExperimentSpec:
    """Re-target a registered spec at a named tier (``bench``/``paper``/``smoke``).

    One lookup: a :data:`TIER_OVERRIDES` row goes through
    :func:`apply_overrides` exactly as if the user had typed each of its
    assignments after ``--set``; every other (scenario, tier) takes
    ``SCALES[tier]``. The live swarm sizing follows the tier either way.
    """
    name = tier.lower()
    scale = lookup(SCALES, "scale", name)
    row = TIER_OVERRIDES.get((spec.scenario, name))
    if row is None:
        spec = replace(spec, scale=scale)
    else:
        spec = apply_overrides(spec, {"scale.name": name, **parse_assignments(row)})
    return replace(spec, live=LIVE_TIERS[name])


@dataclass
class SpecRun:
    """One executed spec: data, rendered tables, and provenance."""

    spec: ExperimentSpec
    #: Scenario-native rows (type depends on the scenario).
    data: Any
    #: Selected tables (``spec.tables``, or all of them when empty).
    tables: Dict[str, str]
    #: Run manifest embedding the spec and its SHA-256; write it next to
    #: an artifact with :func:`repro.obs.manifest.write_manifest`.
    manifest: Dict[str, Any]
    duration_s: float
    cases: int
    sha256: str


#: Scenario results shared between specs with equal scenario hashes
#: (fig9/10/11; fig13/fig14/fig12-stabilized). The trace path is part of
#: the key: a traced run must not satisfy an untraced request, or vice versa.
_RESULT_CACHE: Dict[Tuple[str, Optional[str]], ScenarioOutput] = {}


def run_spec(
    spec: Union[str, ExperimentSpec],
    *,
    scale: Optional[str] = None,
    backend: Optional[str] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    workers: Optional[int] = None,
    trace_path: Optional[str] = None,
    cache: bool = True,
) -> SpecRun:
    """Resolve, validate, execute, and render one experiment spec.

    ``spec`` is a registered name or an explicit spec; ``scale``,
    ``backend``, and dotted-path ``overrides`` rewrite it before
    anything runs, failing fast with :class:`ConfigError` on unknown
    names, unknown paths, or invariant violations. Results are
    bit-identical for any ``workers`` value.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    if scale is not None:
        spec = spec_at_scale(spec, scale)
    if backend is not None:
        spec = replace(spec, backend=backend)
    if overrides:
        spec = apply_overrides(spec, overrides)
    get_backend(spec.backend)  # unknown backend fails before any work
    scenario = get_scenario(spec.scenario)
    unknown = [t for t in spec.tables if t not in scenario.tables]
    if unknown:
        raise ConfigError(
            f"unknown table(s) {', '.join(map(repr, unknown))} for scenario "
            f"{scenario.name!r} (valid: {', '.join(scenario.tables)})"
        )

    key = (scenario_sha256(spec), trace_path)
    started = time.perf_counter()
    output = _RESULT_CACHE.get(key) if cache else None
    if output is None:
        output = scenario.driver(spec, workers=workers, trace_path=trace_path)
        if cache:
            _RESULT_CACHE[key] = output
    duration_s = time.perf_counter() - started

    sha = spec_sha256(spec)
    manifest = build_manifest(
        kind="spec-run",
        config=spec,
        seed=spec.seed,
        seed_derivation=list(output.seed_derivation),
        workers=resolve_workers(workers),
        tasks=output.cases,
        duration_s=duration_s,
        extra={
            "spec_name": spec.name,
            "scenario": spec.scenario,
            "backend": spec.backend,
            "spec_sha256": sha,
        },
    )
    return SpecRun(
        spec=spec,
        data=output.data,
        tables={
            t: scenario.tables[t](spec, output.data)
            for t in spec.tables or scenario.tables
        },
        manifest=manifest,
        duration_s=duration_s,
        cases=output.cases,
        sha256=sha,
    )


# ---------------------------------------------------------------------------
# the spec table (seeds/trials match the published tables)
# ---------------------------------------------------------------------------

#: Figures 13/14 and the stabilized-damage companion sweep the same CTs.
_CT_GRID = GridSpec(cut_thresholds=(2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0))

SPECS: Dict[str, ExperimentSpec] = {
    s.name: s
    for s in (
        # One spec per published table: those sharing a scenario differ
        # only in name, title and the table they select.
        *(
            ExperimentSpec(
                name=name, scenario="testbed-rate", title=title, tables=(table,)
            )
            for name, table, title in (
                ("fig5", "fig05_processed",
                 "Figure 5: queries sent vs processed at peer B"),
                ("fig6", "fig06_droprate",
                 "Figure 6: query drop rate vs query density at peer B"),
            )
        ),
        *(
            ExperimentSpec(
                name=name, scenario="agent-sweep", title=title, seed=7, tables=(table,)
            )
            for name, table, title in (
                ("fig9", "fig09_traffic",
                 "Figure 9: average traffic cost vs number of agents"),
                ("fig10", "fig10_response",
                 "Figure 10: average response time vs number of agents"),
                ("fig11", "fig11_success",
                 "Figure 11: average success rate vs number of agents"),
            )
        ),
        ExperimentSpec(
            name="fig12",
            scenario="damage-timelines",
            title="Figure 12: damage rate over time, 0.5% agents",
            seed=11,
            trials=3,
            grid=GridSpec(cut_thresholds=(3.0, 7.0, 10.0)),
            tables=("fig12_damage",),
        ),
        *(
            ExperimentSpec(
                name=name,
                scenario="cut-threshold-sweep",
                title=title,
                seed=13,
                trials=3,
                grid=_CT_GRID,
                tables=(table,),
            )
            for name, table, title in (
                ("fig12-stabilized", "fig12_stabilized_damage",
                 "Figure 12 companion: stabilized damage by cut threshold"),
                ("fig13", "fig13_errors", "Figure 13: errors vs cut threshold"),
                ("fig14", "fig14_recovery",
                 "Figure 14: damage recovery time vs cut threshold"),
            )
        ),
        ExperimentSpec(
            name="exchange",
            scenario="exchange-frequency",
            title="Section 3.7.1: neighbor-list exchange policy comparison",
            seed=17,
            grid=GridSpec(periods_min=(1, 2, 4, 5, 10)),
            tables=("exchange_frequency",),
        ),
        ExperimentSpec(
            name="fault-sweep",
            scenario="fault-sweep",
            title="Fault-robustness sweep: control-plane loss x fail-stop crashes",
            backend="des",
            seed=23,
            trials=3,
            scale=Scale("bench", n_peers=40, sim_minutes=6, attack_start_min=2),
            police=DDPoliceConfig(exchange_period_s=30.0),
            workload=WorkloadSpec(
                queries_per_minute=2.0, attack_rate_qpm=600.0, cheat_strategy="honest"
            ),
            grid=GridSpec(
                agents=2,
                profiles=("paper", "hardened"),
                loss_fractions=(0.0, 0.1, 0.2, 0.3),
                crash_counts=(0, 2),
            ),
            tables=("fault_sweep",),
        ),
        ExperimentSpec(
            name="robustness-matrix",
            scenario="robustness-matrix",
            title="Robustness matrix: defense x adaptive adversary x topology",
            backend="des",
            seed=29,
            trials=2,
            scale=Scale("bench", n_peers=30, sim_minutes=6, attack_start_min=2),
            # Exchange period and q scale down with the workload rates
            # (paper: 120 s and q=100 against 20,000 qpm floods; here
            # 30 s and q=10 against 600 qpm), keeping indicator
            # magnitudes comparable.
            police=DDPoliceConfig(exchange_period_s=30.0, q_threshold_qpm=10.0),
            workload=WorkloadSpec(
                queries_per_minute=2.0, attack_rate_qpm=600.0, cheat_strategy="silent"
            ),
            # Pulse adversaries phase-lock to the exchange period above;
            # churn evaders stay up ~3 exchange windows and flee for one.
            adversary=AdaptiveConfig(pulse_period_s=30.0),
            grid=GridSpec(
                agents=2,
                defenses=("paper", "hardened", "traceback"),
                adversaries=ADAPTIVE_STRATEGIES,
                topologies=("ba", "hard_cutoff", "bittorrent"),
            ),
            tables=("robustness_matrix",),
        ),
    )
}
