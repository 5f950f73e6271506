"""The registered experiment library: scenario drivers + default specs.

Every figure of the paper's evaluation (and the robustness studies that
grew around it) is an :class:`~repro.experiments.spec.ExperimentSpec`
registered here and resolved by name -- ``repro run fig12`` -- over a
registered scenario driver:

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

A scenario driver expands the spec into backend-neutral
:class:`~repro.experiments.spec.Case` lists, executes them through
:func:`~repro.experiments.spec.run_cases` (one pmap over the whole
grid; ``workers=1`` byte-identical), aggregates, and renders the exact
tables published under ``results/`` -- the benchmarks and the CLI both
call :func:`run_spec`, so there is one implementation to keep
byte-identical.

Scenario results are cached per ``(scenario_sha256, obs)``: fig9/10/11
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
from repro.experiments.scenarios import (
    FaultSweepSpec,
    MatrixSpec,
    Scale,
    bench_scale,
    fault_grid_for,
    matrix_grid_for,
    paper_scale,
    smoke_scale,
)
from repro.experiments.spec import (
    Case,
    CaseResult,
    ExperimentSpec,
    GridSpec,
    WorkloadSpec,
    apply_overrides,
    get_backend,
    get_spec,
    mean,
    register_spec,
    run_cases,
    scenario_sha256,
    spec_sha256,
    trial_seed,
)
from repro.faults.plan import CrashRule, FaultPlan
from repro.live.spec import live_grid_for
from repro.metrics.damage import damage_rate, damage_rate_series, damage_recovery_time
from repro.metrics.series import TimeSeries
from repro.obs.config import ObsConfig
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


#: Robustness-matrix default axes (bench scale; smoke shrinks them).
MATRIX_DEFENSES: Tuple[str, ...] = ("paper", "hardened", "traceback")
MATRIX_ADVERSARIES: Tuple[str, ...] = ADAPTIVE_STRATEGIES
MATRIX_TOPOLOGIES: Tuple[str, ...] = ("ba", "hard_cutoff", "bittorrent")


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
    #: Every table the scenario can render, keyed by artifact name.
    tables: Dict[str, str]
    #: Number of simulation cases executed.
    cases: int
    #: Seed-derivation labels for the run manifest (empty = raw seed).
    seed_derivation: Tuple[str, ...] = ()


#: Driver signature: (spec, *, workers, obs) -> ScenarioOutput.
Driver = Callable[..., ScenarioOutput]


@dataclass(frozen=True)
class Scenario:
    """A registered scenario driver and the tables it renders."""

    name: str
    driver: Driver
    tables: Tuple[str, ...]
    description: str = ""


_SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Register (or replace) a scenario driver under ``scenario.name``."""
    if not scenario.name:
        raise ConfigError("scenario name must be non-empty")
    _SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name; unknown names list the valid ones."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r} (registered: "
            f"{', '.join(sorted(_SCENARIOS)) or 'none'})"
        )


def list_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_SCENARIOS[k] for k in sorted(_SCENARIOS)]


def _execute(
    spec: ExperimentSpec,
    cases: Sequence[Case],
    workers: Optional[int],
    obs: Optional[ObsConfig],
) -> List[CaseResult]:
    if obs is not None:
        cases = [replace(c, obs=obs) for c in cases]
    if spec.backend == "live":
        cases = [replace(c, live=spec.live) for c in cases]
    return run_cases(cases, backend=spec.backend, workers=workers)


def _case_rows(res: CaseResult, backend: str) -> List[Tuple[float, float]]:
    """Per-minute (minute, success) samples, backend-normalized.

    The fluid backend reports integer minutes; DES and the live testbed
    report second timestamps, converted here so the timeline scenarios
    aggregate all of them on the same axis.
    """
    if backend in ("des", "live"):
        return [(t / 60.0, v) for t, v in res.rows]
    return list(res.rows)


def _derived_agents(spec: ExperimentSpec) -> int:
    """Timeline-scenario agent count: explicit or density at scale."""
    if spec.grid.agents:
        return spec.grid.agents
    return max(1, round(spec.grid.agent_fraction * spec.scale.n_peers))


def _damage_vs_baseline(
    res: CaseResult, base_success: Mapping[float, float], spec: ExperimentSpec
) -> List[Tuple[float, float]]:
    """Per-minute (minute, damage %) of ``res`` against its clean baseline.

    Minutes the baseline run lacks are skipped; before the attack the
    two runs differ only by seed noise, so damage is pinned to zero.
    """
    out: List[Tuple[float, float]] = []
    for minute, success in _case_rows(res, spec.backend):
        s0 = base_success.get(minute)
        if s0 is None:
            continue
        if minute < spec.scale.attack_start_min:
            out.append((minute, 0.0))
        else:
            out.append((minute, damage_rate(s0, min(success, s0))))
    return out


# ---------------------------------------------------------------------------
# scenario: testbed-rate (Figures 5 & 6)
# ---------------------------------------------------------------------------

def _scn_testbed_rate(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
) -> ScenarioOutput:
    """A->B->C capacity sweep (closed form; scale/backend-independent)."""
    pts = list(run_rate_sweep())
    tables = {
        "fig05_processed": render_table(
            ["sent (q/min)", "processed (q/min)"],
            [[int(p.sent_qpm), int(p.processed_qpm)] for p in pts],
            title="Figure 5: queries sent vs processed at peer B",
        ),
        "fig06_droprate": render_table(
            ["received (q/min)", "drop rate (%)"],
            [[int(p.sent_qpm), round(p.drop_rate_pct, 1)] for p in pts],
            title="Figure 6: query drop rate vs query density at peer B",
        ),
    }
    return ScenarioOutput(data=pts, tables=tables, cases=0)


# ---------------------------------------------------------------------------
# scenario: agent-sweep (Figures 9-11)
# ---------------------------------------------------------------------------

def _scn_agent_sweep(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
) -> ScenarioOutput:
    """For each agent density: no attack, attack, attack + DD-POLICE."""
    scale = spec.scale
    agent_counts = list(spec.grid.agent_counts) or scale.agent_counts()
    settle = scale.attack_start_min + 4  # measure after detection settles

    # ba_m is fluid-invisible; on the DES backend it pins the m=1
    # attachment the fault sweep uses, so message-level cross-backend
    # runs pay O(n) per flooded query instead of O(n * degree).
    base = Case(
        n=scale.n_peers,
        minutes=scale.sim_minutes,
        seed=spec.seed,
        workload=spec.workload,
        settle_min=settle,
        ba_m=1,
    )
    cases: List[Case] = [base]
    for k in agent_counts:
        attack = replace(
            base, num_agents=k, attack_start_min=scale.attack_start_min
        )
        cases.append(attack)
        cases.append(replace(attack, defense="ddpolice", police=spec.police))
    results = _execute(spec, cases, workers, obs)

    t0, r0, s0 = results[0].steady
    rows: List[AgentSweepRow] = []
    for i, k in enumerate(agent_counts):
        t1, r1, s1 = results[1 + 2 * i].steady
        t2, r2, s2 = results[2 + 2 * i].steady
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

    header = ["agents (paper-equiv)", "under DDoS", "DDoS + DD-POLICE", "no DDoS"]
    tables = {
        "fig09_traffic": render_table(
            header,
            [
                [
                    r.paper_equivalent_agents,
                    round(r.traffic_attack_k, 1),
                    round(r.traffic_defended_k, 1),
                    round(r.traffic_no_ddos_k, 1),
                ]
                for r in rows
            ],
            title="Figure 9: average traffic cost (10^3 messages/min)",
        ),
        "fig10_response": render_table(
            header,
            [
                [
                    r.paper_equivalent_agents,
                    round(r.response_attack_s, 3),
                    round(r.response_defended_s, 3),
                    round(r.response_no_ddos_s, 3),
                ]
                for r in rows
            ],
            title="Figure 10: average response time (s)",
        ),
        "fig11_success": render_table(
            header,
            [
                [
                    r.paper_equivalent_agents,
                    round(100.0 * r.success_attack, 1),
                    round(100.0 * r.success_defended, 1),
                    round(100.0 * r.success_no_ddos, 1),
                ]
                for r in rows
            ],
            title="Figure 11: average success rate (%)",
        ),
    }
    return ScenarioOutput(data=rows, tables=tables, cases=len(cases))


# ---------------------------------------------------------------------------
# scenario: damage-timelines (Figure 12)
# ---------------------------------------------------------------------------

def _scn_damage_timelines(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
) -> ScenarioOutput:
    """No-defense + DD-POLICE-CT damage trajectories, trial-averaged."""
    scale = spec.scale
    cut_thresholds = spec.grid.cut_thresholds
    minutes = spec.grid.minutes or max(
        scale.sim_minutes, scale.attack_start_min + 20
    )
    agents = _derived_agents(spec)

    n_trials = max(1, spec.trials)
    cases_per_trial = 2 + len(cut_thresholds)  # baseline, no-defense, CTs
    cases: List[Case] = []
    for t in range(n_trials):
        base = Case(
            n=scale.n_peers,
            minutes=minutes,
            seed=trial_seed(spec.seed, t),
            workload=spec.workload,
        )
        attack = replace(
            base, num_agents=agents, attack_start_min=scale.attack_start_min
        )
        cases.append(base)
        cases.append(attack)
        for ct in cut_thresholds:
            cases.append(
                replace(
                    attack,
                    defense="ddpolice",
                    police=spec.police.with_cut_threshold(ct),
                )
            )
    results = _execute(spec, cases, workers, obs)

    def one_trial(t: int) -> List[DamageTimeline]:
        chunk = results[t * cases_per_trial:(t + 1) * cases_per_trial]
        base_success = dict(_case_rows(chunk[0], spec.backend))

        def timeline(
            label: str, res: CaseResult, ct: Optional[float]
        ) -> DamageTimeline:
            damage = _damage_vs_baseline(res, base_success, spec)
            return DamageTimeline(
                label=label,
                cut_threshold=ct,
                minutes=[m for m, _ in damage],
                damage_pct=[d for _, d in damage],
            )

        out = [timeline("no DD-POLICE", chunk[1], None)]
        for i, ct in enumerate(cut_thresholds):
            out.append(timeline(f"DD-POLICE-{ct:g}", chunk[2 + i], ct))
        return out

    runs = [one_trial(t) for t in range(n_trials)]
    if len(runs) == 1:
        timelines = runs[0]
    else:
        timelines = []
        for idx, first in enumerate(runs[0]):
            series = [run[idx].damage_pct for run in runs]
            length = min(len(s) for s in series)
            averaged = [
                sum(s[i] for s in series) / len(series) for i in range(length)
            ]
            timelines.append(
                DamageTimeline(
                    label=first.label,
                    cut_threshold=first.cut_threshold,
                    minutes=first.minutes[:length],
                    damage_pct=averaged,
                )
            )

    header = ["minute"] + [t.label for t in timelines]
    table_rows = []
    for i, minute in enumerate(timelines[0].minutes):
        table_rows.append(
            [minute] + [round(t.damage_pct[i], 1) for t in timelines]
        )
    tables = {
        "fig12_damage": render_table(
            header,
            table_rows,
            title="Figure 12: damage rate (%) over time, 0.5% agents",
        ),
    }
    return ScenarioOutput(
        data=timelines,
        tables=tables,
        cases=len(cases),
        seed_derivation=("trial", "<t>"),
    )


# ---------------------------------------------------------------------------
# scenario: cut-threshold-sweep (Figures 13 & 14 + stabilized damage)
# ---------------------------------------------------------------------------

def _scn_cut_threshold_sweep(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
) -> ScenarioOutput:
    """Errors / recovery / stabilized damage per cut threshold."""
    scale = spec.scale
    cut_thresholds = spec.grid.cut_thresholds
    minutes = spec.grid.minutes or max(
        scale.sim_minutes, scale.attack_start_min + 20
    )
    agents = _derived_agents(spec)

    n_trials = max(1, spec.trials)
    cases_per_trial = 1 + len(cut_thresholds)
    cases: List[Case] = []
    for trial in range(n_trials):
        base = Case(
            n=scale.n_peers,
            minutes=minutes,
            seed=trial_seed(spec.seed, trial),
            workload=spec.workload,
        )
        cases.append(base)
        for ct in cut_thresholds:
            cases.append(
                replace(
                    base,
                    num_agents=agents,
                    attack_start_min=scale.attack_start_min,
                    defense="ddpolice",
                    police=spec.police.with_cut_threshold(ct),
                )
            )
    results = _execute(spec, cases, workers, obs)

    per_trial: List[List[CutThresholdRow]] = []
    for trial in range(n_trials):
        chunk = results[trial * cases_per_trial:(trial + 1) * cases_per_trial]
        base_success = dict(_case_rows(chunk[0], spec.backend))

        rows: List[CutThresholdRow] = []
        for i, ct in enumerate(cut_thresholds):
            res = chunk[1 + i]
            damage = TimeSeries(_damage_vs_baseline(res, base_success, spec))
            tail = damage.window(minutes - 5, minutes + 1)
            rows.append(
                CutThresholdRow(
                    cut_threshold=ct,
                    false_negative=res.false_negative,
                    false_positive=res.false_positive,
                    false_judgment=res.false_negative + res.false_positive,
                    damage_recovery_min=damage_recovery_time(damage),
                    stabilized_damage_pct=tail.mean() if len(tail) else 0.0,
                )
            )
        per_trial.append(rows)

    if len(per_trial) == 1:
        ct_rows = per_trial[0]
    else:
        ct_rows = []
        for idx, ct in enumerate(cut_thresholds):
            cells = [t[idx] for t in per_trial]
            recoveries = [
                c.damage_recovery_min
                for c in cells
                if c.damage_recovery_min is not None
            ]
            fn = sum(c.false_negative for c in cells)
            fp = sum(c.false_positive for c in cells)
            ct_rows.append(
                CutThresholdRow(
                    cut_threshold=ct,
                    false_negative=fn,
                    false_positive=fp,
                    false_judgment=fn + fp,
                    damage_recovery_min=(
                        sum(recoveries) / len(recoveries) if recoveries else None
                    ),
                    stabilized_damage_pct=sum(
                        c.stabilized_damage_pct for c in cells
                    )
                    / len(cells),
                )
            )

    tables = {
        "fig13_errors": render_table(
            ["cut threshold", "false judgment", "false positive", "false negative"],
            [
                [r.cut_threshold, r.false_judgment, r.false_positive, r.false_negative]
                for r in ct_rows
            ],
            title="Figure 13: errors vs cut threshold (paper terminology: "
            "FN = good peers wrongly cut, FP = bad peers missed)",
        ),
        "fig14_recovery": render_table(
            ["cut threshold", "damage recovery time (min)"],
            [
                [
                    r.cut_threshold,
                    (
                        "n/a"
                        if r.damage_recovery_min is None
                        else round(r.damage_recovery_min, 1)
                    ),
                ]
                for r in ct_rows
            ],
            title="Figure 14: damage recovery time vs cut threshold",
        ),
        "fig12_stabilized_damage": render_table(
            ["cut threshold", "stabilized damage (%)"],
            [[r.cut_threshold, round(r.stabilized_damage_pct, 1)] for r in ct_rows],
            title="Figure 12 companion: stabilized damage by cut threshold",
        ),
    }
    return ScenarioOutput(
        data=ct_rows,
        tables=tables,
        cases=len(cases),
        seed_derivation=("trial", "<t>"),
    )


# ---------------------------------------------------------------------------
# scenario: exchange-frequency (Section 3.7.1)
# ---------------------------------------------------------------------------

def _scn_exchange_frequency(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
) -> ScenarioOutput:
    """Periodic exchange at several periods + the event-driven policy.

    Event-driven is approximated at fluid granularity by a 1-minute
    period with per-change message accounting (every join/leave triggers
    a republication).
    """
    scale = spec.scale
    periods = spec.grid.periods_min
    minutes = spec.grid.minutes or scale.sim_minutes
    agents = _derived_agents(spec)

    base = Case(
        n=scale.n_peers,
        minutes=minutes,
        seed=spec.seed,
        workload=spec.workload,
    )

    def attack_case(period: int) -> Case:
        return replace(
            base,
            num_agents=agents,
            attack_start_min=scale.attack_start_min,
            defense="ddpolice",
            police=spec.police,
            exchange_period_min=period,
        )

    cases = [base] + [attack_case(p) for p in periods] + [attack_case(1)]
    results = _execute(spec, cases, workers, obs)
    base_success = dict(_case_rows(results[0], spec.backend))
    mean_deg = 6.0

    def row(
        res: CaseResult, label: str, period: int, event_driven: bool
    ) -> ExchangeFrequencyRow:
        if event_driven:
            # "a peer informs all its neighbors whenever its neighboring
            # peer is leaving or a new peer is joining": every churn event
            # touches ~deg neighbors, each republishing to ~deg peers.
            overhead = res.churn_events / max(1, minutes) * mean_deg * mean_deg
        else:
            # each online peer republishes to all neighbors every period
            overhead = res.online_mean * mean_deg / period
        tail_damage = [
            d
            for minute, d in _damage_vs_baseline(res, base_success, spec)
            if minute >= minutes - 5
        ]
        return ExchangeFrequencyRow(
            policy=label,
            period_min=None if event_driven else period,
            false_judgment=res.false_negative + res.false_positive,
            control_overhead_kqpm=overhead / 1000.0,
            stabilized_damage_pct=(
                sum(tail_damage) / len(tail_damage) if tail_damage else 0.0
            ),
        )

    rows = [
        row(results[1 + i], f"periodic-{p}min", p, event_driven=False)
        for i, p in enumerate(periods)
    ]
    rows.append(row(results[-1], "event-driven", 1, event_driven=True))

    tables = {
        "exchange_frequency": render_table(
            ["policy", "false judgment", "control overhead (k msgs/min)",
             "stabilized damage (%)"],
            [
                [r.policy, r.false_judgment, round(r.control_overhead_kqpm, 2),
                 round(r.stabilized_damage_pct, 1)]
                for r in rows
            ],
            title="Section 3.7.1: neighbor-list exchange policy comparison",
        ),
    }
    return ScenarioOutput(data=rows, tables=tables, cases=len(cases))


# ---------------------------------------------------------------------------
# scenario: fault-sweep (loss x crashes, DES)
# ---------------------------------------------------------------------------

def _fault_plan(spec: FaultSweepSpec, loss: float, crashes: int) -> FaultPlan:
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
                        at_s=(spec.attack_start_min + 1) * 60.0, count=crashes
                    ),
                )
            )
        )
    return plan


def _scn_fault_sweep(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
) -> ScenarioOutput:
    """Control-plane loss x fail-stop crashes, per evidence profile.

    ``paper`` is the literal Section 3.3 collection rule (missing report
    => assume 0); ``hardened`` adds bounded retries, the report quorum
    with one window extension, and exchange retransmission
    (:meth:`DDPoliceConfig.with_hardening`). Both see the exact same
    fault schedule per (grid point, trial). The grid comes from
    ``spec.faults``; agents flood but *report honestly*, so every false
    negative is a network/evidence artifact, not Section 3.4 cheating.
    """
    fs = spec.faults
    profiles = spec.grid.profiles or FAULT_PROFILES
    base_police = spec.police
    police_by_profile = {
        "paper": base_police,
        "hardened": base_police.with_hardening(),
    }
    for profile in profiles:
        if profile not in police_by_profile:
            raise ConfigError(f"unknown fault profile {profile!r}")

    workload = replace(spec.workload, attack_rate_qpm=fs.attack_rate_qpm)

    def fault_case(
        *, loss: float, crashes: int, seed: int, num_agents: int,
        police: DDPoliceConfig,
    ) -> Case:
        # Tree overlay (ba_m=1): flooding is duplicate-free, so the
        # Definition 2.1 send/receive balance is exact and indicator
        # noise comes only from the injected faults.
        return Case(
            n=fs.n_peers,
            minutes=fs.sim_minutes,
            seed=seed,
            num_agents=num_agents,
            attack_start_min=fs.attack_start_min,
            defense="ddpolice",
            police=police,
            workload=workload,
            faults=_fault_plan(fs, loss, crashes),
            ba_m=1,
        )

    # One clean-run baseline per (loss, crashes, trial), shared by the
    # profiles: with no attackers there are no investigations, so the
    # evidence profile cannot matter there.
    baseline_keys: List[Tuple[float, int, int]] = []
    run_keys: List[Tuple[float, int, str, int]] = []
    cases: List[Case] = []
    for loss in fs.loss_fractions:
        for crashes in fs.crash_counts:
            for trial in range(fs.trials):
                baseline_keys.append((loss, crashes, trial))
                cases.append(
                    fault_case(
                        loss=loss,
                        crashes=crashes,
                        seed=trial_seed(spec.seed, trial),
                        num_agents=0,
                        police=base_police,
                    )
                )
    for loss in fs.loss_fractions:
        for crashes in fs.crash_counts:
            for profile in profiles:
                for trial in range(fs.trials):
                    run_keys.append((loss, crashes, profile, trial))
                    cases.append(
                        fault_case(
                            loss=loss,
                            crashes=crashes,
                            seed=trial_seed(spec.seed, trial),
                            num_agents=fs.num_agents,
                            police=police_by_profile[profile],
                        )
                    )

    results = _execute(spec, cases, workers, obs)
    baseline_series = {
        key: TimeSeries(res.rows)
        for key, res in zip(baseline_keys, results[: len(baseline_keys)])
    }
    run_results = dict(zip(run_keys, results[len(baseline_keys):]))

    points: List[FaultPoint] = []
    for loss in fs.loss_fractions:
        for crashes in fs.crash_counts:
            for profile in profiles:
                fns: List[float] = []
                fps: List[float] = []
                recoveries: List[float] = []
                for trial in range(fs.trials):
                    res = run_results[(loss, crashes, profile, trial)]
                    fns.append(float(res.false_negative))
                    fps.append(float(res.false_positive))
                    damage = damage_rate_series(
                        baseline_series[(loss, crashes, trial)],
                        TimeSeries(res.rows),
                    )
                    rec = damage_recovery_time(damage)
                    if rec is not None:
                        recoveries.append(rec)
                fn = mean(fns)
                fp = mean(fps)
                points.append(
                    FaultPoint(
                        loss=loss,
                        crashes=crashes,
                        profile=profile,
                        false_negative=fn,
                        false_positive=fp,
                        false_judgment=fn + fp,
                        recovery_time_s=(
                            mean(recoveries) if recoveries else None
                        ),
                        recovered_trials=len(recoveries),
                        trials=fs.trials,
                    )
                )

    tables = {"fault_sweep": format_fault_sweep(fs, points)}
    return ScenarioOutput(
        data=points,
        tables=tables,
        cases=len(cases),
        seed_derivation=("trial", "<t>"),
    )


def format_fault_sweep(spec: FaultSweepSpec, points: Sequence[FaultPoint]) -> str:
    """Fixed-width table of a fault sweep, ready for ``results/``."""
    lines = [
        "Fault-robustness sweep: control-plane loss x fail-stop crashes",
        f"scale={spec.name}  n={spec.n_peers}  agents={spec.num_agents} "
        f"(honest reporters)  attack={spec.attack_rate_qpm:g} qpm "
        f"from minute {spec.attack_start_min}  "
        f"duration={spec.sim_minutes} min  trials={spec.trials}",
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

def _matrix_axes(
    spec: ExperimentSpec,
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
    """(defenses, adversaries, topologies) with smoke-shrunk defaults.

    Explicit ``grid`` tuples win; empty tuples fall back to defaults
    sized by the matrix scale (smoke keeps CI under a handful of runs
    while still containing a paper-literal row and an evading
    adversary, so degradation stays observable).
    """
    if spec.matrix.name == "smoke":
        defaults = (("paper", "traceback"), ("static", "throttle", "pulse"), ("ba",))
    else:
        defaults = (MATRIX_DEFENSES, MATRIX_ADVERSARIES, MATRIX_TOPOLOGIES)
    return (
        spec.grid.defenses or defaults[0],
        spec.grid.adversaries or defaults[1],
        spec.grid.topologies or defaults[2],
    )


def _scn_robustness_matrix(
    spec: ExperimentSpec,
    *,
    workers: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
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
    each other's excuse reports.
    """
    ms = spec.matrix
    defenses, adversaries, topologies = _matrix_axes(spec)
    police_by_defense = {
        "paper": spec.police,
        "hardened": spec.police.with_hardening(),
    }

    workload = replace(spec.workload, attack_rate_qpm=ms.attack_rate_qpm)
    collude_workload = replace(workload, cheat_strategy="collude")

    # ba_m=1 keeps the preferential-attachment topologies duplicate-free
    # (the fault-sweep convention): the flood visits every edge once, so
    # a message-level run stays tractable and the indicator signal is
    # structural, not duplicate noise. The bittorrent generator ignores
    # ba_m -- its dense swarm graph, duplicates and all, is the point of
    # that column.
    def matrix_case(defense: str, adversary: str, topo: str, trial: int) -> Case:
        return Case(
            n=ms.n_peers,
            minutes=ms.sim_minutes,
            seed=trial_seed(spec.seed, trial),
            num_agents=ms.num_agents,
            attack_start_min=ms.attack_start_min,
            defense="traceback" if defense == "traceback" else "ddpolice",
            police=police_by_defense.get(defense, spec.police),
            workload=collude_workload if adversary == "collude" else workload,
            adaptive=replace(spec.adversary, strategy=adversary),
            traceback=spec.traceback,
            topology=topo,
            ba_m=1,
        )

    # One clean baseline per (topology, trial) -- shared by every
    # defense/adversary cell on that topology, since with no attackers
    # neither the defense nor the adversary behaviour can matter.
    baseline_keys: List[Tuple[str, int]] = []
    cases: List[Case] = []
    for topo in topologies:
        for trial in range(ms.trials):
            baseline_keys.append((topo, trial))
            cases.append(
                Case(
                    n=ms.n_peers,
                    minutes=ms.sim_minutes,
                    seed=trial_seed(spec.seed, trial),
                    workload=workload,
                    topology=topo,
                    ba_m=1,
                )
            )
    run_keys: List[Tuple[str, str, str, int]] = []
    for defense in defenses:
        for adversary in adversaries:
            for topo in topologies:
                for trial in range(ms.trials):
                    run_keys.append((defense, adversary, topo, trial))
                    cases.append(matrix_case(defense, adversary, topo, trial))

    results = _execute(spec, cases, workers, obs)
    baseline_success = {
        key: dict(_case_rows(res, spec.backend))
        for key, res in zip(baseline_keys, results[: len(baseline_keys)])
    }
    run_results = dict(zip(run_keys, results[len(baseline_keys):]))

    def post_attack_damage(res: CaseResult, topo: str, trial: int) -> float:
        base = baseline_success[(topo, trial)]
        samples = []
        for minute, success in _case_rows(res, spec.backend):
            s0 = base.get(minute)
            if s0 is not None and minute >= ms.attack_start_min:
                samples.append(damage_rate(s0, min(success, s0)))
        return sum(samples) / len(samples) if samples else 0.0

    rows: List[MatrixRow] = []
    for defense in defenses:
        for adversary in adversaries:
            for topo in topologies:
                latencies: List[float] = []
                caught: List[float] = []
                fns: List[float] = []
                damages: List[float] = []
                for trial in range(ms.trials):
                    res = run_results[(defense, adversary, topo, trial)]
                    latencies.append(res.detection_latency_s or 0.0)
                    caught.append(float(res.caught_attackers))
                    fns.append(float(res.false_negative))
                    damages.append(post_attack_damage(res, topo, trial))
                rows.append(
                    MatrixRow(
                        defense=defense,
                        adversary=adversary,
                        topology=topo,
                        detection_latency_s=mean(latencies),
                        caught_attackers=mean(caught),
                        total_attackers=ms.num_agents,
                        false_negative=mean(fns),
                        damage_pct=mean(damages),
                        trials=ms.trials,
                    )
                )

    tables = {"robustness_matrix": format_robustness_matrix(ms, rows)}
    return ScenarioOutput(
        data=rows,
        tables=tables,
        cases=len(cases),
        seed_derivation=("trial", "<t>"),
    )


def format_robustness_matrix(ms: MatrixSpec, rows: Sequence[MatrixRow]) -> str:
    """Fixed-width robustness-matrix table, ready for ``results/``."""
    lines = [
        "Robustness matrix: defense x adaptive adversary x overlay topology (DES)",
        f"scale={ms.name}  n={ms.n_peers}  agents={ms.num_agents}  "
        f"attack={ms.attack_rate_qpm:g} qpm from minute {ms.attack_start_min}  "
        f"duration={ms.sim_minutes} min  trials={ms.trials}",
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


register_scenario(Scenario(
    name="testbed-rate",
    driver=_scn_testbed_rate,
    tables=("fig05_processed", "fig06_droprate"),
    description="A->B->C capacity sweep (Figures 5 & 6, closed form)",
))
register_scenario(Scenario(
    name="agent-sweep",
    driver=_scn_agent_sweep,
    tables=("fig09_traffic", "fig10_response", "fig11_success"),
    description="service quality vs #agents (Figures 9-11)",
))
register_scenario(Scenario(
    name="damage-timelines",
    driver=_scn_damage_timelines,
    tables=("fig12_damage",),
    description="damage over time per cut threshold (Figure 12)",
))
register_scenario(Scenario(
    name="cut-threshold-sweep",
    driver=_scn_cut_threshold_sweep,
    tables=("fig13_errors", "fig14_recovery", "fig12_stabilized_damage"),
    description="errors / recovery / stabilized damage vs CT (Figures 13-14)",
))
register_scenario(Scenario(
    name="exchange-frequency",
    driver=_scn_exchange_frequency,
    tables=("exchange_frequency",),
    description="neighbor-list exchange policy comparison (Section 3.7.1)",
))
register_scenario(Scenario(
    name="fault-sweep",
    driver=_scn_fault_sweep,
    tables=("fault_sweep",),
    description="control-plane loss x crash robustness grid (DES)",
))
register_scenario(Scenario(
    name="robustness-matrix",
    driver=_scn_robustness_matrix,
    tables=("robustness_matrix",),
    description="defense x adaptive adversary x topology grid (DES)",
))


# ---------------------------------------------------------------------------
# running specs
# ---------------------------------------------------------------------------

_SCALES: Dict[str, Callable[[], Scale]] = {
    "bench": bench_scale,
    "paper": paper_scale,
    "smoke": smoke_scale,
}


def spec_at_scale(
    spec: ExperimentSpec, scale: Union[str, Scale]
) -> ExperimentSpec:
    """Re-target a spec at a scale.

    A named scale (``bench``/``paper``/``smoke``) also swaps the fault
    and robustness-matrix grids to that scale's variants; an explicit
    :class:`Scale` instance replaces only the ``scale`` layer.
    """
    if isinstance(scale, Scale):
        return replace(spec, scale=scale)
    name = str(scale).lower()
    if name not in _SCALES:
        raise ConfigError(
            f"unknown scale {name!r} (valid: {', '.join(sorted(_SCALES))})"
        )
    return replace(
        spec,
        scale=_SCALES[name](),
        faults=fault_grid_for(name),
        matrix=matrix_grid_for(name),
        live=live_grid_for(name),
    )


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
#: (fig9/10/11; fig13/fig14/fig12-stabilized). Obs is part of the key:
#: a traced run must not satisfy an untraced request, or vice versa.
_RESULT_CACHE: Dict[Tuple[str, Optional[ObsConfig]], ScenarioOutput] = {}


def clear_cache() -> None:
    """Drop all cached scenario results (tests; long-lived processes)."""
    _RESULT_CACHE.clear()


def run_spec(
    spec: Union[str, ExperimentSpec],
    *,
    scale: Optional[Union[str, Scale]] = None,
    backend: Optional[str] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    workers: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
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

    key = (scenario_sha256(spec), obs)
    started = time.perf_counter()
    output = _RESULT_CACHE.get(key) if cache else None
    if output is None:
        output = scenario.driver(spec, workers=workers, obs=obs)
        if cache:
            _RESULT_CACHE[key] = output
    duration_s = time.perf_counter() - started

    selected = spec.tables or scenario.tables
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
        tables={t: output.tables[t] for t in selected},
        manifest=manifest,
        duration_s=duration_s,
        cases=output.cases,
        sha256=sha,
    )


# ---------------------------------------------------------------------------
# the default spec library (seeds/trials match the published tables)
# ---------------------------------------------------------------------------

register_spec(ExperimentSpec(
    name="fig5",
    scenario="testbed-rate",
    title="Figure 5: queries sent vs processed at peer B",
    tables=("fig05_processed",),
))
register_spec(ExperimentSpec(
    name="fig6",
    scenario="testbed-rate",
    title="Figure 6: query drop rate vs query density at peer B",
    tables=("fig06_droprate",),
))
register_spec(ExperimentSpec(
    name="fig9",
    scenario="agent-sweep",
    title="Figure 9: average traffic cost vs number of agents",
    seed=7,
    tables=("fig09_traffic",),
))
register_spec(ExperimentSpec(
    name="fig10",
    scenario="agent-sweep",
    title="Figure 10: average response time vs number of agents",
    seed=7,
    tables=("fig10_response",),
))
register_spec(ExperimentSpec(
    name="fig11",
    scenario="agent-sweep",
    title="Figure 11: average success rate vs number of agents",
    seed=7,
    tables=("fig11_success",),
))
register_spec(ExperimentSpec(
    name="fig12",
    scenario="damage-timelines",
    title="Figure 12: damage rate over time, 0.5% agents",
    seed=11,
    trials=3,
    grid=GridSpec(cut_thresholds=(3.0, 7.0, 10.0)),
    tables=("fig12_damage",),
))
register_spec(ExperimentSpec(
    name="fig12-stabilized",
    scenario="cut-threshold-sweep",
    title="Figure 12 companion: stabilized damage by cut threshold",
    seed=13,
    trials=3,
    grid=GridSpec(cut_thresholds=(2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0)),
    tables=("fig12_stabilized_damage",),
))
register_spec(ExperimentSpec(
    name="fig13",
    scenario="cut-threshold-sweep",
    title="Figure 13: errors vs cut threshold",
    seed=13,
    trials=3,
    grid=GridSpec(cut_thresholds=(2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0)),
    tables=("fig13_errors",),
))
register_spec(ExperimentSpec(
    name="fig14",
    scenario="cut-threshold-sweep",
    title="Figure 14: damage recovery time vs cut threshold",
    seed=13,
    trials=3,
    grid=GridSpec(cut_thresholds=(2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0)),
    tables=("fig14_recovery",),
))
register_spec(ExperimentSpec(
    name="exchange",
    scenario="exchange-frequency",
    title="Section 3.7.1: neighbor-list exchange policy comparison",
    seed=17,
    grid=GridSpec(periods_min=(1, 2, 4, 5, 10)),
    tables=("exchange_frequency",),
))
register_spec(ExperimentSpec(
    name="fault-sweep",
    scenario="fault-sweep",
    title="Fault-robustness sweep: control-plane loss x fail-stop crashes",
    backend="des",
    seed=23,
    police=DDPoliceConfig(exchange_period_s=30.0),
    workload=WorkloadSpec(queries_per_minute=2.0, cheat_strategy="honest"),
    faults=fault_grid_for("bench"),
    grid=GridSpec(profiles=("paper", "hardened")),
    tables=("fault_sweep",),
))
register_spec(ExperimentSpec(
    name="robustness-matrix",
    scenario="robustness-matrix",
    title="Robustness matrix: defense x adaptive adversary x topology",
    backend="des",
    seed=29,
    # Exchange period and q scale down with the workload rates (paper:
    # 120 s and q=100 against 20,000 qpm floods; here 30 s and q=10
    # against 600 qpm), keeping indicator magnitudes comparable.
    police=DDPoliceConfig(exchange_period_s=30.0, q_threshold_qpm=10.0),
    workload=WorkloadSpec(queries_per_minute=2.0, cheat_strategy="silent"),
    # Pulse adversaries phase-lock to the exchange period above; churn
    # evaders stay up ~3 exchange windows and flee for one.
    adversary=AdaptiveConfig(pulse_period_s=30.0),
    matrix=matrix_grid_for("bench"),
    tables=("robustness_matrix",),
))
