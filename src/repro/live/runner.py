"""The ``live`` backend: run one experiment Case as a real UDP swarm.

Adapts the backend-neutral :class:`repro.experiments.spec.Case` to a
:class:`repro.live.supervisor.SwarmConfig`, runs the swarm, and maps the
collected JSONL stats onto the :class:`~repro.experiments.spec.CaseResult`
contract the scenario drivers consume -- same row/steady/error semantics
as the DES extraction, so ``repro run fig9 --backend live`` flows through
the unchanged agent-sweep driver.

Scale adaptation: a live node is an OS process, so the case's abstract
``n`` is capped at the :class:`~repro.live.spec.LiveSpec` swarm size and
the agent count is scaled proportionally (keeping the attack *density*,
which is what the Fig-9/10/11 curves are about).

Features the testbed does not implement are rejected loudly with
:class:`~repro.errors.ConfigError` -- fault injection schedules, adaptive
adversaries, the traceback baseline, collusion, and a trace path (the
swarm's per-node JSONL *is* its observability story).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.attack.cheating import CheatStrategy
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.live.supervisor import Supervisor, SwarmConfig, SwarmResult

#: Set to a directory to keep each case's swarm artifacts (debugging).
ENV_OUT_DIR = "REPRO_LIVE_OUT_DIR"


def _reject_unsupported(case: Any) -> None:
    if case.faults != FaultPlan():
        raise ConfigError(
            "backend 'live' cannot inject fault schedules (DES only)"
        )
    if case.adaptive.strategy != "static":
        raise ConfigError(
            f"backend 'live' cannot simulate adaptive strategy "
            f"{case.adaptive.strategy!r} (DES only)"
        )
    if case.defense == "traceback":
        raise ConfigError("backend 'live' has no traceback defense (DES only)")
    if case.workload.cheat is CheatStrategy.COLLUDE:
        raise ConfigError(
            "backend 'live' cannot simulate cheat_strategy 'collude' (DES only)"
        )
    if case.trace_path is not None:
        raise ConfigError(
            "backend 'live' has per-node JSONL stats; --trace is des/fluid only"
        )


def _case_key(case: Any) -> str:
    """Names one case in errors and in ``$REPRO_LIVE_OUT_DIR``."""
    return f"case-{case.seed}-k{case.num_agents}-{case.defense}"


def swarm_config_for(case: Any) -> SwarmConfig:
    """The swarm a case maps to (pure; unit-testable without sockets)."""
    _reject_unsupported(case)
    live = case.live
    n_nodes = min(case.n, live.n_nodes)
    if case.num_agents > 0:
        if n_nodes == case.n:
            num_agents = case.num_agents
        else:
            num_agents = max(1, round(case.num_agents * n_nodes / case.n))
        num_agents = min(num_agents, n_nodes - 1)
    else:
        num_agents = 0
    return SwarmConfig(
        n_nodes=n_nodes,
        minutes=case.minutes,
        seed=case.seed,
        minute_s=live.minute_s,
        host=live.host,
        port_base=live.port_base,
        num_agents=num_agents,
        attack_start_min=case.attack_start_min,
        attack_rate_qpm=case.workload.attack_rate_qpm,
        cheat_strategy=case.workload.cheat_strategy,
        queries_per_minute=case.workload.queries_per_minute,
        capacity_qpm=case.workload.capacity_qpm,
        defense=case.defense,
        police=case.police,
        topology_model=case.topology if case.topology is not None else "ba",
        ba_m=case.ba_m if case.ba_m is not None else 3,
        ttl=live.ttl,
        seen_cache=live.seen_cache,
        ping_period_s=live.ping_period_s,
        ping_timeout_s=live.ping_timeout_s,
        ping_retries=live.ping_retries,
        spawn_stagger_s=live.spawn_stagger_s,
        drain_timeout_s=live.drain_timeout_s,
        run_id=f"live-{case.seed}",
    )


def _per_minute(result: SwarmResult) -> Dict[int, Dict[str, float]]:
    """Swarm-wide per-minute aggregates with origin-aware attribution.

    An agent's good workload counts toward issued/succeeded *before* the
    attack minute and is excluded from it onward -- the live analogue of
    the DES origin-aware reclassification (DES agents also keep their
    normal workload running during the attack).
    """
    attack_from = result.config.attack_start_min
    agents_active = result.config.num_agents > 0
    out: Dict[int, Dict[str, float]] = {}
    for rec in result.minute_records:
        minute = int(rec["minute"])
        agg = out.setdefault(
            minute,
            {"issued": 0.0, "succeeded": 0.0, "response_sum_s": 0.0, "messages": 0.0},
        )
        agg["messages"] += rec["sent"]
        if agents_active and rec.get("agent") and minute > attack_from:
            continue
        agg["issued"] += rec["issued"]
        agg["succeeded"] += rec["succeeded"]
        agg["response_sum_s"] += rec["response_sum_s"]
    return out


def case_result_from_swarm(case: Any, result: SwarmResult) -> Any:
    """Map collected swarm stats onto the CaseResult contract."""
    from repro.experiments.spec import CaseResult

    minutes = _per_minute(result)
    rows: List[Tuple[float, float]] = []
    for minute in sorted(minutes):
        agg = minutes[minute]
        rate = agg["succeeded"] / agg["issued"] if agg["issued"] else 0.0
        rows.append((float(minute), rate))

    steady: Optional[Tuple[float, float, float]] = None
    if case.settle_min is not None:
        window = [m for m in sorted(minutes) if case.settle_min <= m <= case.minutes]
        if not window:
            # Which minutes a swarm reports is only known once it ran, so
            # this cannot be rejected up front like the des backends do;
            # three zeros would read as a measured result in a table.
            raise ConfigError(
                f"live {_case_key(case)}: the swarm reported minutes "
                f"{sorted(minutes)}, none in the steady-state window "
                f"{case.settle_min}..{case.minutes}"
            )
        traffic = sum(minutes[m]["messages"] for m in window) / len(window)
        resp_vals = []
        succ_vals = []
        for m in window:
            agg = minutes[m]
            resp_vals.append(
                agg["response_sum_s"] / agg["succeeded"] if agg["succeeded"] else 0.0
            )
            succ_vals.append(
                agg["succeeded"] / agg["issued"] if agg["issued"] else 0.0
            )
        steady = (
            traffic / 1000.0,
            sum(resp_vals) / len(resp_vals),
            sum(succ_vals) / len(succ_vals),
        )

    agent_ids = result.agent_ids
    cut_suspects: Dict[int, float] = {}
    for rec in result.cut_events():
        suspect = int(rec["suspect"])
        t = float(rec["t"])
        if suspect not in cut_suspects or t < cut_suspects[suspect]:
            cut_suspects[suspect] = t

    # JudgmentLog.error_counts semantics: false_negative = distinct good
    # peers ever disconnected as suspects; false_positive = bad peers
    # never disconnected by anyone. Without the defense there are no
    # judgments at all, so both read 0 (the DES contract).
    if case.defense == "ddpolice":
        fn = len([s for s in cut_suspects if s not in agent_ids])
        fp = len([a for a in agent_ids if a not in cut_suspects])
    else:
        fn = fp = 0

    latency: Optional[float] = None
    caught = 0
    if agent_ids:
        attack_start_s = case.attack_start_min * 60.0
        censored = case.minutes * 60.0 - attack_start_s
        samples = []
        for a in sorted(agent_ids):
            if a in cut_suspects:
                caught += 1
                samples.append(max(0.0, cut_suspects[a] - attack_start_s))
            else:
                samples.append(censored)
        latency = sum(samples) / len(samples)

    return CaseResult(
        rows=tuple(rows),
        steady=steady,
        false_negative=fn,
        false_positive=fp,
        online_mean=0.0,
        churn_events=0,
        detection_latency_s=latency,
        caught_attackers=caught,
        total_attackers=len(agent_ids),
    )


def run_live_case(case: Any) -> Any:
    """Run one case as a real swarm (the registered ``live`` task_fn)."""
    swarm = swarm_config_for(case)
    keep_dir = os.environ.get(ENV_OUT_DIR)
    if keep_dir:
        out_dir = Path(keep_dir) / _case_key(case)
        result = Supervisor(swarm, out_dir).run()
    else:
        with tempfile.TemporaryDirectory(prefix="repro-live-") as tmp:
            result = Supervisor(swarm, Path(tmp)).run()
    return case_result_from_swarm(case, result)
