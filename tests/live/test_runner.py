"""Unit tests for the Case -> swarm adaptation layer (no sockets)."""

from dataclasses import replace

import pytest

from repro.core.config import DDPoliceConfig
from repro.errors import ConfigError
from repro.experiments.spec import Case, WorkloadSpec
from repro.faults.plan import CrashRule, FaultPlan
from repro.live.runner import case_result_from_swarm, swarm_config_for
from repro.live.spec import LiveSpec
from repro.live.supervisor import SwarmResult


def make_case(**overrides):
    base = dict(
        n=400,
        minutes=6,
        seed=3,
        num_agents=2,
        attack_start_min=1,
        defense="ddpolice",
        settle_min=3,
        live=LiveSpec(n_nodes=25, minute_s=0.5),
    )
    base.update(overrides)
    return Case(**base)


# ---------------------------------------------------------------------------
# scale adaptation
# ---------------------------------------------------------------------------

def test_swarm_caps_nodes_and_scales_agents_proportionally():
    cfg = swarm_config_for(make_case(n=400, num_agents=16))
    assert cfg.n_nodes == 25
    # 16/400 = 4% density -> 1 agent per 25 nodes.
    assert cfg.num_agents == 1
    assert cfg.minute_s == 0.5


def test_swarm_below_cap_runs_uncapped():
    cfg = swarm_config_for(make_case(n=400, live=LiveSpec(n_nodes=500)))
    assert cfg.n_nodes == 400
    assert cfg.num_agents == 2  # taken verbatim, not rescaled


def test_scaled_agent_count_never_reaches_swarm_size():
    # 300 agents in 400 peers -> proportionally ~19 of 25; a pathological
    # density can round up to the whole swarm, which must be clamped so
    # at least one good node exists.
    cfg = swarm_config_for(make_case(n=400, num_agents=399, live=LiveSpec(n_nodes=4)))
    assert cfg.num_agents == 3


def test_scaled_agent_count_never_drops_to_zero():
    cfg = swarm_config_for(make_case(n=400, num_agents=1))
    assert cfg.num_agents == 1


def test_workload_and_police_carry_over():
    police = DDPoliceConfig(exchange_period_s=30.0, q_threshold_qpm=10.0)
    case = make_case(
        police=police,
        workload=WorkloadSpec(
            queries_per_minute=3.0, attack_rate_qpm=2000.0, capacity_qpm=400.0
        ),
        topology="random",
        ba_m=2,
    )
    cfg = swarm_config_for(case)
    assert cfg.police == police
    assert cfg.queries_per_minute == 3.0
    assert cfg.attack_rate_qpm == 2000.0
    assert cfg.capacity_qpm == 400.0
    assert cfg.topology_model == "random"
    assert cfg.ba_m == 2


# ---------------------------------------------------------------------------
# unsupported features are rejected loudly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "overrides",
    [
        {"faults": FaultPlan(crashes=(CrashRule(at_s=60.0, count=1),))},
        {"defense": "traceback"},
        {"workload": WorkloadSpec(cheat_strategy="collude")},
        {"trace_path": "trace.jsonl"},
    ],
    ids=["faults", "traceback", "collude", "obs"],
)
def test_unsupported_case_features_rejected(overrides):
    with pytest.raises(ConfigError):
        swarm_config_for(make_case(**overrides))


def test_adaptive_adversary_rejected():
    case = make_case()
    case = replace(case, adaptive=replace(case.adaptive, strategy="pulse"))
    with pytest.raises(ConfigError):
        swarm_config_for(case)


def test_honest_cheat_strategy_is_fine():
    cfg = swarm_config_for(
        make_case(workload=WorkloadSpec(cheat_strategy="honest"))
    )
    assert cfg.cheat_strategy == "honest"


# ---------------------------------------------------------------------------
# CaseResult extraction
# ---------------------------------------------------------------------------

def minute_rec(node, minute, *, issued=10, succeeded=8, sent=100, agent=0):
    return {
        "kind": "live.minute",
        "t": minute * 60.0,
        "node": node,
        "minute": minute,
        "agent": agent,
        "issued": issued,
        "succeeded": succeeded,
        "response_sum_s": succeeded * 2.0,
        "sent": sent,
    }


def swarm_result(case, minute_records, police_records=(), agent_ids=frozenset()):
    return SwarmResult(
        config=swarm_config_for(case),
        minute_records=list(minute_records),
        police_records=list(police_records),
        agent_ids=set(agent_ids),
        crashed=[],
        clean_exits=case.live.n_nodes,
        duration_s=1.0,
    )


def test_rows_and_steady_from_minute_records():
    case = make_case(n=2, num_agents=0, defense="none", minutes=3, settle_min=2,
                     live=LiveSpec(n_nodes=2))
    records = [
        minute_rec(node, minute)
        for node in (0, 1)
        for minute in (1, 2, 3)
    ]
    result = case_result_from_swarm(case, swarm_result(case, records))
    assert result.rows == ((1.0, 0.8), (2.0, 0.8), (3.0, 0.8))  # minutes
    traffic_k, response_s, success = result.steady
    assert traffic_k == pytest.approx(0.2)   # 200 msgs/min over 2 nodes
    assert response_s == pytest.approx(2.0)
    assert success == pytest.approx(0.8)


def test_empty_steady_window_is_an_error_not_three_zeros():
    # The swarm died (or was cut short) before the settle minute: no
    # reported minute falls in [settle_min, minutes].
    case = make_case(n=2, num_agents=0, defense="none", minutes=6, settle_min=3,
                     live=LiveSpec(n_nodes=2))
    records = [minute_rec(node, minute) for node in (0, 1) for minute in (1, 2)]
    with pytest.raises(ConfigError) as err:
        case_result_from_swarm(case, swarm_result(case, records))
    assert "case-3-k0-none" in str(err.value)
    assert "[1, 2]" in str(err.value)
    assert "3..6" in str(err.value)


def test_agent_workload_excluded_after_attack_starts():
    case = make_case(n=2, num_agents=1, defense="none", minutes=2,
                     attack_start_min=1, settle_min=None, live=LiveSpec(n_nodes=2))
    records = [
        minute_rec(0, 1, issued=10, succeeded=10),
        minute_rec(1, 1, issued=10, succeeded=0, agent=1),
        minute_rec(0, 2, issued=10, succeeded=10),
        minute_rec(1, 2, issued=10, succeeded=0, agent=1),
    ]
    result = case_result_from_swarm(
        case, swarm_result(case, records, agent_ids={1})
    )
    # Minute 1 (the attack minute itself) still counts the agent's good
    # workload; from minute 2 on only the good node's queries count.
    assert result.rows == ((1.0, 0.5), (2.0, 1.0))


def test_detection_latency_and_error_counts():
    case = make_case(n=4, num_agents=2, minutes=6, attack_start_min=1,
                     settle_min=None, live=LiveSpec(n_nodes=4))
    cut = {"kind": "police.cut", "t": 150.0, "observer": 0, "suspect": 3,
           "reason": "ddos"}
    result = case_result_from_swarm(
        case,
        swarm_result(case, [minute_rec(0, 1)], police_records=[cut],
                     agent_ids={2, 3}),
    )
    # Agent 3 cut at t=150 (90 s after the minute-1 attack start); agent 2
    # evaded for the full remaining run (censored at 300 s).
    assert result.caught_attackers == 1
    assert result.total_attackers == 2
    assert result.detection_latency_s == pytest.approx((90.0 + 300.0) / 2.0)
    assert result.false_positive == 1   # agent 2 never cut
    assert result.false_negative == 0   # no good peer cut


def test_no_defense_reports_zero_error_counts():
    case = make_case(n=4, num_agents=2, defense="none", minutes=6,
                     attack_start_min=1, settle_min=None, live=LiveSpec(n_nodes=4))
    result = case_result_from_swarm(
        case, swarm_result(case, [minute_rec(0, 1)], agent_ids={2, 3})
    )
    assert result.false_negative == 0
    assert result.false_positive == 0
    assert result.caught_attackers == 0
