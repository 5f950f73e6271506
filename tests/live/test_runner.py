"""Unit tests for the Case -> swarm adaptation layer (no node processes)."""

import asyncio
import json
from dataclasses import replace

import pytest

from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig, ExchangePolicy
from repro.errors import ConfigError, MetricsError
from repro.experiments.spec import (
    Case,
    WorkloadSpec,
    _des_config,
    network_config,
    topology_config,
)
from repro.faults.plan import CrashRule, FaultPlan
from repro.live.node import LiveNode, NodeConfig
from repro.live.runner import case_result_from_swarm, run_live_case
from repro.live.spec import LiveSpec
from repro.live.supervisor import Supervisor, SwarmResult, swarm_size
from repro.overlay.topology import generate_topology


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
    # 16/400 = 4% density -> 1 agent per 25 nodes.
    assert swarm_size(make_case(n=400, num_agents=16)) == (25, 1)


def test_swarm_below_cap_runs_uncapped():
    # Taken verbatim, not rescaled.
    assert swarm_size(make_case(n=400, live=LiveSpec(n_nodes=500))) == (400, 2)


def test_scaled_agent_count_never_reaches_swarm_size():
    # 399 agents in 400 peers -> proportionally 4 of 4; a pathological
    # density can round up to the whole swarm, which must be clamped so
    # at least one good node exists.
    case = make_case(n=400, num_agents=399, live=LiveSpec(n_nodes=4))
    assert swarm_size(case) == (4, 3)


def test_scaled_agent_count_never_drops_to_zero():
    assert swarm_size(make_case(n=400, num_agents=1)) == (25, 1)


def non_default_case():
    return make_case(
        police=DDPoliceConfig(
            exchange_period_s=30.0,
            q_threshold_qpm=10.0,
            exchange_policy=ExchangePolicy.EVENT_DRIVEN,
        ),
        workload=WorkloadSpec(
            queries_per_minute=3.0, attack_rate_qpm=2000.0, capacity_qpm=400.0
        ),
        topology="random",
        ba_m=2,
    )


def test_workload_and_police_carry_over(tmp_path):
    case = non_default_case()
    supervisor = Supervisor(case, tmp_path)
    nodes = supervisor.node_configs()
    assert [n.node_id for n in nodes] == list(range(25))
    assert all(node.case == case for node in nodes)
    assert {n.node_id for n in nodes if n.agent} == supervisor.agent_ids
    assert len(supervisor.agent_ids) == 1
    # The swarm runs the overlay the des backends build for the case.
    topology = generate_topology(topology_config(case, 25))
    assert topology_config(case, 25).model == "random"
    assert [n.neighbors for n in nodes] == [
        tuple(sorted(topology.neighbors(i))) for i in range(25)
    ]


# ---------------------------------------------------------------------------
# unsupported features are rejected loudly, before any node is spawned
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "overrides",
    [
        {"faults": FaultPlan(crashes=(CrashRule(at_s=60.0, count=1),))},
        {"defense": "naive"},
        {"workload": WorkloadSpec(cheat_strategy="collude")},
        {"trace_path": "trace.jsonl"},
    ],
    ids=["faults", "naive", "collude", "obs"],
)
def test_unsupported_case_features_rejected(overrides):
    with pytest.raises(ConfigError):
        run_live_case(make_case(**overrides))


def test_adaptive_adversary_rejected():
    case = make_case()
    case = replace(case, adaptive=replace(case.adaptive, strategy="pulse"))
    with pytest.raises(ConfigError):
        run_live_case(case)


def started_nodes(case, tmp_path):
    """Every node of the case's swarm, started on a loop that never runs."""
    loop = asyncio.new_event_loop()
    try:
        nodes = [LiveNode(c, loop) for c in Supervisor(case, tmp_path).node_configs()]
        for node in nodes:
            node.start()
    finally:
        loop.close()
    return nodes


def test_only_the_agent_runs_the_case_cheat_strategy_and_attack_rate(tmp_path):
    case = make_case()
    assert case.workload.cheat is CheatStrategy.SILENT
    nodes = started_nodes(case, tmp_path)
    agents = [n for n in nodes if n.node_config.agent]
    assert len(agents) == 1
    for node in nodes:
        if node.node_config.agent:
            assert node.engine.cheat_strategy is CheatStrategy.SILENT
            assert node.agent.config.nominal_rate_qpm == case.workload.attack_rate_qpm
        else:
            assert node.engine.cheat_strategy is CheatStrategy.HONEST
            assert node.agent is None


def test_honest_cheat_strategy_is_fine(tmp_path):
    case = make_case(workload=WorkloadSpec(cheat_strategy="honest"))
    nodes = started_nodes(case, tmp_path)
    assert any(n.node_config.agent for n in nodes)
    assert {n.engine.cheat_strategy for n in nodes} == {CheatStrategy.HONEST}


# ---------------------------------------------------------------------------
# a node's configuration is its case
# ---------------------------------------------------------------------------

def test_node_config_round_trips_through_json(tmp_path):
    for node in Supervisor(non_default_case(), tmp_path).node_configs():
        doc = json.loads(json.dumps(node.to_dict(), sort_keys=True))
        assert NodeConfig.from_dict(doc) == node


def test_node_config_needs_its_own_address():
    with pytest.raises(ConfigError):
        NodeConfig(node_id=3, addresses={0: ("127.0.0.1", 9000)}, neighbors=(),
                   case=make_case())


def test_node_config_rejects_a_case_live_cannot_run(tmp_path):
    # A hand-started node fails on what `repro run --backend live` rejects.
    doc = Supervisor(make_case(), tmp_path).node_configs()[0].to_dict()
    doc["case"]["defense"] = "naive"
    with pytest.raises(ConfigError, match="naive"):
        NodeConfig.from_dict(doc)


def test_live_node_floods_with_the_des_network_config(tmp_path):
    # TTL, seen-cache bound and capacity have one statement: the node is
    # the network of its peer with the config the des run hands its network.
    case = make_case(workload=WorkloadSpec(capacity_qpm=400.0))
    config = Supervisor(case, tmp_path).node_configs()[0]
    loop = asyncio.new_event_loop()
    try:
        node = LiveNode(config, loop)
    finally:
        loop.close()
    assert node.config == network_config(case) == _des_config(case).network
    assert node.peer.processing.rate_per_min == 400.0


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
        minute_records=list(minute_records),
        police_records=list(police_records),
        agent_ids=set(agent_ids),
        crashed=[],
        clean_exits=case.live.n_nodes,
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
    with pytest.raises(MetricsError) as err:
        case_result_from_swarm(case, swarm_result(case, records))
    assert "case-3-k0-none" in str(err.value)
    assert "[1, 2]" in str(err.value)
    assert "3..6" in str(err.value)


def test_minute_without_a_successful_query_has_no_response_time():
    # Minute 3 issued queries and none succeeded: it has no response time,
    # so the steady response is the mean over minutes 2 and 4 alone (as
    # the des backends compute it), not an average with a 0.0 s sample.
    case = make_case(n=2, num_agents=0, defense="none", minutes=4, settle_min=2,
                     live=LiveSpec(n_nodes=2))
    records = [
        minute_rec(node, minute, succeeded=0 if minute == 3 else 8)
        for node in (0, 1)
        for minute in (1, 2, 3, 4)
    ]
    result = case_result_from_swarm(case, swarm_result(case, records))
    traffic_k, response_s, success = result.steady
    assert response_s == 2.0
    assert success == pytest.approx((0.8 + 0.0 + 0.8) / 3)
    assert result.rows[2] == (3, 0.0)


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
