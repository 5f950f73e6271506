"""End-to-end DES scenario: churn + attack + DD-POLICE, full protocol.

The slowest, most complete test in the suite: every message is real,
peers churn, the attacker floods, and the defense runs its actual
exchange/monitor/recognize loop.

S(t) here is the origin-aware (good-only) metric, so the attack can no
longer "degrade" it just by stuffing its own unanswerable queries into
the denominator.  The degradation asserted below is genuine service
loss: processing capacity is low enough (400 qpm) that the flood
saturates peers and *user* queries get dropped.  Because churn makes
unpaired pre/post comparisons noisy, every assertion is a paired
comparison against a same-seed no-attack baseline -- identical RNG
streams mean the runs are event-for-event identical until the attack
starts (the pre-attack equality test pins that down).
"""

from dataclasses import replace

import pytest

from repro.churn.lifetimes import LifetimeConfig
from repro.churn.process import ChurnConfig
from repro.core.config import DDPoliceConfig
from repro.experiments.runner import DESConfig, run_des_experiment
from repro.overlay.network import NetworkConfig
from repro.overlay.topology import TopologyConfig
from repro.workload.generator import WorkloadConfig

SCENARIO = DESConfig(
    n=60,
    duration_s=420.0,
    seed=9,
    topology=TopologyConfig(n=60, ba_m=1, seed=9),  # tree: clean semantics
    # Low processing capacity so the flood genuinely saturates peers and
    # drops user queries -- real damage, not denominator pollution.
    network=NetworkConfig(processing_qpm_good=400.0),
    workload=WorkloadConfig(queries_per_minute=2.0, seed=9),
    churn=ChurnConfig(
        lifetime=LifetimeConfig(family="exponential", mean_s=240.0),
        offtime=LifetimeConfig(family="exponential", mean_s=120.0),
        enabled=True,
        seed=9,
    ),
    num_agents=3,
    attack_start_s=120.0,
    attack_rate_qpm=8_000.0,
    police=DDPoliceConfig(exchange_period_s=30.0),
)

# attack starts at minute 2; give the flood a window to bite and DD-POLICE
# time to run its first exchange/judge rounds before measuring the tail
TAIL_FROM_MINUTE = 4


def _mean_success(run, lo, hi=None):
    ms = [
        m
        for m in run.accounting.rows
        if m.minute >= lo and (hi is None or m.minute <= hi) and m.queries_issued
    ]
    assert ms
    return sum(m.success_rate for m in ms) / len(ms)


@pytest.fixture(scope="module")
def runs():
    baseline = run_des_experiment(replace(SCENARIO, num_agents=0))
    undefended = run_des_experiment(SCENARIO)
    defended = run_des_experiment(replace(SCENARIO, defense="ddpolice"))
    return baseline, undefended, defended


@pytest.mark.slow
def test_pre_attack_minutes_match_clean_baseline(runs):
    baseline, undefended, _ = runs
    # Same seed, and attack origins register only at attack start: the
    # first two minutes must be *identical*, not merely close.
    pre_base = [m for m in baseline.accounting.rows if m.minute <= 2]
    pre_atk = [m for m in undefended.accounting.rows if m.minute <= 2]
    assert [m.queries_issued for m in pre_base] == [
        m.queries_issued for m in pre_atk
    ]
    assert [m.success_rate for m in pre_base] == [
        m.success_rate for m in pre_atk
    ]
    assert all(m.attack_queries_issued == 0 for m in pre_atk)


@pytest.mark.slow
def test_attack_under_churn_degrades_service(runs):
    baseline, undefended, _ = runs
    base_tail = _mean_success(baseline, TAIL_FROM_MINUTE)
    atk_tail = _mean_success(undefended, TAIL_FROM_MINUTE)
    # observed: baseline ~0.92 vs attacked ~0.77; require a real gap, not
    # churn noise
    assert atk_tail < base_tail - 0.05


@pytest.mark.slow
def test_good_metric_diverges_from_all_traffic_under_attack(runs):
    _, undefended, _ = runs
    post = [
        m
        for m in undefended.accounting.rows
        if m.minute >= TAIL_FROM_MINUTE and m.attack_queries_issued
    ]
    assert post
    # The polluted (pre-fix) metric collapses toward zero because the
    # flood's bogus queries dominate the denominator; the good-only
    # metric stays in service-quality territory.
    for m in post:
        assert m.all_success_rate < m.success_rate
    all_tail = sum(m.all_success_rate for m in post) / len(post)
    good_tail = sum(m.success_rate for m in post) / len(post)
    assert all_tail < 0.2 < good_tail


@pytest.mark.slow
def test_ddpolice_expels_attackers_under_churn(runs):
    _, _, defended = runs
    assert defended.judgments is not None
    cut = defended.judgments.disconnected_suspects()
    # at least one attacker caught despite churn; ideally all three
    assert cut & defended.bad_peers


@pytest.mark.slow
def test_ddpolice_improves_service_under_attack(runs):
    _, undefended, defended = runs
    atk_tail = _mean_success(undefended, TAIL_FROM_MINUTE)
    dfd_tail = _mean_success(defended, TAIL_FROM_MINUTE)
    # observed: defended ~0.84 vs undefended ~0.77
    assert dfd_tail > atk_tail


@pytest.mark.slow
def test_protocol_overhead_is_bounded(runs):
    _, _, defended = runs
    stats = defended.network.stats
    # control traffic (lists, reports, pings) stays a small fraction of
    # query traffic even with the defense fully active and capacity
    # drops suppressing query forwarding
    assert stats.control_messages < 0.3 * stats.query_messages
