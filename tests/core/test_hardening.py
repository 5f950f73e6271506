"""Robustness extensions of the evidence protocol (off by default).

Covers: investigation re-requests of missing Neighbor_Traffic reports,
the report quorum with window extension and abstention, neighbor-list
retransmission, stale list/report rejection, the stopped-engine guards,
and the cheaters-don't-benefit invariant for retries.
"""

import math

import pytest

from repro.attack.agent import AgentConfig, DDoSAgent
from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig
from repro.core.decision import Outcome
from repro.core.investigation import Investigation
from repro.core.indicators import NeighborReport
from repro.core.police import deploy_ddpolice
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultWindow, LossRule
from repro.overlay.ids import PeerId
from repro.overlay.message import MessageKind, NeighborListMessage, NeighborTrafficMessage
from tests.conftest import make_network

#: Suspect 0 with buddy group {1, 2, 3} (tree; same shape as test_police).
TOPOLOGY = {0: {1, 2, 3}, 1: {4, 5}, 2: {6, 7}, 3: {8, 9}}

FAST = DDPoliceConfig(exchange_period_s=30.0)

TRAFFIC_ONLY = frozenset({MessageKind.NEIGHBOR_TRAFFIC})


def _network_with_directories(config, seed, *, loss_plan=None, **deploy_kwargs):
    """Deploy engines on TOPOLOGY and run long enough to exchange lists."""
    sim, net = make_network(TOPOLOGY, seed=seed)
    engines = deploy_ddpolice(net, config, **deploy_kwargs)
    if loss_plan is not None:
        FaultInjector(loss_plan, net.rngs).attach(net)
    sim.run(until=70.0)
    return sim, net, engines


# ---------------------------------------------------------------------------
# config knobs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"report_retry_limit": -1},
        {"report_retry_backoff_s": 0.0},
        {"report_quorum": 1.5},
        {"report_quorum": -0.1},
        {"quorum_extension_limit": -1},
        {"exchange_retransmit_limit": -1},
        {"exchange_retransmit_timeout_s": 0.0},
    ],
)
def test_invalid_hardening_knobs_rejected(kwargs):
    with pytest.raises(ConfigError):
        DDPoliceConfig(**kwargs)


def test_with_hardening_flips_only_the_robustness_knobs():
    base = DDPoliceConfig()
    hardened = base.with_hardening()
    assert hardened.report_retry_limit == 3
    assert hardened.report_quorum == 0.5
    assert hardened.exchange_retransmit_limit == 1
    # Paper-literal protocol constants stay untouched.
    assert hardened.cut_threshold == base.cut_threshold
    assert hardened.warning_threshold_qpm == base.warning_threshold_qpm
    assert hardened.assume_zero_on_missing == base.assume_zero_on_missing


# ---------------------------------------------------------------------------
# investigation-level quorum mechanics
# ---------------------------------------------------------------------------

def test_investigation_quorum_and_abstention():
    inv = Investigation(
        observer="a",
        suspect="b",
        started_at=0.0,
        expected_members=frozenset({"c", "d"}),
        own_out_to_suspect=0,
        own_in_from_suspect=0,
    )
    assert inv.decide(DDPoliceConfig(report_quorum=0.1)).outcome is Outcome.UNDECIDED
    assert inv.add_report("c", NeighborReport(member="c", outgoing=1, incoming=2))
    abstained = inv.decide(DDPoliceConfig(report_quorum=0.75))
    assert abstained.outcome is Outcome.UNDECIDED and not abstained.convicted
    assert abstained.reason == "quorum_unmet"
    assert (abstained.expected, abstained.answered) == (2, 1)
    assert math.isnan(abstained.g) and math.isnan(abstained.s)
    # An undecided investigation stays open (the engine may extend the
    # window): half the reports meet a 0.5 quorum, which settles it ...
    assert inv.verdict is None
    assert inv.decide(DDPoliceConfig(report_quorum=0.5)).outcome is Outcome.CLEARED
    # ... and a settled investigation accepts nothing further.
    assert not inv.add_report("d", NeighborReport(member="d", outgoing=0, incoming=0))


def test_trivial_investigation_always_meets_quorum():
    inv = Investigation(
        observer="a",
        suspect="b",
        started_at=0.0,
        expected_members=frozenset(),
        own_out_to_suspect=0,
        own_in_from_suspect=0,
    )
    assert inv.decide(DDPoliceConfig(report_quorum=1.0)).outcome is Outcome.CLEARED


# ---------------------------------------------------------------------------
# report re-requests
# ---------------------------------------------------------------------------

def _open_with_first_round_lost(config, seed=11):
    # Every Neighbor_Traffic sent before t=70.5 is lost; the observer
    # opens at t=70, so the initial report burst vanishes and only
    # retries (first one at t=71) can reach the buddy group.
    plan = FaultPlan(loss=(LossRule(1.0, FaultWindow(0.0, 70.5), kinds=TRAFFIC_ONLY),))
    sim, net, engines = _network_with_directories(config, seed, loss_plan=plan)
    observer = engines[PeerId(1)]
    observer._open_investigation(PeerId(0))
    inv = observer._investigations[PeerId(0)]
    assert inv.expected_members == frozenset({PeerId(2), PeerId(3)})
    sim.run(until=73.0)
    return observer, inv, engines


def test_retry_recovers_reports_lost_in_flight():
    hardened = FAST.with_hardening(retry_limit=2, retry_backoff_s=1.0)
    observer, inv, _ = _open_with_first_round_lost(hardened)
    assert observer.report_retries_sent >= 1
    assert set(inv.reports) == {PeerId(2), PeerId(3)}


def test_paper_literal_rule_keeps_the_lost_reports_lost():
    observer, inv, _ = _open_with_first_round_lost(FAST)
    assert observer.report_retries_sent == 0
    assert inv.reports == {}


def test_retry_does_not_recruit_new_judges():
    # Members answering a re-request must not open their own
    # investigations: a poll is not an alarm (each extra judge would be a
    # fresh chance to misjudge under the very loss being mitigated).
    hardened = FAST.with_hardening(retry_limit=2, retry_backoff_s=1.0)
    _, _, engines = _open_with_first_round_lost(hardened)
    for member in (PeerId(2), PeerId(3)):
        assert PeerId(0) not in engines[member]._investigations


def test_silent_cheater_does_not_answer_retries():
    sim, net = make_network(TOPOLOGY, seed=15)
    engines = deploy_ddpolice(
        net, FAST, bad_peers={PeerId(2)}, bad_strategy=CheatStrategy.SILENT
    )
    cheater = engines[PeerId(2)]
    cheater._send_reports(PeerId(0), {PeerId(1)}, is_retry=True, force=True)
    assert cheater.reports_sent == 0


# ---------------------------------------------------------------------------
# quorum: extension then abstention
# ---------------------------------------------------------------------------

def test_unmet_quorum_extends_once_then_abstains():
    config = DDPoliceConfig(
        exchange_period_s=30.0, report_quorum=1.0, quorum_extension_limit=1
    )
    # All reports lost forever: the quorum can never be met.
    plan = FaultPlan(loss=(LossRule(1.0, kinds=TRAFFIC_ONLY),))
    sim, net, engines = _network_with_directories(config, seed=16, loss_plan=plan)
    observer = engines[PeerId(1)]
    observer._open_investigation(PeerId(0))
    sim.run(until=76.0)  # past the first collection window (70 + 5)
    assert observer.window_extensions_used == 1
    assert observer.quorum_abstentions == 0
    assert PeerId(0) in observer._investigations  # still collecting
    sim.run(until=81.0)  # past the extended window
    assert observer.quorum_abstentions == 1
    assert PeerId(0) not in observer._investigations
    # The suspect is NOT disconnected, and the abstention is on record
    # with NaN indicators (no claim about the suspect's rate was made).
    assert PeerId(0) in net.peers[PeerId(1)].neighbors
    abstained = [
        j
        for j in observer.judgments.judgments
        if j.suspect == PeerId(0) and j.reason == "quorum_unmet"
    ]
    assert len(abstained) == 1
    assert not abstained[0].disconnected
    assert math.isnan(abstained[0].g_value)


# ---------------------------------------------------------------------------
# idempotency: stale reports and stale lists
# ---------------------------------------------------------------------------

def _traffic(net, source, suspect, ts, out_q, in_q=0, is_retry=False):
    return NeighborTrafficMessage(
        guid=net.guid_factory.new(),
        ttl=1,
        hops=0,
        source=source,
        suspect=suspect,
        timestamp=ts,
        outgoing_queries=out_q,
        incoming_queries=in_q,
        is_retry=is_retry,
    )


def test_reordered_stale_report_is_rejected():
    sim, net, engines = _network_with_directories(FAST, seed=17)
    observer = engines[PeerId(1)]
    observer._open_investigation(PeerId(0))
    inv = observer._investigations[PeerId(0)]
    observer._on_neighbor_traffic(PeerId(2), _traffic(net, PeerId(2), PeerId(0), 100, 7))
    # A delayed older report arrives after the fresher one: rejected.
    observer._on_neighbor_traffic(PeerId(2), _traffic(net, PeerId(2), PeerId(0), 50, 0))
    assert observer.stale_reports_rejected == 1
    assert inv.reports[PeerId(2)].outgoing == 7
    # Re-delivery of the same report (equal timestamp) is idempotent.
    observer._on_neighbor_traffic(PeerId(2), _traffic(net, PeerId(2), PeerId(0), 100, 7))
    assert observer.stale_reports_rejected == 1
    assert inv.reports[PeerId(2)].outgoing == 7


def _list_msg(net, sender, neighbors, sent_at):
    return NeighborListMessage(
        guid=net.guid_factory.new(),
        ttl=1,
        hops=0,
        sender=sender,
        neighbors=frozenset(neighbors),
        sent_at=sent_at,
    )


def test_reordered_stale_list_is_rejected():
    sim, net = make_network(TOPOLOGY, seed=18)
    engines = deploy_ddpolice(net, FAST)
    observer = engines[PeerId(1)]
    fresh = {PeerId(1), PeerId(2), PeerId(3)}
    observer._on_neighbor_list(PeerId(0), _list_msg(net, PeerId(0), fresh, sent_at=100.0))
    # An older list delivered late must not roll the directory back.
    observer._on_neighbor_list(
        PeerId(0), _list_msg(net, PeerId(0), {PeerId(1)}, sent_at=50.0)
    )
    assert observer.stale_lists_rejected == 1
    assert observer.directory.known_neighbors(PeerId(0)) == fresh


# ---------------------------------------------------------------------------
# neighbor-list retransmission
# ---------------------------------------------------------------------------

def test_list_retransmitted_to_a_silent_neighbor():
    config = DDPoliceConfig(
        exchange_period_s=30.0,
        exchange_retransmit_limit=1,
        exchange_retransmit_timeout_s=5.0,
    )
    sim, net = make_network({0: {1}}, seed=19)
    engines = deploy_ddpolice(net, config)
    engines[PeerId(1)].stop()  # peer 1 never sends a list back
    sim.run(until=45.0)
    assert engines[PeerId(0)].list_retransmits_sent >= 1


def test_hearing_a_list_acks_the_pending_retransmission():
    config = DDPoliceConfig(exchange_period_s=30.0, exchange_retransmit_limit=1)
    sim, net = make_network({0: {1}}, seed=20)
    engines = deploy_ddpolice(net, config)
    e0 = engines[PeerId(0)]
    e0._last_list_from[PeerId(1)] = 10.0  # heard from 1 after our send at 5.0
    sent_before = e0.lists_sent
    e0._maybe_retransmit_list(PeerId(1), 5.0, 1)
    assert e0.lists_sent == sent_before
    assert e0.list_retransmits_sent == 0


# ---------------------------------------------------------------------------
# stopped-engine guards
# ---------------------------------------------------------------------------

def test_stopped_engine_does_not_conclude():
    sim, net, engines = _network_with_directories(FAST, seed=21)
    observer = engines[PeerId(1)]
    observer._open_investigation(PeerId(0))
    recorded_before = len(observer.judgments.judgments)
    observer.stop()
    observer._conclude(PeerId(0))
    assert observer._investigations[PeerId(0)].verdict is None
    assert len(observer.judgments.judgments) == recorded_before


def test_stopped_engine_ignores_minute_rollover():
    sim, net, engines = _network_with_directories(FAST, seed=21)
    observer = engines[PeerId(2)]
    observer.stop()
    # A rate far above the warning threshold would normally open an
    # investigation on the next minute tick.
    observer.peer.last_minute_in = {PeerId(0): 10_000}
    observer._on_minute(2, 120.0)
    assert PeerId(0) not in observer._investigations


# ---------------------------------------------------------------------------
# defaults stay paper-literal
# ---------------------------------------------------------------------------

def test_hardening_counters_inert_under_default_config():
    sim, net = make_network(TOPOLOGY, seed=1)
    engines = deploy_ddpolice(
        net, FAST, bad_peers={PeerId(0)}, bad_strategy=CheatStrategy.HONEST
    )
    agent = DDoSAgent(
        sim, net, PeerId(0), AgentConfig(nominal_rate_qpm=3000.0, per_neighbor=True)
    )
    agent.start()
    sim.run(until=200.0)
    for engine in engines.values():
        assert engine.report_retries_sent == 0
        assert engine.window_extensions_used == 0
        assert engine.quorum_abstentions == 0
        assert engine.list_retransmits_sent == 0
        assert engine.stale_lists_rejected == 0
        assert engine.stale_reports_rejected == 0
