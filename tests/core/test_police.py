"""Integration tests for the DES DD-POLICE engine (Section 3 end to end)."""

import math

import pytest

from repro.attack.agent import AgentConfig, DDoSAgent
from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig, ExchangePolicy
from repro.core.police import deploy_ddpolice
from repro.overlay.ids import PeerId
from tests.conftest import make_network

#: attacker(0) with buddy group {1,2,3}; tree topology so attack queries
#: cannot echo back to the attacker through alternate paths (the echo
#: effect is covered by test_cyclic_echo_neutralizes_indicator below).
TOPOLOGY = {0: {1, 2, 3}, 1: {4, 5}, 2: {6, 7}, 3: {8, 9}}

FAST_EXCHANGE = DDPoliceConfig(exchange_period_s=30.0)


def attack_run(
    *,
    rate_qpm=3000.0,
    config=FAST_EXCHANGE,
    strategy=CheatStrategy.SILENT,
    duration_s=200.0,
    seed=1,
):
    sim, net = make_network(TOPOLOGY, seed=seed)
    bad = {PeerId(0)}
    engines = deploy_ddpolice(net, config, bad_peers=bad, bad_strategy=strategy)
    agent = DDoSAgent(
        sim, net, PeerId(0), AgentConfig(nominal_rate_qpm=rate_qpm, per_neighbor=True)
    )
    agent.start()
    sim.run(until=duration_s)
    return sim, net, engines, agent


def test_attacker_detected_and_disconnected():
    sim, net, engines, agent = attack_run()
    log = engines[PeerId(1)].judgments
    assert PeerId(0) in log.disconnected_suspects()
    # all of the attacker's neighbors eventually cut it
    assert net.neighbors_of(PeerId(0)) == set()


def test_detection_is_fast():
    """'DD-POLICE can help peers disconnect with DDoS agents in a very
    short time period after attacks are launched' -- within ~2 windows."""
    sim, net, engines, agent = attack_run()
    log = engines[PeerId(1)].judgments
    t = log.first_disconnect_time(PeerId(0))
    assert t is not None and t <= 130.0  # first minute window + decision


def test_good_peers_not_disconnected_with_honest_reports():
    """Section 3.4's default assumption: 'we assume that peer j will not
    cheat in delivering the Neighbor_Traffic messages' -- then only the
    attacker is cut."""
    sim, net, engines, agent = attack_run(strategy=CheatStrategy.HONEST)
    log = engines[PeerId(1)].judgments
    cut = log.disconnected_suspects()
    assert cut == {PeerId(0)}, f"good peers wrongly cut: {cut - {PeerId(0)}}"


def test_silent_attacker_gets_its_forwarders_cut_but_attack_isolated():
    """Section 3.4 cases 2/3: refusing to report makes the forwarding
    neighbors look like issuers to *their* buddy groups, so they may be
    wrongly disconnected -- 'making peer m be wrongly disconnected ...
    will lead to peer j's attack queries being blocked', which is why
    cheating buys the attacker nothing."""
    sim, net, engines, agent = attack_run(strategy=CheatStrategy.SILENT)
    log = engines[PeerId(1)].judgments
    cut = log.disconnected_suspects()
    assert PeerId(0) in cut  # the attacker still falls
    # the attack is isolated: the attacker has no neighbors left
    assert net.neighbors_of(PeerId(0)) == set()


def test_silent_buddy_without_assume_zero_is_no_claim_not_a_crash():
    """``assume_zero_on_missing=False``: an observer whose buddy group holds
    the SILENT attacker makes no claim about the forwarder it suspects --
    a recorded, non-disconnecting judgment with NaN indicators. (It used
    to escape ``Simulator.run`` as a ProtocolError.)"""
    config = DDPoliceConfig(exchange_period_s=30.0, assume_zero_on_missing=False)
    sim, net, engines, agent = attack_run(config=config)
    log = engines[PeerId(1)].judgments
    no_claim = [j for j in log.judgments if j.reason == "report_missing"]
    assert no_claim
    for j in no_claim:
        assert not j.disconnected
        assert math.isnan(j.g_value) and math.isnan(j.s_value)
        assert j.suspect in {PeerId(1), PeerId(2), PeerId(3)}  # 0's forwarders
    # The attacker's own group ({1, 2, 3}) is fully honest: still convicted.
    assert log.disconnected_suspects() == {PeerId(0)}


def test_no_attack_no_disconnects():
    sim, net = make_network(TOPOLOGY, seed=2)
    engines = deploy_ddpolice(net, FAST_EXCHANGE)
    from repro.workload.generator import QueryWorkload, WorkloadConfig

    wl = QueryWorkload(sim, net, WorkloadConfig(queries_per_minute=2.0, seed=2))
    wl.start()
    sim.run(until=240.0)
    log = engines[PeerId(0)].judgments
    assert log.disconnected_suspects() == set()


def test_below_warning_threshold_not_investigated():
    sim, net, engines, agent = attack_run(rate_qpm=900.0)
    # 900/min split over 3 neighbors = 300/min/edge < 500 warning
    log = engines[PeerId(1)].judgments
    assert PeerId(0) not in log.disconnected_suspects()


@pytest.mark.parametrize(
    "strategy",
    [CheatStrategy.HONEST, CheatStrategy.INFLATE, CheatStrategy.DEFLATE, CheatStrategy.SILENT],
)
def test_cheating_does_not_save_the_attacker(strategy):
    """Section 3.4: 'cheating or not reporting will do nothing good for
    peer j' -- it is disconnected under every reporting strategy."""
    sim, net, engines, agent = attack_run(strategy=strategy)
    log = engines[PeerId(1)].judgments
    assert PeerId(0) in log.disconnected_suspects()
    assert net.neighbors_of(PeerId(0)) == set()


def test_reports_flow_between_members():
    sim, net, engines, agent = attack_run(strategy=CheatStrategy.HONEST)
    member_engines = [engines[PeerId(i)] for i in (1, 2, 3)]
    assert any(e.reports_sent > 0 for e in member_engines)
    assert any(e.reports_received > 0 for e in member_engines)


def test_neighbor_lists_exchanged_periodically():
    sim, net = make_network(TOPOLOGY, seed=3)
    engines = deploy_ddpolice(net, FAST_EXCHANGE)
    sim.run(until=120.0)
    e1 = engines[PeerId(1)]
    assert e1.lists_sent > 0
    # peer 1 knows peer 0's neighbors from the exchange
    assert e1.directory.known_neighbors(PeerId(0)) == {PeerId(1), PeerId(2), PeerId(3)}


def test_event_driven_exchange_announces_changes():
    cfg = DDPoliceConfig(exchange_policy=ExchangePolicy.EVENT_DRIVEN)
    sim, net = make_network(TOPOLOGY, seed=4)
    engines = deploy_ddpolice(net, cfg)
    sim.run(until=10.0)
    baseline = engines[PeerId(1)].lists_sent
    net.connect(PeerId(1), PeerId(5))
    sim.run(until=20.0)
    assert engines[PeerId(1)].lists_sent > baseline


def test_cyclic_echo_neutralizes_indicator():
    """Known limitation of Definition 2.1, reproduced deliberately.

    In a small cyclic overlay, every distinct attack query loops back to
    the attacker along alternate paths. Those echoes count as inflow
    *into* the suspect, and the (k-1)-weighted subtraction then masks the
    issued volume entirely -- the attacker evades detection. At the
    paper's scale the echoes are attenuated by TTL expiry and congestion
    drops, which is why detection still works there (see the fluid-engine
    experiments).
    """
    cyclic = {0: {1, 2, 3}, 1: {4}, 2: {4, 5}, 3: {5}, 4: {5}}
    sim, net = make_network(cyclic, seed=1)
    engines = deploy_ddpolice(
        net, FAST_EXCHANGE, bad_peers={PeerId(0)}, bad_strategy=CheatStrategy.HONEST
    )
    agent = DDoSAgent(
        sim, net, PeerId(0), AgentConfig(nominal_rate_qpm=3000.0, per_neighbor=True)
    )
    agent.start()
    sim.run(until=200.0)
    log = engines[PeerId(1)].judgments
    # echoes drive g strongly negative; the attacker is never cut
    assert PeerId(0) not in log.disconnected_suspects()
    negatives = [
        j.g_value for j in log.judgments if j.suspect == PeerId(0)
    ]
    assert negatives and all(g < 0 for g in negatives)


@pytest.mark.parametrize("policy", list(ExchangePolicy), ids=lambda p: p.value)
def test_engine_stop_halts_exchange(policy):
    """A stopped engine sends no list: not from its periodic task, and not
    from what the event-driven policy leaves armed after ``stop()`` -- the
    startup announcement and the connect/disconnect listeners (a draining
    ``LiveNode`` stops its engine, then loses its neighbors one by one)."""
    sim, net = make_network(TOPOLOGY, seed=5)
    config = DDPoliceConfig(exchange_period_s=30.0, exchange_policy=policy)
    engines = deploy_ddpolice(net, config)
    engines[PeerId(0)].stop()
    sim.run(until=65.0)
    assert engines[PeerId(0)].lists_sent == 0
    net.connect(PeerId(0), PeerId(4))
    net.disconnect(PeerId(0), PeerId(1))
    sim.run(until=130.0)
    assert engines[PeerId(0)].lists_sent == 0
    assert engines[PeerId(4)].lists_sent > 0  # the others carry on
