"""Unit tests for the DDoS agent."""

import pytest

from repro.attack.agent import AgentConfig, DDoSAgent
from repro.errors import ConfigError
from repro.overlay.ids import PeerId
from tests.conftest import make_network

STAR = {0: {1, 2, 3, 4}}


def make_agent(rate=600.0, link_cap=float("inf"), seed=1):
    sim, net = make_network(STAR, seed=seed)
    cfg = AgentConfig(nominal_rate_qpm=rate, link_capacity_qpm=link_cap)
    agent = DDoSAgent(sim, net, PeerId(0), cfg)
    return sim, net, agent


def test_rate_law_effective_rate():
    """Q_d = min(20,000, link capacity) -- Section 3.5."""
    assert AgentConfig(nominal_rate_qpm=20_000, link_capacity_qpm=3_000).effective_rate_qpm == 3_000
    assert AgentConfig(nominal_rate_qpm=20_000, link_capacity_qpm=90_000).effective_rate_qpm == 20_000


def test_agent_sends_at_configured_rate():
    sim, net, agent = make_agent(rate=600.0)
    agent.start()
    sim.run(until=60.0)
    assert agent.queries_sent == pytest.approx(600, abs=15)


def test_per_neighbor_mode_spreads_distinct_queries():
    sim, net, agent = make_agent(rate=240.0)
    agent.start()
    sim.run(until=60.0)
    received = [net.peers[PeerId(i)].counters.queries_received for i in (1, 2, 3, 4)]
    assert all(r > 0 for r in received)
    # distinct queries: no duplicates dropped anywhere
    assert all(
        net.peers[PeerId(i)].counters.queries_dropped_duplicate == 0 for i in (1, 2, 3, 4)
    )
    assert sum(received) == pytest.approx(agent.queries_sent, abs=10)


def test_link_capacity_caps_rate():
    sim, net, agent = make_agent(rate=6000.0, link_cap=600.0)
    agent.start()
    sim.run(until=60.0)
    assert agent.queries_sent == pytest.approx(600, abs=15)


def test_stop_halts_attack():
    sim, net, agent = make_agent(rate=600.0)
    agent.start()
    sim.run(until=10.0)
    sent = agent.queries_sent
    agent.stop()
    sim.run(until=60.0)
    assert agent.queries_sent == sent


def test_offline_agent_idles_without_losing_schedule():
    sim, net, agent = make_agent(rate=600.0)
    net.peers[PeerId(0)].go_offline()
    agent.start()
    sim.run(until=30.0)
    assert agent.queries_sent == 0
    net.peers[PeerId(0)].go_online()
    for i in (1, 2, 3, 4):
        net.peers[PeerId(0)].add_neighbor(PeerId(i))
    sim.run(until=60.0)
    assert agent.queries_sent > 0


def test_fractional_rates_carry_over():
    sim, net, agent = make_agent(rate=30.0)  # 0.5 per batch second
    agent.start()
    sim.run(until=60.0)
    assert agent.queries_sent == pytest.approx(30, abs=3)


def test_config_validation():
    with pytest.raises(ConfigError):
        AgentConfig(nominal_rate_qpm=0)
    with pytest.raises(ConfigError):
        AgentConfig(link_capacity_qpm=0)
