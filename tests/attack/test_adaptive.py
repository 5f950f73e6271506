"""Unit tests for the adaptive-adversary strategies."""

import random

import pytest

from repro.attack.adaptive import (
    AdaptiveAgent,
    AdaptiveConfig,
    CollusionRing,
    pulse_is_on,
)
from repro.attack.agent import AgentConfig, DDoSAgent
from repro.errors import ConfigError
from repro.experiments.runner import DESConfig, _plant_agents, run_des_experiment
from repro.overlay.ids import PeerId
from tests.conftest import make_network


def ring(n):
    return {i: {(i + 1) % n} for i in range(n)}


# -- config validation -----------------------------------------------------

def test_unknown_strategy_rejected():
    with pytest.raises(ConfigError, match="unknown strategy"):
        AdaptiveConfig(strategy="stealth")


@pytest.mark.parametrize("kwargs", [
    {"throttle_margin": 0.0},
    {"throttle_margin": 1.5},
    {"warning_threshold_qpm": 0.0},
    {"pulse_period_s": 0.0},
    {"pulse_duty": 0.0},
    {"pulse_duty": 1.1},
    {"pulse_phase_s": -1.0},
    {"evade_on_s": 0.0},
    {"evade_off_s": -5.0},
    {"collude_excuse_qpm": -1.0},
])
def test_bad_knobs_rejected_at_construction(kwargs):
    with pytest.raises(ConfigError):
        AdaptiveConfig(**kwargs)


def test_collusion_ring_rejects_negative_excuse():
    with pytest.raises(ConfigError):
        CollusionRing(members=frozenset({PeerId(1)}), excuse_qpm=-1.0)


def test_scenario_k_greater_than_n_names_the_bound():
    with pytest.raises(ConfigError, match="cannot compromise 6 of 5 peers"):
        DESConfig(n=5, num_agents=6)


def test_churn_strategy_needs_a_churn_process():
    sim, net = make_network(ring(6), seed=0)
    with pytest.raises(ConfigError, match="ChurnProcess"):
        AdaptiveAgent(
            sim, net, PeerId(0),
            adaptive=AdaptiveConfig(strategy="churn"),
        )


# -- rate shaping ----------------------------------------------------------

def test_throttle_caps_at_margin_times_threshold_per_neighbor():
    sim, net = make_network(ring(6), seed=1)
    agent = AdaptiveAgent(
        sim, net, PeerId(0),
        AgentConfig(nominal_rate_qpm=20_000.0),
        AdaptiveConfig(
            strategy="throttle", throttle_margin=0.5,
            warning_threshold_qpm=100.0,
        ),
    )
    assert agent._batch_rate_qpm(4) == pytest.approx(0.5 * 100.0 * 4)
    # A cap above the nominal rate never binds.
    assert agent._batch_rate_qpm(10_000) == pytest.approx(20_000.0)


def test_pulse_phase_arithmetic():
    cfg = AdaptiveConfig(
        strategy="pulse", pulse_period_s=100.0, pulse_duty=0.3,
        pulse_phase_s=10.0,
    )
    assert pulse_is_on(10.0, cfg)
    assert pulse_is_on(39.9, cfg)
    assert not pulse_is_on(40.0, cfg)
    assert not pulse_is_on(109.9, cfg)
    assert pulse_is_on(110.0, cfg)  # next period's burst


def test_pulse_silences_the_off_phase():
    sim, net = make_network(ring(6), seed=2)
    agent = AdaptiveAgent(
        sim, net, PeerId(0),
        AgentConfig(nominal_rate_qpm=600.0),
        AdaptiveConfig(strategy="pulse", pulse_period_s=60.0, pulse_duty=0.5),
    )
    agent.start()
    sim.run(until=29.0)
    burst = agent.queries_sent
    assert burst > 0
    sim.run(until=59.0)
    assert agent.queries_sent == burst  # silent half: not one query
    sim.run(until=89.0)
    assert agent.queries_sent > burst  # next burst resumes


# -- static equivalence ----------------------------------------------------

def test_nonbinding_throttle_equals_static():
    # The adaptive machinery must be inert when its cap does not bind:
    # an AdaptiveAgent whose throttle ceiling exceeds the nominal rate
    # reproduces the static flooder's run exactly (same rng draws, same
    # carry arithmetic, same message stream).
    base = DESConfig(
        n=30, duration_s=240.0, seed=7, num_agents=2,
        attack_start_s=60.0, attack_rate_qpm=600.0, defense="ddpolice",
    )
    static = run_des_experiment(base)
    from dataclasses import replace

    throttled = run_des_experiment(replace(
        base,
        adaptive=AdaptiveConfig(
            strategy="throttle", warning_threshold_qpm=1e9
        ),
    ))
    assert static.bad_peers == throttled.bad_peers
    assert static.success_rate == throttled.success_rate
    assert static.total_messages == throttled.total_messages
    assert static.error_counts() == throttled.error_counts()


def test_static_path_builds_plain_agents():
    sim, net = make_network(ring(10), seed=3)
    static = _plant_agents(
        sim, net, DESConfig(n=10, num_agents=2), random.Random(3), None
    )
    assert all(type(a) is DDoSAgent for a in static.values())
    pulse = _plant_agents(
        sim, net,
        DESConfig(n=10, num_agents=2, adaptive=AdaptiveConfig(strategy="pulse")),
        random.Random(3), None,
    )
    assert all(type(a) is AdaptiveAgent for a in pulse.values())
    # The strategy picks the class only: both draw the same peers.
    assert list(static) == list(pulse)


# -- attack-origin hygiene (stop / churn rejoin) ---------------------------

def test_stop_unregisters_attack_origin():
    sim, net = make_network(ring(8), seed=4)
    agent = AdaptiveAgent(
        sim, net, PeerId(3), AgentConfig(nominal_rate_qpm=600.0),
        AdaptiveConfig(strategy="throttle"),
    )
    agent.start()
    assert PeerId(3) in net.attack_origins
    agent.stop()
    assert PeerId(3) not in net.attack_origins
    agent.start()  # stop/start cycles re-register
    assert PeerId(3) in net.attack_origins


def test_churn_evasion_cycles_and_leaves_no_stale_origins():
    run = run_des_experiment(DESConfig(
        n=24, duration_s=300.0, seed=11, num_agents=2,
        attack_start_s=30.0, attack_rate_qpm=600.0,
        adaptive=AdaptiveConfig(
            strategy="churn", evade_on_s=40.0, evade_off_s=30.0
        ),
    ))
    agents = run.agents.values()
    assert sum(a.evasions for a in agents) > 0  # the flee cycle ran
    # Evading agents are pinned: the sampled churn cycle cannot
    # double-drive them (natural churn is disabled here anyway).
    assert run.bad_peers <= run.churn.pinned
    assert run.network.attack_origins == run.bad_peers
    for agent in agents:
        agent.stop()
    assert not run.network.attack_origins  # no stale registrations
