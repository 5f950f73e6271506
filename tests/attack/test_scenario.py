"""Unit tests for attack-agent planting in the DES runner (Section 3.6:
k random peers are compromised and flood from the attack start on)."""

import random

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import DESConfig, _plant_agents, run_des_experiment
from tests.conftest import make_network


def ring(n):
    return {i: {(i + 1) % n} for i in range(n)}


def plant(k, rng_seed):
    sim, net = make_network(ring(20), seed=1)
    return _plant_agents(
        sim, net, DESConfig(n=20, num_agents=k), random.Random(rng_seed), None
    )


def test_selects_k_random_peers():
    agents = plant(5, 1)
    assert len(agents) == 5  # five distinct peers (dict keys)
    assert [a.peer_id for a in agents.values()] == list(agents)


def test_selection_deterministic_by_seed():
    assert list(plant(5, 9)) == list(plant(5, 9))
    # One sample over the ascending ids, as the planting always drew:
    # every attacked table keeps its agents.
    assert [p.value for p in plant(5, 9)] == [14, 11, 8, 4, 5]
    run = run_des_experiment(DESConfig(n=30, duration_s=1.0, seed=5, num_agents=4))
    assert sorted(p.value for p in run.bad_peers) == [8, 15, 25, 29]
    assert set(run.agents) == run.bad_peers


def test_launch_at_start_time():
    def sent(until):
        run = run_des_experiment(DESConfig(
            n=10, duration_s=until, num_agents=2, attack_start_s=30.0,
            attack_rate_qpm=600.0, seed=2,
        ))
        return sum(a.queries_sent for a in run.agents.values())

    assert sent(29.0) == 0
    assert sent(90.0) > 0


def test_too_many_agents_rejected():
    with pytest.raises(ConfigError, match="k must not exceed n"):
        DESConfig(n=5, num_agents=6)


def test_config_validation():
    with pytest.raises(ConfigError):
        DESConfig(num_agents=-1)
    with pytest.raises(ConfigError):
        DESConfig(attack_start_s=-1)
    with pytest.raises(ConfigError):
        DESConfig(attack_rate_qpm=0)
