"""Unit tests for experiment scales."""

import pytest

from repro.errors import ConfigError
from repro.experiments.scenarios import PAPER_AGENT_FRACTIONS, SCALES, Scale
from repro.experiments.spec import ExperimentSpec


def test_paper_scale_matches_paper():
    scale = SCALES["paper"]
    assert scale.n_peers == 20_000
    assert scale.agent_counts() == [10, 20, 50, 100, 200]


def test_bench_scale_preserves_densities():
    scale = SCALES["bench"]
    for agents, frac in zip(scale.agent_counts(), PAPER_AGENT_FRACTIONS):
        assert agents == pytest.approx(frac * scale.n_peers, abs=1)


def test_paper_equivalent_agents():
    scale = SCALES["bench"]
    assert scale.paper_equivalent_agents(10) == 100
    assert SCALES["paper"].paper_equivalent_agents(100) == 100


def test_scale_validation():
    with pytest.raises(ConfigError):
        Scale(name="x", n_peers=9, sim_minutes=10, attack_start_min=1)
    with pytest.raises(ConfigError):
        Scale(name="x", n_peers=200, sim_minutes=5, attack_start_min=5)
    # The trial count is the spec's, not the scale's.
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        ExperimentSpec(name="x", scenario="agent-sweep", trials=0)
    with pytest.raises(TypeError):
        Scale(name="x", n_peers=200, sim_minutes=10, attack_start_min=1, trials=1)


def test_smoke_scale_small():
    assert SCALES["smoke"].n_peers <= 500
