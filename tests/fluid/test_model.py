"""Integration tests for the fluid simulation."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError, MetricsError
from repro.fluid.model import FluidConfig, FluidSimulation


BASE = FluidConfig(n=300, seed=7, attack_start_min=3, churn_warmup_min=8)


def steady(rows, attr, first=6):
    vals = [getattr(r, attr) for r in rows if r.minute >= first]
    return sum(vals) / len(vals)


def test_run_produces_rows():
    sim = FluidSimulation(BASE)
    rows = sim.run(5)
    assert [r.minute for r in rows] == [1, 2, 3, 4, 5]
    assert all(r.online > 0 for r in rows)
    assert all(0 <= r.success_rate <= 1 for r in rows)
    assert all(r.response_time_s >= 0 for r in rows)


def test_deterministic_given_seed():
    a = FluidSimulation(BASE).run(4)
    b = FluidSimulation(BASE).run(4)
    assert [r.success_rate for r in a] == [r.success_rate for r in b]
    assert [r.query_messages_qpm for r in a] == [r.query_messages_qpm for r in b]


def test_seed_changes_trajectory():
    a = FluidSimulation(BASE).run(4)
    b = FluidSimulation(replace(BASE, seed=8)).run(4)
    assert [r.query_messages_qpm for r in a] != [r.query_messages_qpm for r in b]


def test_attack_degrades_service():
    clean = FluidSimulation(BASE)
    clean.run(10)
    attacked = FluidSimulation(replace(BASE, num_agents=3))
    attacked.run(10)
    assert steady(attacked.rows, "success_rate") < steady(clean.rows, "success_rate")
    assert steady(attacked.rows, "query_messages_qpm") > steady(
        clean.rows, "query_messages_qpm"
    )
    # At smoke scale the collapse is bandwidth-driven, so queueing delay
    # barely moves; the bench-scale sweep shows the paper's 2.4x growth.
    assert steady(attacked.rows, "response_time_s") > 0.9 * steady(
        clean.rows, "response_time_s"
    )


def test_attack_starts_at_configured_minute():
    sim = FluidSimulation(replace(BASE, num_agents=3, attack_start_min=5))
    rows = sim.run(8)
    assert all(r.attack_injected_qpm == 0 for r in rows if r.minute < 5)
    assert any(r.attack_injected_qpm > 0 for r in rows if r.minute >= 5)


def test_ddpolice_restores_service():
    attacked = FluidSimulation(replace(BASE, num_agents=3))
    attacked.run(12)
    defended = FluidSimulation(replace(BASE, num_agents=3, defense="ddpolice"))
    defended.run(12)
    assert steady(defended.rows, "success_rate", first=8) > steady(
        attacked.rows, "success_rate", first=8
    )
    assert defended.police is not None
    assert defended.police.stats.edges_cut > 0


def test_ddpolice_catches_all_agents():
    sim = FluidSimulation(replace(BASE, num_agents=3, defense="ddpolice"))
    sim.run(12)
    errors = sim.error_counts()
    assert errors.false_positive <= 1  # nearly all attackers identified


def test_naive_defense_runs():
    sim = FluidSimulation(replace(BASE, num_agents=3, defense="naive"))
    sim.run(10)
    assert sim.naive is not None
    assert sim.naive.stats.edges_cut > 0


def test_attack_rate_capped_by_bandwidth():
    sim = FluidSimulation(replace(BASE, num_agents=10))
    assert all(rate <= 20_000.0 for rate in sim.attack_rate.values())
    assert any(rate < 20_000.0 for rate in sim.attack_rate.values())  # modem/dsl


def test_agents_pinned_by_default():
    sim = FluidSimulation(replace(BASE, num_agents=3))
    assert sim.state.pinned == sim.bad_peers
    sim2 = FluidSimulation(replace(BASE, num_agents=3, agents_churn=True))
    assert sim2.state.pinned == set()


def test_warmup_converges_population():
    sim = FluidSimulation(BASE)
    online0 = sim.state.online_count()
    # steady state for leave=join=0.1 is ~50%
    assert 0.35 * BASE.n < online0 < 0.65 * BASE.n
    assert sim.state.minute == 0


def test_control_messages_accounted():
    sim = FluidSimulation(replace(BASE, defense="ddpolice", num_agents=3))
    rows = sim.run(8)
    assert any(r.control_messages_qpm > 0 for r in rows)


def test_mean_over_and_validation():
    sim = FluidSimulation(BASE)
    sim.run(4)
    assert sim.mean_over(2, "success_rate") > 0
    with pytest.raises(MetricsError, match="empty selection window"):
        sim.mean_over(99, "success_rate")
    with pytest.raises(MetricsError, match="no rows"):
        FluidSimulation(BASE).mean_over(0, "success_rate")
    with pytest.raises(ConfigError):
        sim.run(0)


def test_config_validation():
    with pytest.raises(ConfigError):
        FluidConfig(n=1)
    with pytest.raises(ConfigError):
        FluidConfig(defense="magic")
    with pytest.raises(ConfigError):
        FluidConfig(num_agents=10, n=5)
    with pytest.raises(ConfigError):
        FluidConfig(ttl=0)


def test_without_attack_twin():
    cfg = replace(BASE, num_agents=5, defense="ddpolice")
    twin = cfg.without_attack()
    assert twin.num_agents == 0
    assert twin.defense == "none"
    assert twin.seed == cfg.seed
