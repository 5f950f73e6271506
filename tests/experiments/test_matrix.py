"""Unit tests for the robustness-matrix scenario plumbing."""

import pytest

from repro.errors import ConfigError
from repro.experiments.library import (
    MatrixRow,
    format_robustness_matrix,
    run_spec,
    spec_at_scale,
)
from repro.experiments.spec import apply_overrides, get_spec

TINY_OVERRIDES = {
    "scale.n_peers": "20",
    "scale.sim_minutes": "3",
    "scale.attack_start_min": "1",
    "trials": "1",
    "grid.agents": "1",
    "grid.profiles": "paper",
    "grid.adversaries": "throttle",
    "grid.topologies": "ba",
}


@pytest.fixture(scope="module")
def tiny_run():
    return run_spec(
        "robustness-matrix", overrides=TINY_OVERRIDES, workers=1, cache=False
    )


def test_tiny_matrix_shape(tiny_run):
    assert tiny_run.cases == 2  # one clean baseline + one attacked cell
    (row,) = tiny_run.data
    assert (row.defense, row.adversary, row.topology) == ("paper", "throttle", "ba")
    assert row.total_attackers == 1
    assert row.trials == 1


def test_tiny_matrix_metrics_in_range(tiny_run):
    (row,) = tiny_run.data
    censored = (3 - 1) * 60.0
    assert 0.0 <= row.detection_latency_s <= censored
    assert 0.0 <= row.caught_attackers <= row.total_attackers
    assert row.false_negative >= 0.0
    assert 0.0 <= row.damage_pct <= 100.0


def test_tiny_matrix_table_renders(tiny_run):
    table = tiny_run.tables["robustness_matrix"]
    assert "defense" in table and "latency_s" in table
    assert "paper" in table and "throttle" in table


def test_explicit_grid_axes_win_over_defaults():
    bench = get_spec("robustness-matrix")
    assert (bench.scale.n_peers, bench.scale.sim_minutes, bench.trials) == (30, 6, 2)
    assert bench.grid.profiles == ("paper", "hardened")
    assert set(bench.grid.adversaries) == {
        "static", "throttle", "collude", "churn", "pulse"
    }
    assert "bittorrent" in bench.grid.topologies
    smoke = spec_at_scale(bench, "smoke")
    assert (smoke.grid.profiles, smoke.grid.adversaries, smoke.grid.topologies) == (
        ("paper", "hardened"), ("static", "throttle", "pulse"), ("ba",)
    )
    assert (smoke.scale.name, smoke.scale.n_peers, smoke.scale.sim_minutes) == (
        "smoke", 30, 5
    )
    assert smoke.trials == 1 and smoke.grid.agents == 2
    # ... and a user --set applied after the tier still wins.
    assert apply_overrides(smoke, {"grid.profiles": "hardened"}).grid.profiles == (
        "hardened",
    )


def test_matrix_and_fault_sweep_share_one_profile_axis():
    from repro.experiments.library import _police_by_profile

    for name in ("robustness-matrix", "fault-sweep"):
        spec = get_spec(name)
        both = _police_by_profile(apply_overrides(spec, {"grid.profiles": ()}))
        assert list(both) == ["paper", "hardened"]  # empty axis = every profile
        assert both["paper"] == spec.police
        assert both["hardened"] == spec.police.with_hardening()


def test_format_includes_censoring_legend():
    spec = spec_at_scale(get_spec("robustness-matrix"), "smoke")
    row = MatrixRow(
        defense="paper", adversary="static", topology="ba",
        detection_latency_s=65.0, caught_attackers=2.0, total_attackers=2,
        false_negative=0.0, damage_pct=12.5, trials=1,
    )
    table = format_robustness_matrix(spec, [row])
    assert "scale=smoke  n=30  agents=2  attack=600 qpm" in table
    assert "censored" in table
    assert "2.0/2" in table


def test_collude_requires_matching_cheat():
    from repro.attack.adaptive import AdaptiveConfig
    from repro.experiments.runner import DESConfig

    with pytest.raises(ConfigError, match="requires cheat_strategy 'collude'"):
        DESConfig(
            n=20, num_agents=2, adaptive=AdaptiveConfig(strategy="collude")
        )
