"""Fault-plan wiring through the DES experiment runner."""

import pytest

from repro.core.config import DDPoliceConfig
from repro.errors import ConfigError
from repro.experiments.runner import DESConfig, run_des_experiment
from repro.experiments.library import FAULT_PROFILES, run_spec
from repro.experiments.spec import apply_overrides, get_spec
from repro.faults.plan import CrashRule, FaultPlan
from repro.overlay.topology import TopologyConfig


def test_runner_skips_injector_for_empty_plan():
    run = run_des_experiment(DESConfig(n=10, duration_s=30.0, seed=5))
    assert run.injector is None
    assert run.network.fault_injector is None
    assert run.network.stats.messages_dropped_fault == 0


def test_runner_attaches_injector_and_protects_attackers():
    cfg = DESConfig(
        n=20,
        duration_s=120.0,
        seed=5,
        topology=TopologyConfig(n=20, ba_m=1, seed=5),
        num_agents=2,
        attack_rate_qpm=600.0,
        defense="ddpolice",
        police=DDPoliceConfig(exchange_period_s=30.0),
        faults=FaultPlan.control_loss(0.2),
    )
    run = run_des_experiment(cfg)
    assert run.injector is not None
    assert run.network.fault_injector is run.injector
    # Random crash/fail-slow victims are drawn from the good population:
    # the ground-truth error accounting needs the attackers alive.
    assert set(run.injector._protected) == set(run.bad_peers)
    assert run.injector.stats.messages_dropped > 0
    assert run.network.stats.messages_dropped_fault == run.injector.stats.messages_dropped


def test_runner_executes_scheduled_crashes():
    cfg = DESConfig(
        n=10,
        duration_s=30.0,
        seed=6,
        faults=FaultPlan(crashes=(CrashRule(at_s=10.0, count=2),)),
    )
    run = run_des_experiment(cfg)
    assert run.injector is not None
    assert len(run.injector.crashed) == 2
    for pid in run.injector.crashed:
        assert not run.network.peers[pid].online


# ---------------------------------------------------------------------------
# fault-sweep plumbing
# ---------------------------------------------------------------------------

TINY_OVERRIDES = {
    "seed": 2,
    "trials": 1,
    "scale.n_peers": 20,
    "scale.sim_minutes": 3,
    "scale.attack_start_min": 1,
    "grid.agents": 1,
    "grid.loss_fractions": (0.3,),
    "grid.crash_counts": (0,),
}


def test_fault_sweep_produces_one_point_per_cell_and_profile():
    run = run_spec("fault-sweep", overrides=TINY_OVERRIDES)
    points = run.data
    assert len(points) == len(FAULT_PROFILES)
    assert {p.profile for p in points} == set(FAULT_PROFILES)
    for p in points:
        assert p.loss == 0.3 and p.crashes == 0 and p.trials == 1
        assert p.false_negative >= 0.0 and p.false_positive >= 0.0
    table = run.tables["fault_sweep"]
    assert "paper" in table and "hardened" in table


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scale.n_peers": 5},
        {"scale.sim_minutes": 1},  # not past attack_start_min
        {"trials": 0},
        {"grid.loss_fractions": ()},
        {"grid.loss_fractions": (1.5,)},
        {"grid.crash_counts": (-1,)},
        {"grid.agents": 0},
        {"workload.attack_rate_qpm": 0.0},
        {"grid.crash_counts": ()},
        {"grid.agents": 20},  # k == n
    ],
)
def test_fault_sweep_spec_validation(kwargs):
    tiny = apply_overrides(get_spec("fault-sweep"), TINY_OVERRIDES)
    (path,) = kwargs
    with pytest.raises(ConfigError, match=f"invalid --set {path}"):
        apply_overrides(tiny, kwargs)
