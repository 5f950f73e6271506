"""Twin fluid runs share one warm start and stay bit-identical.

Everything a run does before minute 0 -- topology, agent sample,
bandwidth, replica counts, the churn warm-up -- is memoized on the config
fields it depends on. Each run restores a private copy, so the order in
which twins run cannot leak one run's cuts or churn into another.
"""

from dataclasses import replace

import pytest

from repro.core.config import DDPoliceConfig
from repro.fluid import model
from repro.fluid.graphstate import FluidChurnConfig
from repro.fluid.model import FluidConfig, FluidSimulation
from repro.overlay.topology import TopologyConfig

MINUTES = 8
UNDEFENDED = FluidConfig(
    n=150, seed=5, num_agents=3, attack_start_min=2, churn_warmup_min=6
)
DEFENDED = replace(UNDEFENDED, defense="ddpolice")


def _run(config):
    sim = FluidSimulation(config)
    sim.run(MINUTES)
    return (
        sim.rows,
        [repr(j) for j in sim.judgments.judgments],
        sim.state.joins + sim.state.leaves,
    )


def _run_alone(config):
    model._warm_start.cache_clear()
    return _run(config)


@pytest.mark.parametrize("order", [(DEFENDED, UNDEFENDED), (UNDEFENDED, DEFENDED)])
def test_twins_run_back_to_back_equal_each_run_alone(order):
    model._warm_start.cache_clear()
    shared = {config: _run(config) for config in order}
    assert model._warm_start.cache_info().misses == 1
    # The defended twin really cut edges, so a shared graph would leak.
    assert sum(r.edges_cut for r in shared[DEFENDED][0]) > 0
    for config, result in shared.items():
        assert result == _run_alone(config)


@pytest.mark.parametrize(
    "change",
    [
        {"n": 151},
        {"topology": TopologyConfig(n=150, model="random", seed=5)},
        {"seed": 6},
        {"num_agents": 2},
        {"churn": FluidChurnConfig(leave_prob_per_min=0.2)},
        {"churn_warmup_min": 5},
        {"police": DDPoliceConfig(exchange_period_s=180.0)},
    ],
    ids=lambda change: next(iter(change)),
)
def test_each_key_field_rebuilds_the_warm_start(change):
    model._warm_start.cache_clear()
    FluidSimulation(UNDEFENDED)
    FluidSimulation(replace(UNDEFENDED, **change))
    assert model._warm_start.cache_info().misses == 2


def test_fields_after_minute_zero_reuse_the_warm_start():
    model._warm_start.cache_clear()
    FluidSimulation(UNDEFENDED)
    for change in (
        {"defense": "ddpolice"},
        {"defense": "naive"},
        {"attack_rate_qpm": 5_000.0},
        {"attack_start_min": 4},
        {"capacity_qpm": 2_000.0},
        {"queries_per_minute": 0.6},
        {"police": DDPoliceConfig(warning_threshold_qpm=300.0)},
    ):
        FluidSimulation(replace(UNDEFENDED, **change))
    assert model._warm_start.cache_info().misses == 1
