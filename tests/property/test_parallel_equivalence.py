"""Parallel/serial equivalence of the experiment specs.

The executor's core contract: ``workers=4`` returns results *exactly*
equal -- every row and rendered table, full float repr, not
approximately -- to ``workers=1``, because determinism lives in the
per-task seeds, never in the schedule. Exercised here over randomly
drawn small grids.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.library import run_spec


def both_ways(name, overrides):
    """Run spec ``name`` uncached at workers=1 and workers=4."""
    serial, parallel = (
        run_spec(name, overrides=overrides, workers=w, cache=False) for w in (1, 4)
    )
    # frozen-dataclass equality is exact float equality on every field;
    # repr equality additionally pins the full float repr.
    assert serial.data == parallel.data
    assert repr(serial.data) == repr(parallel.data)
    assert serial.tables == parallel.tables
    return serial


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=100, max_value=140),
    agents=st.integers(min_value=1, max_value=4),
    trials=st.integers(min_value=1, max_value=2),
)
def test_sweep_workers4_exactly_equals_serial(seed, n, agents, trials):
    run = both_ways(
        "fig12",
        {
            "seed": seed,
            "trials": trials,
            "scale.n_peers": n,
            "scale.attack_start_min": 1,
            "grid.agents": agents,
            "grid.cut_thresholds": (5.0,),
            "grid.minutes": 4,
        },
    )
    assert run.cases == 3 * trials


def test_fault_sweep_workers4_exactly_equals_serial():
    both_ways(
        "fault-sweep",
        {
            "seed": 5,
            "trials": 2,
            "scale.name": "equivalence-tiny",
            "scale.n_peers": 16,
            "scale.sim_minutes": 3,
            "scale.attack_start_min": 1,
            "grid.agents": 1,
            "grid.loss_fractions": (0.0, 0.25),
            "grid.crash_counts": (0,),
        },
    )
