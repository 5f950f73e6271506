"""Tracing must never perturb published numbers, and must be reproducible.

The core invariant of :mod:`repro.obs`: tracing records state, it never
draws randomness and never mutates the simulation, so a traced run is
bit-identical to a dark one. These tests pin that for both simulators --
the fluid model behind fig12 and the message-level DES -- across
hypothesis-chosen scenario corners, and pin that two traced runs with
the same seed write the same records.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import DESConfig, run_des_experiment
from repro.fluid.model import FluidConfig, FluidSimulation
from repro.obs.trace import iter_records


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    num_agents=st.integers(min_value=0, max_value=6),
    defense=st.sampled_from(["none", "ddpolice"]),
)
def test_fluid_rows_bit_identical_with_obs_on(tmp_path_factory, seed, num_agents, defense):
    base = dict(
        n=120,
        seed=seed,
        num_agents=num_agents,
        defense=defense,
        attack_start_min=2,
        churn_warmup_min=2,
    )
    dark = FluidSimulation(FluidConfig(**base))
    dark_rows = dark.run(8)
    path = tmp_path_factory.mktemp("fluid") / "trace.jsonl"
    lit = FluidSimulation(FluidConfig(**base, trace_path=str(path)))
    lit_rows = lit.run(8)
    lit.close_trace()
    assert lit_rows == dark_rows  # dataclass equality covers every field
    assert len(list(iter_records(path))) == 8  # ...and the run really was traced


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    num_agents=st.integers(min_value=0, max_value=3),
)
def test_des_results_bit_identical_with_obs_on(tmp_path_factory, seed, num_agents):
    base = dict(
        n=15,
        duration_s=60.0,
        seed=seed,
        num_agents=num_agents,
        defense="ddpolice",
    )
    dark = run_des_experiment(DESConfig(**base))
    path = tmp_path_factory.mktemp("des") / "trace.jsonl"
    lit = run_des_experiment(DESConfig(**base, trace_path=str(path)))
    assert lit.success_rate == dark.success_rate
    assert lit.total_messages == dark.total_messages
    assert lit.mean_response_time == dark.mean_response_time
    assert lit.network.stats == dark.network.stats
    assert lit.sim.events_fired == dark.sim.events_fired
    assert next(iter_records(path), None) is not None


def test_des_trace_is_reproducible(tmp_path):
    base = dict(
        n=20,
        duration_s=240.0,
        seed=5,
        num_agents=2,
        attack_start_s=30.0,
        attack_rate_qpm=600.0,
        defense="ddpolice",
    )
    traces = []
    for name in ("a.jsonl", "b.jsonl"):
        run_des_experiment(DESConfig(**base, trace_path=str(tmp_path / name)))
        traces.append(list(iter_records(tmp_path / name)))
    assert traces[0] == traces[1]
    kinds = {r["kind"] for r in traces[0]}
    assert {"police.suspect", "police.decision"} <= kinds


def test_fluid_trace_is_reproducible_up_to_host_time(tmp_path):
    base = dict(n=200, seed=9, num_agents=3, defense="ddpolice", attack_start_min=2)
    traces = []
    for name in ("a.jsonl", "b.jsonl"):
        sim = FluidSimulation(FluidConfig(**base, trace_path=str(tmp_path / name)))
        sim.run(6)
        sim.close_trace()
        records = list(iter_records(tmp_path / name))
        for rec in records:
            assert rec.pop("wall_s") >= 0.0
        traces.append(records)
    assert len(traces[0]) == 6
    assert traces[0] == traces[1]
