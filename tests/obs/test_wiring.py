"""End-to-end wiring: the simulators actually emit through repro.obs."""

from collections import Counter

from repro.experiments.runner import DESConfig, run_des_experiment
from repro.fluid.model import FluidConfig, FluidSimulation
from repro.obs.trace import iter_records, validate_record


def test_default_obs_config_is_disabled():
    # The default config carries no trace path and attaches no tracer.
    run = run_des_experiment(DESConfig(n=10, duration_s=30.0, seed=2))
    assert run.sim.tracer is None and run.network.tracer is None
    sim = FluidSimulation(FluidConfig(n=40, seed=4))
    assert sim._tracer is None
    sim.close_trace()  # a no-op without a trace path


def test_des_run_emits_trace(tmp_path):
    path = tmp_path / "des.jsonl"
    cfg = DESConfig(
        n=12,
        duration_s=45.0,
        seed=1,
        num_agents=2,
        defense="ddpolice",
        trace_path=str(path),
    )
    run = run_des_experiment(cfg)
    records = list(iter_records(path))
    for rec in records:
        validate_record(rec)
        assert rec["run"] == "des-seed1"
    kinds = Counter(r["kind"] for r in records)
    assert kinds["sim.dispatch"] == run.sim.events_fired
    assert kinds["net.deliver"] == run.network.stats.messages_delivered
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert run.wall_s > 0.0


def test_fluid_run_emits_minute_records(tmp_path):
    path = tmp_path / "fluid.jsonl"
    cfg = FluidConfig(n=60, seed=4, num_agents=2, trace_path=str(path))
    sim = FluidSimulation(cfg)
    sim.run(5)
    sim.close_trace()
    records = list(iter_records(path))
    assert [r["minute"] for r in records] == [1, 2, 3, 4, 5]
    for rec in records:
        validate_record(rec)
        assert rec["kind"] == "fluid.minute"
        assert rec["run"] == "fluid-seed4"
        assert rec["wall_s"] >= 0.0
