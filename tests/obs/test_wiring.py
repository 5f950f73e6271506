"""End-to-end wiring: the simulators actually emit through repro.obs."""

from collections import Counter
from dataclasses import replace

import repro.overlay.network as network_module
from repro.experiments.runner import DESConfig, run_des_experiment
from repro.faults.plan import CrashRule, FaultPlan
from repro.fluid.model import FluidConfig, FluidSimulation
from repro.obs.trace import iter_records, validate_record
from repro.overlay.peer import PeerState

#: The DES trace's whole vocabulary: decisions, drops and minute rows;
#: nothing per fired event or per delivery (a message that reaches an
#: offline peer is counted on ``net.minute``).
DES_KINDS = {"net.minute", "net.drop.bandwidth"}
DES_KIND_PREFIXES = ("police.", "fault.")


def test_default_obs_config_is_disabled():
    # The default config carries no trace path and attaches no tracer.
    run = run_des_experiment(DESConfig(n=10, duration_s=30.0, seed=2))
    assert run.network.tracer is None
    sim = FluidSimulation(FluidConfig(n=40, seed=4))
    assert sim._tracer is None
    sim.close_trace()  # a no-op without a trace path


def _snapshot_minute_rolls(monkeypatch):
    """Make every DES network record its counters at each minute roll."""
    rolls = []

    class SnapshotNetwork(network_module.OverlayNetwork):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.minute_listeners.append(
                lambda minute, now: rolls.append(
                    (minute, now, replace(self.stats), self.sim.events_fired)
                )
            )

    monkeypatch.setattr(network_module, "OverlayNetwork", SnapshotNetwork)
    return rolls


def test_des_run_emits_trace(tmp_path, monkeypatch):
    rolls = _snapshot_minute_rolls(monkeypatch)
    path = tmp_path / "des.jsonl"
    cfg = DESConfig(
        n=12,
        duration_s=150.0,
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
    kinds = {r["kind"] for r in records}
    assert {
        k for k in kinds if k not in DES_KINDS and not k.startswith(DES_KIND_PREFIXES)
    } == set()
    assert any(k.startswith("police.") for k in kinds)
    minutes = [r for r in records if r["kind"] == "net.minute"]
    assert len(minutes) == len(rolls) == 2
    for rec, (minute, now, stats, events) in zip(minutes, rolls):
        assert (rec["minute"], rec["t"]) == (minute, now)
        assert rec["events"] == events
        assert rec["delivered"] == stats.messages_delivered
        assert rec["query_messages"] == stats.query_messages
        assert rec["hit_messages"] == stats.hit_messages
        assert rec["control_messages"] == stats.control_messages
        assert rec["bytes_transferred"] == stats.bytes_transferred
        assert rec["queue_depth"] > 0
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert run.wall_s > 0.0


def test_des_fault_drop_is_one_record(tmp_path):
    # The fault layer owns fault records: one ``fault.drop`` per lost
    # message, and the network adds none of its own.
    path = tmp_path / "faults.jsonl"
    cfg = DESConfig(
        n=12,
        duration_s=30.0,
        seed=3,
        faults=FaultPlan.message_loss(0.2),
        trace_path=str(path),
    )
    run = run_des_experiment(cfg)
    kinds = Counter(r["kind"] for r in iter_records(path))
    assert run.network.stats.messages_dropped_fault > 0
    assert kinds["fault.drop"] == run.network.stats.messages_dropped_fault
    assert "net.drop.fault" not in kinds


def test_des_offline_drops_are_a_minute_counter(tmp_path, monkeypatch):
    # Crashed peers' neighbours keep flooding to them. Each such message
    # is counted, not traced: ``net.minute`` carries the cumulative
    # ``dropped_offline``, equal to the deliveries that found their peer
    # offline up to that roll.
    found_offline = [0]
    at_roll = []

    class CountingNetwork(network_module.OverlayNetwork):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.minute_listeners.append(
                lambda minute, now: at_roll.append(found_offline[0])
            )

        def _deliver(self, src, dst, msg):
            if self.peers[dst].state is not PeerState.ONLINE:
                found_offline[0] += 1
            super()._deliver(src, dst, msg)

    monkeypatch.setattr(network_module, "OverlayNetwork", CountingNetwork)
    path = tmp_path / "crash.jsonl"
    cfg = DESConfig(
        n=20,
        duration_s=130.0,
        seed=5,
        faults=FaultPlan(crashes=(CrashRule(at_s=10.0, count=3),)),
        trace_path=str(path),
    )
    run = run_des_experiment(cfg)
    records = list(iter_records(path))
    minutes = [r for r in records if r["kind"] == "net.minute"]
    assert [r["dropped_offline"] for r in minutes] == at_roll
    assert len(at_roll) == 2 and at_roll[0] > 0
    assert run.network.dropped_offline == found_offline[0]
    assert "net.drop.offline" not in {r["kind"] for r in records}


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
