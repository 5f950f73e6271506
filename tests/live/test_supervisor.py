"""Supervisor babysitting contract: crash detection and guaranteed reap.

These tests spawn real node subprocesses, so they are the slowest in
the live suite -- swarms are kept tiny and minutes short.
"""

import os
import signal
import time

import pytest

from repro.errors import ConfigError
from repro.experiments.spec import Case, WorkloadSpec
from repro.live.runner import run_live_case
from repro.live.spec import LiveSpec
from repro.live.supervisor import Supervisor


def tiny_case(**overrides):
    base = dict(
        n=4,
        minutes=2,
        seed=5,
        ba_m=1,
        workload=WorkloadSpec(queries_per_minute=6.0),
        live=LiveSpec(
            n_nodes=4, minute_s=0.4, spawn_stagger_s=0.0, drain_timeout_s=8.0
        ),
    )
    base.update(overrides)
    return Case(**base)


def assert_all_reaped(supervisor):
    for node_id, proc in supervisor.processes.items():
        assert proc.poll() is not None, f"node {node_id} leaked (pid {proc.pid})"


def test_config_validation():
    with pytest.raises(ConfigError):
        LiveSpec(n_nodes=1)
    with pytest.raises(ConfigError):
        tiny_case(minutes=0)
    with pytest.raises(ConfigError):
        tiny_case(num_agents=5)
    with pytest.raises(ConfigError):
        tiny_case(defense="firewall")
    with pytest.raises(ConfigError, match="naive"):
        run_live_case(tiny_case(defense="naive"))


def test_clean_run_drains_every_node(tmp_path):
    supervisor = Supervisor(tiny_case(), tmp_path)
    result = supervisor.run()
    assert_all_reaped(supervisor)
    assert result.crashed == []
    assert result.clean_exits == 4
    minutes = {r["minute"] for r in result.minute_records}
    assert {1, 2} <= minutes
    nodes_seen = {r["node"] for r in result.minute_records}
    assert nodes_seen == {0, 1, 2, 3}
    assert supervisor.node_stats(0).exists()


def test_killed_node_is_detected_and_swarm_drains(tmp_path):
    """SIGKILL one node mid-run: the swarm must still drain cleanly."""
    supervisor = Supervisor(tiny_case(minutes=3), tmp_path)
    victim = 2
    try:
        supervisor.start()
        deadline = time.time() + 30.0
        while not supervisor.start_file.exists() and time.time() < deadline:
            time.sleep(0.02)
        assert supervisor.start_file.exists(), "start barrier never resolved"
        time.sleep(0.3)  # let the scenario get going
        os.kill(supervisor.processes[victim].pid, signal.SIGKILL)
        supervisor.wait()
    finally:
        supervisor.shutdown()
    result = supervisor.collect()
    assert_all_reaped(supervisor)
    assert victim in result.crashed
    # The other three nodes survived the neighbor death and drained.
    assert result.clean_exits == 3
    finals = {
        r["node"] for r in result.minute_records if r["minute"] >= 3
    }
    assert victim not in finals


def test_keyboard_interrupt_still_reaps(tmp_path):
    """A KeyboardInterrupt in the watch loop must not orphan children."""
    supervisor = Supervisor(tiny_case(), tmp_path)

    def interrupted_wait(poll_s=0.1):
        raise KeyboardInterrupt

    supervisor.wait = interrupted_wait
    with pytest.raises(KeyboardInterrupt):
        supervisor.run()
    assert supervisor.processes, "swarm never started"
    assert_all_reaped(supervisor)


def test_double_start_rejected(tmp_path):
    supervisor = Supervisor(tiny_case(), tmp_path)
    try:
        supervisor.start()
        with pytest.raises(ConfigError):
            supervisor.start()
    finally:
        supervisor.shutdown()
    assert_all_reaped(supervisor)


def test_reused_out_dir_does_not_merge_stale_records(tmp_path):
    """JSONL sinks append, so a second swarm in the same directory must
    scrub the first swarm's per-node stats instead of merging them."""
    first = Supervisor(tiny_case(), tmp_path).run()
    assert first.clean_exits == 4
    second = Supervisor(tiny_case(), tmp_path).run()
    assert second.clean_exits == 4
    per_node_minutes = {}
    for rec in second.minute_records:
        per_node_minutes.setdefault(rec["node"], []).append(rec["minute"])
    for node, minutes in per_node_minutes.items():
        assert len(minutes) == len(set(minutes)), (
            f"node {node} reported duplicate minutes: stale records leaked"
        )

