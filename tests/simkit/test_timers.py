"""Unit tests for periodic tasks and one-shot timeouts.

A one-shot protocol timeout (the Neighbor_Traffic collection window) is a
plain ``schedule_in`` event; these tests pin the behaviour the protocol
relies on.
"""

import random

import pytest

from repro.simkit.engine import SimulationError, Simulator
from repro.simkit.timers import PeriodicTask


def test_periodic_fires_every_period():
    sim = Simulator()
    times = []
    PeriodicTask(sim, 2.0, lambda: times.append(sim.now))
    sim.run(until=7.0)
    assert times == [2.0, 4.0, 6.0]


def test_periodic_start_delay():
    sim = Simulator()
    times = []
    PeriodicTask(sim, 5.0, lambda: times.append(sim.now), start_delay=1.0)
    sim.run(until=12.0)
    assert times == [1.0, 6.0, 11.0]


def test_periodic_next_time_reads_the_pending_firing():
    sim = Simulator()
    task = PeriodicTask(sim, 5.0, lambda: None, start_delay=1.0)
    assert task.next_time == 1.0
    sim.run(until=3.0)
    assert task.next_time == 6.0
    task.stop()
    assert task.next_time is None


def test_periodic_stop_cancels_future_firings():
    sim = Simulator()
    count = []
    task = PeriodicTask(sim, 1.0, lambda: count.append(1))
    sim.schedule_at(3.5, task.stop)
    sim.run(until=10.0)
    assert len(count) == 3
    assert not task.active


def test_stop_from_within_callback():
    sim = Simulator()
    task_holder = {}

    def cb():
        task_holder["task"].stop()

    task_holder["task"] = PeriodicTask(sim, 1.0, cb)
    sim.run(until=10.0)
    assert task_holder["task"].fire_count == 1


def test_periodic_jitter_bounds():
    sim = Simulator()
    times = []
    PeriodicTask(
        sim, 10.0, lambda: times.append(sim.now), jitter=2.0, rng=random.Random(1)
    )
    sim.run(until=100.0)
    assert len(times) >= 7
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(10.0 <= g <= 12.0 + 1e-9 for g in gaps)


def test_invalid_period_rejected():
    with pytest.raises(ValueError):
        PeriodicTask(Simulator(), 0.0, lambda: None)


def test_negative_jitter_rejected():
    with pytest.raises(ValueError):
        PeriodicTask(Simulator(), 1.0, lambda: None, jitter=-1.0)


def test_fire_count_tracks():
    sim = Simulator()
    task = PeriodicTask(sim, 1.0, lambda: None)
    sim.run(until=5.5)
    assert task.fire_count == 5


def test_timeout_fires_once():
    sim = Simulator()
    fired = []
    ev = sim.schedule_in(3.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [3.0]
    assert not ev.pending


def test_timeout_cancel():
    sim = Simulator()
    fired = []
    ev = sim.schedule_in(3.0, lambda: fired.append(1))
    assert ev.cancel()
    sim.run()
    assert fired == []
    assert not ev.pending


def test_timeout_cancel_after_fire_fails():
    sim = Simulator()
    ev = sim.schedule_in(1.0, lambda: None)
    sim.run()
    assert ev.cancel() is False


def test_timeout_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule_in(-0.1, lambda: None)


def test_timeout_pending_state():
    sim = Simulator()
    ev = sim.schedule_in(5.0, lambda: None)
    assert ev.pending
    sim.run()
    assert not ev.pending


def test_jitter_without_rng_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="requires an explicit rng"):
        PeriodicTask(sim, 10.0, lambda: None, jitter=1.0)


def test_jittered_tasks_with_distinct_rngs_desynchronize():
    sim = Simulator()
    times = {"a": [], "b": []}
    PeriodicTask(
        sim, 10.0, lambda: times["a"].append(sim.now),
        jitter=5.0, rng=random.Random(1),
    )
    PeriodicTask(
        sim, 10.0, lambda: times["b"].append(sim.now),
        jitter=5.0, rng=random.Random(2),
    )
    sim.run(until=100.0)
    # independent rngs: the two schedules must not be in lockstep
    assert times["a"] != times["b"]


def test_priority_orders_same_time_periodic_tasks():
    sim = Simulator()
    order = []
    PeriodicTask(sim, 10.0, lambda: order.append("roll"), priority=-1)
    PeriodicTask(sim, 10.0, lambda: order.append("app"))
    sim.run(until=10.0)
    assert order == ["roll", "app"]
