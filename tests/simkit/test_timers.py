"""Unit tests for periodic tasks and one-shot timeouts.

A one-shot protocol timeout (the Neighbor_Traffic collection window) is a
plain ``schedule_in`` event; these tests pin the behaviour the protocol
relies on.
"""

import asyncio
import random

import pytest

from repro.live.clock import LiveClock
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
    assert task.next_time is None


def test_stop_from_within_callback():
    sim = Simulator()
    task_holder = {}
    fired = []

    def cb():
        fired.append(sim.now)
        task_holder["task"].stop()

    task_holder["task"] = PeriodicTask(sim, 1.0, cb)
    sim.run(until=10.0)
    assert fired == [1.0]


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


def test_timeout_fires_once():
    sim = Simulator()
    fired = []
    sim.schedule_in(3.0, lambda: fired.append(sim.now))
    sim.run()
    sim.run(until=10.0)
    assert fired == [3.0]


def test_timeout_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule_in(-0.1, lambda: None)


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


@pytest.mark.parametrize("scheduler", ["simulator", "live"])
def test_a_stopped_task_never_calls_back(scheduler):
    """stop() -- from outside, or from inside the task's own callback --
    ends the callbacks on the DES and on the live wall clock alike; the
    tick already queued comes due and does nothing."""
    calls = {"inside": 0, "outside": 0}
    tasks = {}
    at_stop = []

    def tick(name):
        calls[name] += 1
        if name == "inside" and calls[name] == 2:
            tasks[name].stop()

    def start(clock):
        for name in calls:
            tasks[name] = PeriodicTask(clock, 30.0, lambda name=name: tick(name))

    def stop_outside():
        at_stop.append(calls["outside"])
        tasks["outside"].stop()

    if scheduler == "simulator":
        sim = Simulator()
        start(sim)
        sim.schedule_at(100.0, stop_outside)
        sim.run(until=1000.0)
        assert at_stop == [3]
    else:

        async def main():
            loop = asyncio.get_running_loop()
            clock = LiveClock(loop, minute_s=0.02, origin=loop.time())
            start(clock)
            await asyncio.sleep(clock.wall_delay(100.0))
            stop_outside()
            await asyncio.sleep(clock.wall_delay(300.0))

        asyncio.run(main())
        assert at_stop[0] >= 1
    assert calls == {"inside": 2, "outside": at_stop[0]}
