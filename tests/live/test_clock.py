"""Unit tests for the wall-clock scheduler facade (LiveClock)."""

import asyncio

import pytest

from repro.live.clock import LiveClock, LiveTimer
from repro.simkit.timers import PeriodicTask


def run(coro):
    return asyncio.run(coro)


def make_clock(loop, minute_s=0.05):
    return LiveClock(loop, minute_s=minute_s, origin=loop.time())


def test_time_scale():
    async def main():
        loop = asyncio.get_running_loop()
        clock = make_clock(loop, minute_s=0.5)
        assert clock.time_scale == 120.0
        assert clock.wall_delay(60.0) == pytest.approx(0.5)
        assert clock.wall_delay(-5.0) == 0.0

    run(main())


def test_rejects_bad_minute():
    async def main():
        loop = asyncio.get_running_loop()
        with pytest.raises(ValueError):
            LiveClock(loop, minute_s=0.0, origin=loop.time())

    run(main())


def test_now_advances_in_protocol_seconds():
    async def main():
        loop = asyncio.get_running_loop()
        clock = make_clock(loop, minute_s=0.1)  # 600x compression
        t0 = clock.now
        await asyncio.sleep(0.05)
        elapsed = clock.now - t0
        # 0.05 wall seconds is 30 protocol seconds; allow loop jitter.
        assert 20.0 <= elapsed <= 120.0

    run(main())


def test_schedule_in_fires_with_args():
    async def main():
        loop = asyncio.get_running_loop()
        clock = make_clock(loop)
        fired = []
        timer = clock.schedule_in(6.0, fired.append, "x", priority=3)
        assert isinstance(timer, LiveTimer)
        assert timer.pending
        await asyncio.sleep(0.05)
        assert fired == ["x"]
        assert not timer.pending

    run(main())


def test_cancel_prevents_firing():
    async def main():
        loop = asyncio.get_running_loop()
        clock = make_clock(loop)
        fired = []
        timer = clock.schedule_in(6.0, fired.append, "x")
        timer.cancel()
        assert not timer.pending
        await asyncio.sleep(0.05)
        assert fired == []

    run(main())


def test_negative_delay_clamps_to_now():
    async def main():
        loop = asyncio.get_running_loop()
        clock = make_clock(loop)
        fired = []
        clock.schedule_in(-100.0, fired.append, 1)
        await asyncio.sleep(0.02)
        assert fired == [1]

    run(main())


def test_periodic_task_runs_on_live_clock():
    """The DES PeriodicTask drives unmodified off a LiveClock.

    This is the load-bearing compatibility contract: the DD-POLICE
    engine schedules its exchange and liveness rounds through
    PeriodicTask, which only ever sees ``sim.schedule_in``.
    """

    async def main():
        loop = asyncio.get_running_loop()
        clock = make_clock(loop, minute_s=0.02)  # 1 protocol min = 20 ms
        ticks = []
        task = PeriodicTask(clock, 30.0, lambda: ticks.append(clock.now))
        await asyncio.sleep(0.12)  # ~6 protocol minutes
        task.stop()
        count = len(ticks)
        await asyncio.sleep(0.05)
        assert len(ticks) == count  # no callback after stop()
        assert count >= 3

    run(main())


def test_timeout_runs_on_live_clock():
    async def main():
        loop = asyncio.get_running_loop()
        clock = make_clock(loop, minute_s=0.02)
        fired = []
        timer = clock.schedule_in(5.0, lambda: fired.append(True))
        cancelled = clock.schedule_in(5.0, lambda: fired.append(False))
        cancelled.cancel()
        assert timer.pending and not cancelled.pending
        await asyncio.sleep(0.05)
        assert fired == [True]
        assert not timer.pending

    run(main())
