"""Periodic tasks and cancellable timeouts on top of the DES engine.

DD-POLICE is built out of periodic protocol rounds (neighbor-list exchange
every 2 minutes, per-minute traffic-window rollover, buddy-group liveness
pings) and one-shot timeouts (the 5-second Neighbor_Traffic collection
window). These helpers encapsulate the rescheduling logic.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.simkit.engine import Simulator
from repro.simkit.events import Event


class PeriodicTask:
    """Re-fires ``callback()`` every ``period`` time units until stopped.

    Parameters
    ----------
    sim:
        Owning simulator.
    period:
        Interval between firings; must be positive.
    callback:
        Zero-argument callable invoked each round.
    jitter:
        Optional uniform jitter in ``[0, jitter)`` added to each interval,
        drawn from ``rng``; desynchronizes protocol rounds across peers the
        way real deployments drift. Requires an explicit ``rng``: a shared
        fallback seed would hand every task the *same* jitter sequence,
        keeping rounds synchronized -- the opposite of jitter's purpose.
    start_delay:
        Delay before the first firing (default: one full period).
    priority:
        Event priority for every firing. Bookkeeping tasks that must
        observe state *before* same-time application events (e.g. the
        per-minute metrics roll vs. attack batches fired exactly on the
        minute boundary) should use a negative priority.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        *,
        jitter: float = 0.0,
        start_delay: Optional[float] = None,
        rng: Optional[random.Random] = None,
        priority: int = 0,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        if jitter > 0 and rng is None:
            raise ValueError(
                "jitter > 0 requires an explicit rng: independently-created "
                "tasks sharing a default seed would draw identical jitter "
                "sequences and stay synchronized"
            )
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._jitter = float(jitter)
        self._rng = rng
        self._priority = priority
        self._event: Optional[Event] = None
        self._stopped = False
        self.fire_count = 0
        first = self._period if start_delay is None else float(start_delay)
        self._event = sim.schedule_in(
            first + self._draw_jitter(), self._tick, priority=priority
        )

    def _draw_jitter(self) -> float:
        return self._rng.uniform(0.0, self._jitter) if self._jitter > 0 else 0.0

    def _tick(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        self._callback()
        if not self._stopped:
            self._event = self._sim.schedule_in(
                self._period + self._draw_jitter(), self._tick,
                priority=self._priority,
            )

    @property
    def period(self) -> float:
        return self._period

    @property
    def next_time(self) -> Optional[float]:
        """Time of the pending firing, read between firings; None once
        stopped."""
        return None if self._event is None else self._event.time

    @property
    def active(self) -> bool:
        return not self._stopped

    def stop(self) -> None:
        """Stop the task; pending firing is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None


class Timeout:
    """One-shot cancellable timeout.

    Wraps a single scheduled event with an explicit ``cancel``/``expired``
    interface, used for protocol collection windows.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        callback: Callable[[], Any],
    ) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self._fired = False
        self._event = sim.schedule_in(delay, self._fire)
        self._callback = callback

    def _fire(self) -> None:
        self._fired = True
        self._callback()

    @property
    def expired(self) -> bool:
        return self._fired

    @property
    def pending(self) -> bool:
        return self._event.pending

    def cancel(self) -> bool:
        """Cancel if still pending; returns True on success."""
        return self._event.cancel()
