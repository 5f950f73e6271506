"""Periodic tasks on top of the DES engine.

DD-POLICE is built out of periodic protocol rounds (neighbor-list exchange
every 2 minutes, per-minute traffic-window rollover, buddy-group liveness
pings); :class:`PeriodicTask` encapsulates their rescheduling logic.
One-shot timeouts (the 5-second Neighbor_Traffic collection window) are
plain ``schedule_in`` events that always fire; a callback whose work is
moot by then checks for that itself.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.simkit.engine import Simulator


class PeriodicTask:
    """Re-fires ``callback()`` every ``period`` time units until stopped.

    Parameters
    ----------
    sim:
        Owning scheduler: a :class:`Simulator`, or anything with the same
        ``schedule_in`` (the live testbed's wall clock).
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
        self._stopped = False
        first = self._period if start_delay is None else float(start_delay)
        self._event = sim.schedule_in(
            first + self._draw_jitter(), self._tick, priority=priority
        )

    def _draw_jitter(self) -> float:
        return self._rng.uniform(0.0, self._jitter) if self._jitter > 0 else 0.0

    def _tick(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._event = self._sim.schedule_in(
                self._period + self._draw_jitter(), self._tick,
                priority=self._priority,
            )

    @property
    def next_time(self) -> Optional[float]:
        """Time of the next firing, read between firings on a
        :class:`Simulator`; None once stopped."""
        return None if self._stopped else self._event.time

    def stop(self) -> None:
        """Stop the task: no callback runs after this returns. The queued
        tick stays scheduled and does nothing when it comes due."""
        self._stopped = True
