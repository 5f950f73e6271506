"""Wall-clock scheduler facade for the live testbed.

The DD-POLICE engine and :class:`repro.simkit.timers.PeriodicTask` were
written against the DES scheduler surface: ``sim.schedule_in(delay, fn,
*args, priority=...)`` plus a ``now`` in protocol seconds.
:class:`LiveClock` provides that surface on top of the asyncio event
loop, with a single twist -- time compression. Its handles also cancel,
which the DES has no use for: a node cancels its own timers at shutdown.

``minute_s`` wall seconds make one protocol "minute"; ``now`` and
``schedule_in`` speak protocol seconds throughout, so the engine's
evidence arithmetic (2-minute exchange period, 5-second collection
window, per-minute thresholds) runs unmodified while the testbed
finishes a 12-minute scenario in seconds.

``priority`` is accepted and ignored: the DES uses it to order events
at the same instant, a concept with no meaning on a wall clock.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional


class LiveTimer:
    """Handle of one scheduled wall-clock callback; cancellable."""

    __slots__ = ("_handle", "_fired")

    def __init__(self, handle: Optional[asyncio.TimerHandle] = None) -> None:
        self._handle = handle
        self._fired = False

    def _mark_fired(self) -> None:
        self._fired = True

    def cancel(self) -> None:
        if self._handle is not None and not self._fired:
            self._handle.cancel()
        self._fired = True

    @property
    def pending(self) -> bool:
        return not self._fired and self._handle is not None and not self._handle.cancelled()


class LiveClock:
    """Protocol-time clock and scheduler over an asyncio event loop.

    ``origin`` is the loop time corresponding to protocol t=0; the
    supervisor distributes a shared unix start instant so every node's
    minute windows align, and each node converts it to loop time.
    """

    def __init__(
        self, loop: asyncio.AbstractEventLoop, *, minute_s: float, origin: float
    ) -> None:
        if minute_s <= 0:
            raise ValueError(f"minute_s must be positive, got {minute_s}")
        self._loop = loop
        self.minute_s = minute_s
        #: Protocol seconds per wall second.
        self.time_scale = 60.0 / minute_s
        self.origin = origin

    @property
    def now(self) -> float:
        """Current protocol time in seconds (0 at ``origin``)."""
        return (self._loop.time() - self.origin) * self.time_scale

    def wall_delay(self, protocol_delay: float) -> float:
        """Wall seconds corresponding to a protocol-seconds delay."""
        return max(0.0, protocol_delay) / self.time_scale

    def schedule_in(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> LiveTimer:
        """Run ``fn(*args)`` after ``delay`` protocol seconds."""
        del priority  # same-instant ordering is meaningless on a wall clock
        timer = LiveTimer()

        def fire() -> None:
            timer._mark_fired()
            fn(*args)

        timer._handle = self._loop.call_later(self.wall_delay(delay), fire)
        return timer
