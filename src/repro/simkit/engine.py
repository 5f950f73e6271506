"""Heap-based discrete-event simulator.

The engine owns a virtual clock and a binary heap of
``(time, priority, seq, event)`` tuples. ``seq`` is unique, so ``heapq``
orders entries on the first three fields in C and never compares two
:class:`Event` objects (which define no ordering). Nothing is ever
cancelled: every scheduled event either has fired or is still queued,
so the run loop is pop, set the clock, fire.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.simkit.events import Event

#: One heap entry: ``(time, priority, seq, event)``.
_Entry = Tuple[float, int, int, Event]


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling into the past)."""


class Simulator:
    """Discrete-event loop with a non-decreasing virtual clock from 0.

    Time units are abstract; the overlay layer interprets them as seconds.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(5.0, fired.append, 5.0)
    >>> _ = sim.schedule_at(1.0, fired.append, 1.0)
    >>> sim.run()
    >>> fired
    [1.0, 5.0]
    """

    def __init__(self) -> None:
        #: Current virtual time; only :meth:`run` advances it.
        self.now = 0.0
        self._heap: List[_Entry] = []
        self._seq = 0
        self._running = False

    # -- clock ------------------------------------------------------------
    @property
    def events_fired(self) -> int:
        """Number of events fired so far: every scheduled event not
        still queued."""
        return self._seq - len(self._heap)

    @property
    def pending_count(self) -> int:
        """Number of queued events."""
        return len(self._heap)

    # -- scheduling --------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        ``priority`` must be an ``int`` (lower fires first among equal
        times). It goes into the heap entry as given, not coerced: a
        value that does not compare with ``int`` raises ``TypeError``
        from a later push or pop, not here.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self.now}"
            )
        time = float(time)
        ev = Event(time, callback, args)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_bulk(
        self,
        items: Iterable[Tuple[Any, ...]],
        *,
        priority: int = 0,
    ) -> None:
        """Schedule many events at once with a single heapify.

        Each item is ``(time, callback, *args)``. Sequence numbers are
        assigned in iteration order, so the resulting pop order is
        identical to calling :meth:`schedule_at` once per item -- the
        heap's total order ``(time, priority, seq)`` does not depend on
        insertion method. For n items this is O(heap + n) instead of
        O(n log heap), which matters for overlay startup (one timer per
        peer at n >= 100k). ``priority`` must be an ``int``, as for
        :meth:`schedule_at`. A past time rejects the whole batch.
        """
        entries: List[_Entry] = []
        seq = self._seq
        for item in items:
            time, callback, *args = item
            if time < self.now:
                raise SimulationError(
                    f"cannot schedule into the past: t={time} < now={self.now}"
                )
            time = float(time)
            entries.append((time, priority, seq, Event(time, callback, tuple(args))))
            seq += 1
        self._seq = seq
        self._heap.extend(entries)
        heapq.heapify(self._heap)

    # -- execution ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Fire queued events in order until the queue is empty or the next
        one lies past ``until``; then the clock is advanced to exactly
        ``until`` (if given) and the later events stay queued."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        limit = math.inf if until is None else until
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap and heap[0][0] <= limit:
                time, _, _, nxt = heappop(heap)
                self.now = time
                nxt.fire()
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
