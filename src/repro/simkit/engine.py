"""Heap-based discrete-event simulator.

The engine owns a virtual clock and a binary heap of
``(time, priority, seq, event)`` tuples. ``seq`` is unique, so ``heapq``
orders entries on the first three fields in C and never compares two
:class:`Event` objects (which define no ordering). Cancellation is
lazy: cancelled events stay in the heap and are skipped on pop, which
keeps ``cancel`` O(1) and pop amortized O(log n).
Cancelled events are counted live (events report their cancellation back
to the owning simulator), so ``pending_count`` is O(1), and the heap is
compacted in place once cancelled entries dominate it -- long runs with
heavy timer churn stay bounded by the *live* event population.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.simkit.events import _CANCELLED, _PENDING, Event

#: One heap entry: ``(time, priority, seq, event)``.
_Entry = Tuple[float, int, int, Event]

#: Compaction never triggers below this many cancelled entries; above it,
#: the heap is rebuilt once cancelled entries outnumber pending ones.
COMPACTION_MIN_CANCELLED = 256


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling into the past)."""


class Simulator:
    """Discrete-event loop with a non-decreasing virtual clock.

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

    def __init__(self, start_time: float = 0.0, *, tracer: Any = None) -> None:
        if start_time < 0:
            raise ValueError("start_time must be non-negative")
        self._now = float(start_time)
        self._heap: List[_Entry] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_fired = 0
        self._cancelled_in_heap = 0
        #: Optional ``repro.obs.trace.Tracer``; None keeps every dispatch on the
        #: untraced fast path (a single falsy branch per event).
        self.tracer = tracer

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_fired

    @property
    def pending_count(self) -> int:
        """Number of pending (non-cancelled) events in the queue. O(1)."""
        return len(self._heap) - self._cancelled_in_heap

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
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        time = float(time)
        ev = Event(time, callback, args, self)
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
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_bulk(
        self,
        items: Iterable[Tuple[Any, ...]],
        *,
        priority: int = 0,
    ) -> List[Event]:
        """Schedule many events at once with a single heapify.

        Each item is ``(time, callback, *args)``. Sequence numbers are
        assigned in iteration order, so the resulting pop order is
        identical to calling :meth:`schedule_at` once per item -- the
        heap's total order ``(time, priority, seq)`` does not depend on
        insertion method. For n items this is O(heap + n) instead of
        O(n log heap), which matters for overlay startup (one timer per
        peer at n >= 100k). ``priority`` must be an ``int``, as for
        :meth:`schedule_at`.
        """
        entries: List[_Entry] = []
        seq = self._seq
        for item in items:
            time, callback, *args = item
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule into the past: t={time} < now={self._now}"
                )
            time = float(time)
            entries.append(
                (time, priority, seq, Event(time, callback, tuple(args), self))
            )
            seq += 1
        self._seq = seq
        self._heap.extend(entries)
        heapq.heapify(self._heap)
        return [entry[3] for entry in entries]

    # -- cancellation accounting -------------------------------------------
    def note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` on events owned by this simulator.

        Keeps the cancelled-entry counter live and compacts the heap when
        cancelled entries dominate, so lazy cancellation cannot grow the
        heap beyond ~2x the live event population.
        """
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= COMPACTION_MIN_CANCELLED
            and self._cancelled_in_heap * 2 >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        before = len(self._heap)
        # In place: a running loop holds a reference to this list.
        self._heap[:] = [entry for entry in self._heap if entry[3].state is _PENDING]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        if self.tracer is not None:
            self.tracer.event(
                "sim.compact", t=self._now, before=before, after=len(self._heap)
            )

    def _pop_cancelled(self) -> None:
        """Pop the heap top known to be cancelled, maintaining the counter."""
        heapq.heappop(self._heap)
        self._cancelled_in_heap -= 1

    # -- execution ---------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Fire the single next pending event; return it, or None if empty."""
        while self._heap:
            if self._heap[0][3].state is _CANCELLED:
                self._pop_cancelled()
                continue
            ev = heapq.heappop(self._heap)[3]
            self._now = ev.time
            if self.tracer is not None:
                self.tracer.event("sim.dispatch", t=ev.time)
            ev.fire()
            self._events_fired += 1
            return ev
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            If given, stop once the clock would pass ``until``; the clock is
            advanced to exactly ``until`` and remaining events stay queued.
        max_events:
            Safety valve: stop after firing this many events. While an
            event at or before ``until`` is still pending, the clock
            stays at the last fired event instead of jumping to ``until``.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        fired = 0
        tracer = self.tracer
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap and not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                time, _, _, nxt = heap[0]
                if nxt.state is _CANCELLED:
                    self._pop_cancelled()
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                self._now = time
                if tracer is not None:
                    tracer.event("sim.dispatch", t=time)
                nxt.fire()
                self._events_fired += 1
                fired += 1
            if until is not None and self._now < until and not self._stopped:
                # Only if nothing is left at or before ``until``: after a
                # max_events exit the next run() would otherwise move the
                # clock backwards to the event still pending.
                pending = self.peek_time()
                if pending is None or pending > until:
                    self._now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Request loop exit after the currently firing event returns."""
        self._stopped = True

    # -- introspection -------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        while self._heap and self._heap[0][3].state is _CANCELLED:
            self._pop_cancelled()
        return self._heap[0][0] if self._heap else None

    def drain(self) -> Tuple[int, int]:
        """Discard all queued events; returns (pending, cancelled) counts.

        Discarded pending events are transitioned to CANCELLED so a later
        ``cancel()`` on a held reference cannot corrupt the live counter.
        """
        pending = len(self._heap) - self._cancelled_in_heap
        cancelled = self._cancelled_in_heap
        for _, _, _, ev in self._heap:
            if ev.state is _PENDING:
                ev.state = _CANCELLED
        self._heap.clear()
        self._cancelled_in_heap = 0
        return pending, cancelled
