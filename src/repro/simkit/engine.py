"""Heap-based discrete-event simulator.

The engine owns a virtual clock and a binary heap of
``(time, priority, seq, event)`` tuples. ``seq`` is unique, so ``heapq``
orders entries on the first three fields in C and never compares two
:class:`Event` objects (which define no ordering). Nothing is ever
cancelled: every scheduled event either has fired or is still queued,
so the run loop is pop, set the clock, fire.

A bulk schedule (:meth:`Simulator.schedule_bulk`) is one heap entry, not
one per item: its items wait, time-sorted, in packed arrays, and each
one pushes the next when it fires.
"""

from __future__ import annotations

import heapq
import math
import struct
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.simkit.events import Event

#: One heap entry: ``(time, priority, seq, event)``.
_Entry = Tuple[float, int, int, Event]


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling into the past)."""


class _Batch:
    """The items of one :meth:`Simulator.schedule_bulk` call, in firing
    order: packed times and reserved seqs, and the arguments.

    Only the earliest unfired item, ``head``, is in the heap, as
    ``event``; firing it pushes the one after it first.
    """

    __slots__ = ("sim", "callback", "priority", "times", "seqs", "args", "head", "event")

    def __init__(
        self,
        sim: "Simulator",
        callback: Callable[[Any], Any],
        priority: int,
        times: List[float],
        seqs: List[int],
        args: List[Any],
    ) -> None:
        count = len(times)
        self.sim = sim
        self.callback = callback
        self.priority = priority
        self.times = memoryview(struct.pack(f"{count}d", *times)).cast("d")
        self.seqs = memoryview(struct.pack(f"{count}q", *seqs)).cast("q")
        self.args = args
        self.head = 0
        self.event = Event(0.0, self.fire_next)
        sim._held += count - 1
        self.push(0)

    def push(self, k: int) -> None:
        event = self.event
        event.time = time = self.times[k]
        heapq.heappush(self.sim._heap, (time, self.priority, self.seqs[k], event))

    def fire_next(self) -> None:
        k = self.head
        self.head = nxt = k + 1
        if nxt < len(self.args):
            self.sim._held -= 1
            self.push(nxt)
        self.callback(self.args[k])


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
        #: Bulk-scheduled items waiting behind their batch's heap entry.
        self._held = 0
        self._running = False

    # -- clock ------------------------------------------------------------
    @property
    def events_fired(self) -> int:
        """Number of events fired so far: every scheduled event not
        still queued."""
        return self._seq - len(self._heap) - self._held

    @property
    def pending_count(self) -> int:
        """Number of queued events, bulk-scheduled ones included."""
        return len(self._heap) + self._held

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
        callback: Callable[[Any], Any],
        items: Iterable[Tuple[float, Any]],
        *,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(arg)`` at ``time`` for each ``(time, arg)``.

        Sequence numbers are reserved in iteration order, so the pop
        order ``(time, priority, seq)`` is identical to one
        :meth:`schedule_at` per item, and ``events_fired`` and
        ``pending_count`` count every item. The batch is held in stable
        time order with only a float, an int and the argument per item,
        and just its earliest unfired item is in the heap: firing an item
        pushes the next. One peer timer each at n >= 100k therefore costs
        no ``Event`` or heap entry per peer until it fires. ``priority``
        must be an ``int``, as for :meth:`schedule_at`. A past time
        rejects the whole batch.
        """
        times: List[float] = []
        args: List[Any] = []
        now = self.now
        for time, arg in items:
            if time < now:
                raise SimulationError(
                    f"cannot schedule into the past: t={time} < now={now}"
                )
            times.append(float(time))
            args.append(arg)
        count = len(times)
        if not count:
            return
        seq = self._seq
        self._seq = seq + count
        # Stable, so ties keep iteration (= seq) order. The batch pushes
        # its first item and lives on in its heap entry.
        order = sorted(range(count), key=times.__getitem__)
        _Batch(
            self,
            callback,
            priority,
            list(map(times.__getitem__, order)),
            list(map(seq.__add__, order)),
            list(map(args.__getitem__, order)),
        )

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
