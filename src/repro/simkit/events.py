"""Event objects for the DES kernel.

An :class:`Event` is one scheduled callback: a time, a callable and its
arguments. It does *not* order itself. The scheduler's heap holds
``(time, priority, seq, event)`` tuples, so the deterministic total
order -- earlier time first, then lower priority number, then insertion
order (FIFO among ties) -- is compared by ``heapq`` in C, and ``seq`` is
unique, so a comparison never reaches the event object.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback.

    Built only by :class:`~repro.simkit.engine.Simulator`, which
    validates and coerces ``time`` once and keeps the event's priority
    and sequence number in the heap entry rather than on the event.
    Scheduled events always fire: nothing cancels one.

    Parameters
    ----------
    time:
        Virtual time at which the event fires.
    callback:
        Callable invoked as ``callback(*args)`` when the event fires.
    """

    __slots__ = ("time", "callback", "args")

    def __init__(
        self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...] = ()
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args

    def fire(self) -> None:
        """Invoke the callback."""
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6g}, cb={name})"
