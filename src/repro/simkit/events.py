"""Event objects for the DES kernel.

An :class:`Event` is the handle a caller keeps for a scheduled callback:
it can be cancelled and carries its lifecycle state. It does *not* order
itself. The scheduler's heap holds ``(time, priority, seq, event)``
tuples, so the deterministic total order -- earlier time first, then
lower priority number, then insertion order (FIFO among ties) -- is
compared by ``heapq`` in C, and ``seq`` is unique, so a comparison never
reaches the event object.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Tuple


class EventState(enum.Enum):
    """Lifecycle of a scheduled event."""

    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


#: Bound once: reading a member off its enum class costs ~90 ns on
#: CPython 3.11 (a module global: ~7 ns), and ``fire`` runs per event.
_PENDING, _FIRED, _CANCELLED = EventState.PENDING, EventState.FIRED, EventState.CANCELLED


class Event:
    """A scheduled callback.

    Built only by :class:`~repro.simkit.engine.Simulator` (callers get
    one back from ``schedule_*`` and use it as a handle; the constructor
    checks nothing). The simulator validates and coerces ``time`` once
    and keeps the event's priority and sequence number in the heap entry
    rather than on the event.

    Parameters
    ----------
    time:
        Virtual time at which the event fires.
    callback:
        Callable invoked as ``callback(*args)`` when the event fires.
    owner:
        Owning scheduler; lets ``cancel`` report lazily-cancelled events
        so the engine can keep an O(1) pending count and compact the heap.
    """

    __slots__ = ("time", "callback", "args", "state", "owner")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        owner: Optional[Any] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.state = _PENDING
        self.owner = owner

    def cancel(self) -> bool:
        """Cancel a pending event. Returns True if it was still pending."""
        if self.state is _PENDING:
            self.state = _CANCELLED
            if self.owner is not None:
                self.owner.note_cancelled()
            return True
        return False

    @property
    def cancelled(self) -> bool:
        return self.state is _CANCELLED

    @property
    def pending(self) -> bool:
        return self.state is _PENDING

    def fire(self) -> None:
        """Invoke the callback; transitions PENDING -> FIRED."""
        if self.state is not _PENDING:
            raise RuntimeError(f"cannot fire event in state {self.state}")
        self.state = _FIRED
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6g}, cb={name}, state={self.state.value})"
