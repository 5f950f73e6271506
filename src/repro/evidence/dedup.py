"""Duplicate-suppression state: the seen cache and the report dedup window.

* :class:`ExactSeenCache` -- the query-GUID table every peer keeps ("a
  query message will be dropped if the query message has visited the
  peer before"), which also holds the reverse path a QueryHit takes
  back: one bounded ``OrderedDict`` from GUID to the neighbor the query
  arrived from.
* :class:`ExactDedupWindow` -- the Section 3.3 "don't re-send
  Neighbor_Traffic for the same suspect within 5 seconds" rule in
  ``core/police.py``: a suspect -> last-send-timestamp dict.

Callers split the check-then-record sequence into ``should_send``
(pure) and ``record`` so the force-resend path stays expressible.  Both
are property-tested against frozen copies of the code they replaced.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional

from repro.errors import ConfigError


class ExactSeenCache:
    """Bounded map from each recently seen key to where it came from.

    A peer stores the neighbor each query arrived from, and its own id
    -- a sentinel no neighbor can equal -- for a query it issued, so one
    table answers both "seen before?" and "which way back?". The first
    writer's value stays. Past ``limit`` keys the oldest key leaves, and
    its value with it: under a binding limit a reverse route is
    forgotten together with its GUID, never kept without it. It is an
    ``OrderedDict`` because ``popitem(last=False)`` evicts in O(1); a
    plain dict's ``next(iter(d))`` rescans the deleted slots at the
    front of its table on every eviction.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigError(f"seen-cache limit must be >= 1, got {limit}")
        self.limit = limit
        self._entries: "OrderedDict[Hashable, Hashable]" = OrderedDict()
        #: ``get(key) -> value | None``: the dict's own ``get``, so the
        #: per-delivery probe costs no Python frame.
        self.get: Callable[[Hashable], Optional[Hashable]] = self._entries.get

    def add(self, key: Hashable, value: Hashable) -> None:
        entries = self._entries
        entries.setdefault(key, value)
        if len(entries) > self.limit:
            entries.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class ExactDedupWindow:
    """Suppress repeat sends for the same key within a time window."""

    #: Nominal payload bytes per entry (key word + float timestamp).
    ENTRY_NBYTES = 16

    def __init__(self, window_s: float) -> None:
        if window_s < 0:
            raise ConfigError(
                f"dedup window must be non-negative, got {window_s}"
            )
        self.window_s = window_s
        self._last_sent: Dict[Hashable, float] = {}

    def should_send(self, key: Hashable, now: float) -> bool:
        """True unless a send for ``key`` was recorded within the window."""
        last = self._last_sent.get(key)
        return last is None or now - last >= self.window_s

    def record(self, key: Hashable, now: float) -> None:
        """Note a send for ``key`` at ``now`` (also used by force paths)."""
        self._last_sent[key] = now

    def evidence_bytes(self) -> int:
        return len(self._last_sent) * self.ENTRY_NBYTES
