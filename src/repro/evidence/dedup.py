"""Duplicate-suppression state: the seen cache and the report dedup window.

* :class:`ExactSeenCache` -- the query-GUID membership cache every peer
  keeps ("a query message will be dropped if the query message has
  visited the peer before"): a bounded LRU ``OrderedDict``.
* :class:`ExactDedupWindow` -- the Section 3.3 "don't re-send
  Neighbor_Traffic for the same suspect within 5 seconds" rule in
  ``core/police.py``: a suspect -> last-send-timestamp dict.

Callers split the check-then-record sequence into ``should_send``
(pure) and ``record`` so the force-resend path stays expressible.  Both
are property-tested against frozen copies of the code they replaced.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable

from repro.errors import ConfigError


class ExactSeenCache:
    """LRU membership over recently seen keys."""

    #: Nominal payload bytes per entry (16-byte GUID + table slot) --
    #: a lower bound on the real dict overhead.
    ENTRY_NBYTES = 24

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigError(f"seen-cache limit must be >= 1, got {limit}")
        self.limit = limit
        self._entries: "OrderedDict[Hashable, bool]" = OrderedDict()

    def add(self, key: Hashable) -> None:
        self._entries[key] = True
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def evidence_bytes(self) -> int:
        """Nominal bytes of dedup state currently held."""
        return len(self._entries) * self.ENTRY_NBYTES


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
