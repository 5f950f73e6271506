"""Per-neighbor traffic evidence: the Section 3.2 Out_query/In_query lists.

"Two lists are designed in a peer for each of its logical neighbors":
each :class:`~repro.core.police.DDPoliceEngine` holds one
:class:`ExactTrafficStore`, a bounded deque of :class:`MinuteSample` per
neighbor (property-tested against the frozen pre-refactor monitor).
Keys are generic hashables (PeerId in the DES, int node ids elsewhere).
The SoA engine keeps the same counts as two length-E arrays instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.errors import ConfigError

#: Nominal payload bytes per retained sample (minute, out, in as machine
#: words) -- a deliberate *lower bound* on the real allocator cost of a
#: deque of dataclasses.
SAMPLE_NBYTES = 24
#: Nominal payload bytes per tracked-neighbor key entry.
KEY_NBYTES = 8


@dataclass(frozen=True)
class MinuteSample:
    """Counts for one completed minute window for one neighbor."""

    minute: int
    out_queries: int
    in_queries: int


class ExactTrafficStore:
    """One peer's per-neighbor minute-window evidence (bounded deques)."""

    def __init__(self, history_minutes: int = 10) -> None:
        if history_minutes < 1:
            raise ConfigError("history_minutes must be >= 1")
        self.history_minutes = history_minutes
        self._history: Dict[Hashable, Deque[MinuteSample]] = {}

    def record_window(
        self,
        minute: int,
        out_counts: Mapping[Hashable, int],
        in_counts: Mapping[Hashable, int],
    ) -> None:
        """Ingest one completed minute window's snapshots."""
        keys = set(out_counts) | set(in_counts)
        for key in keys:
            sample = MinuteSample(
                minute=minute,
                out_queries=int(out_counts.get(key, 0)),
                in_queries=int(in_counts.get(key, 0)),
            )
            dq = self._history.setdefault(key, deque(maxlen=self.history_minutes))
            dq.append(sample)

    def forget(self, neighbor: Hashable) -> None:
        """Drop history for a departed neighbor."""
        self._history.pop(neighbor, None)

    def latest(self, neighbor: Hashable) -> Optional[MinuteSample]:
        """The most recent retained sample for ``neighbor``."""
        dq = self._history.get(neighbor)
        return dq[-1] if dq else None

    def out_query(self, neighbor: Hashable) -> int:
        """Out_query(neighbor): queries we sent to it in the last minute."""
        sample = self.latest(neighbor)
        return sample.out_queries if sample else 0

    def in_query(self, neighbor: Hashable) -> int:
        """In_query(neighbor): queries it sent us in the last minute."""
        sample = self.latest(neighbor)
        return sample.in_queries if sample else 0

    def report_pair(self, neighbor: Hashable) -> Tuple[int, int]:
        """(Out_query, In_query) -- the last two Table 1 fields."""
        sample = self.latest(neighbor)
        return (sample.out_queries, sample.in_queries) if sample else (0, 0)

    def suspicious_neighbors(self, warning_threshold_qpm: float) -> List[Hashable]:
        """Neighbors whose last-minute In_query crossed the threshold."""
        result = []
        for key, dq in self._history.items():
            if dq and dq[-1].in_queries > warning_threshold_qpm:
                result.append(key)
        return result

    def history(self, neighbor: Hashable) -> List[MinuteSample]:
        """All retained samples for ``neighbor``, oldest first."""
        return list(self._history.get(neighbor, ()))

    def tracked_neighbors(self) -> List[Hashable]:
        """Neighbors with any retained evidence."""
        return list(self._history.keys())

    def evidence_bytes(self) -> int:
        """Nominal bytes of evidence state currently held."""
        samples = sum(len(dq) for dq in self._history.values())
        return samples * SAMPLE_NBYTES + len(self._history) * KEY_NBYTES
