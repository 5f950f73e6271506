"""Pluggable per-neighbor traffic evidence stores.

The :class:`TrafficStore` interface is the Section 3.2 Out_query/In_query
bookkeeping ("two lists are designed in a peer for each of its logical
neighbors"), held directly by each :class:`~repro.core.police.DDPoliceEngine`:

* :class:`ExactTrafficStore` -- the pre-refactor behavior, verbatim: a
  bounded deque of :class:`MinuteSample` per neighbor.  The default, and
  byte-identical to the code it replaced (property-tested against a
  frozen oracle).
* :class:`CountMinTrafficStore` -- one count-min pair (out, in) per
  retained minute, answering ``report_pair``/``suspicious_neighbors``
  within the sketch's ``eps * N`` overcount (never an undercount, so a
  flooding neighbor is never missed; the cost is possible false
  suspects, which the DD-POLICE investigation then vets).

Keys are generic hashables (PeerId in the DES, int node ids elsewhere).
The SoA engine does not use these scalar stores -- it keeps its own
vectorized count-min arrays hashed by edge id -- but both implement the
same estimate semantics (docs/SKETCH.md).
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.evidence.config import EvidenceConfig
from repro.evidence.countmin import CountMinSketch

#: Nominal payload bytes per retained exact sample (minute, out, in as
#: machine words) -- a deliberate *lower bound* on the real allocator
#: cost of a deque of dataclasses, so exact-vs-sketch memory comparisons
#: favor the exact baseline.
SAMPLE_NBYTES = 24
#: Nominal payload bytes per tracked-neighbor key entry.
KEY_NBYTES = 8


@dataclass(frozen=True)
class MinuteSample:
    """Counts for one completed minute window for one neighbor."""

    minute: int
    out_queries: int
    in_queries: int


class TrafficStore(abc.ABC):
    """One peer's per-neighbor minute-window evidence."""

    history_minutes: int

    @abc.abstractmethod
    def record_window(
        self,
        minute: int,
        out_counts: Mapping[Hashable, int],
        in_counts: Mapping[Hashable, int],
    ) -> None:
        """Ingest one completed minute window's snapshots."""

    @abc.abstractmethod
    def forget(self, neighbor: Hashable) -> None:
        """Drop history for a departed neighbor."""

    @abc.abstractmethod
    def latest(self, neighbor: Hashable) -> Optional[MinuteSample]:
        """The most recent retained sample (estimate) for ``neighbor``."""

    @abc.abstractmethod
    def suspicious_neighbors(self, warning_threshold_qpm: float) -> List[Hashable]:
        """Neighbors whose last-minute In_query crossed the threshold."""

    @abc.abstractmethod
    def history(self, neighbor: Hashable) -> List[MinuteSample]:
        """All retained samples (estimates) for ``neighbor``, oldest first."""

    @abc.abstractmethod
    def tracked_neighbors(self) -> List[Hashable]:
        """Neighbors with any retained evidence."""

    @abc.abstractmethod
    def evidence_bytes(self) -> int:
        """Nominal bytes of evidence state currently held."""

    # -- shared derived queries ----------------------------------------
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
        return self.out_query(neighbor), self.in_query(neighbor)


class ExactTrafficStore(TrafficStore):
    """Bounded per-neighbor deques of exact minute samples (default)."""

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
        self._history.pop(neighbor, None)

    def latest(self, neighbor: Hashable) -> Optional[MinuteSample]:
        dq = self._history.get(neighbor)
        return dq[-1] if dq else None

    def suspicious_neighbors(self, warning_threshold_qpm: float) -> List[Hashable]:
        result = []
        for key, dq in self._history.items():
            if dq and dq[-1].in_queries > warning_threshold_qpm:
                result.append(key)
        return result

    def history(self, neighbor: Hashable) -> List[MinuteSample]:
        return list(self._history.get(neighbor, ()))

    def tracked_neighbors(self) -> List[Hashable]:
        return list(self._history.keys())

    def evidence_bytes(self) -> int:
        samples = sum(len(dq) for dq in self._history.values())
        return samples * SAMPLE_NBYTES + len(self._history) * KEY_NBYTES


class CountMinTrafficStore(TrafficStore):
    """Per-minute count-min pairs at a fixed memory budget.

    One ``(minute, out_sketch, in_sketch)`` frame per retained minute;
    neighbor identity is kept only as the key set needed to answer
    ``suspicious_neighbors`` (the sketches themselves cannot enumerate
    keys).  Semantics vs exact: estimates never undercount; a neighbor
    silent for ``history_minutes`` global rollovers ages out of the
    frame ring even if it was the only one recorded (the exact store
    retains per-neighbor samples until ``forget``), which only ever
    *clears* stale suspicion.
    """

    def __init__(
        self,
        history_minutes: int = 10,
        *,
        width: int,
        depth: int,
        seed: int = 0,
    ) -> None:
        if history_minutes < 1:
            raise ConfigError("history_minutes must be >= 1")
        self.history_minutes = history_minutes
        self.width = width
        self.depth = depth
        self.seed = seed
        self._frames: Deque[Tuple[int, CountMinSketch, CountMinSketch]] = deque(
            maxlen=history_minutes
        )
        #: neighbor -> minute of its most recent recorded window.
        self._tracked: Dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    def _frame_for(
        self, minute: int
    ) -> Optional[Tuple[int, CountMinSketch, CountMinSketch]]:
        for frame in reversed(self._frames):
            if frame[0] == minute:
                return frame
        return None

    def record_window(
        self,
        minute: int,
        out_counts: Mapping[Hashable, int],
        in_counts: Mapping[Hashable, int],
    ) -> None:
        frame = self._frame_for(minute)  # a revisited minute reuses its frame
        if frame is None:
            frame = (
                minute,
                CountMinSketch(self.width, self.depth, seed=self.seed),
                CountMinSketch(self.width, self.depth, seed=self.seed + 1),
            )
            self._frames.append(frame)
        _, out_sk, in_sk = frame
        for key in set(out_counts) | set(in_counts):
            self._tracked[key] = minute
            out = int(out_counts.get(key, 0))
            if out:
                out_sk.add(key, out)
            inc = int(in_counts.get(key, 0))
            if inc:
                in_sk.add(key, inc)

    def forget(self, neighbor: Hashable) -> None:
        self._tracked.pop(neighbor, None)

    def latest(self, neighbor: Hashable) -> Optional[MinuteSample]:
        minute = self._tracked.get(neighbor)
        if minute is None:
            return None
        frame = self._frame_for(minute)
        if frame is None:  # aged out of the frame ring
            return None
        _, out_sk, in_sk = frame
        return MinuteSample(
            minute=minute,
            out_queries=out_sk.estimate(neighbor),
            in_queries=in_sk.estimate(neighbor),
        )

    def suspicious_neighbors(self, warning_threshold_qpm: float) -> List[Hashable]:
        result = []
        for key in self._tracked:
            sample = self.latest(key)
            if sample is not None and sample.in_queries > warning_threshold_qpm:
                result.append(key)
        return result

    def history(self, neighbor: Hashable) -> List[MinuteSample]:
        if neighbor not in self._tracked:
            return []
        last = self._tracked[neighbor]
        return [
            MinuteSample(
                minute=minute,
                out_queries=out_sk.estimate(neighbor),
                in_queries=in_sk.estimate(neighbor),
            )
            for minute, out_sk, in_sk in self._frames
            if minute <= last
        ]

    def tracked_neighbors(self) -> List[Hashable]:
        return list(self._tracked.keys())

    def evidence_bytes(self) -> int:
        sketches = sum(o.nbytes + i.nbytes for _, o, i in self._frames)
        return sketches + len(self._tracked) * KEY_NBYTES


def make_traffic_store(
    evidence: EvidenceConfig,
    *,
    history_minutes: int = 10,
    seed: int = 0,
) -> TrafficStore:
    """The store a config selects (exact unless ``backend="sketch"``)."""
    if evidence.sketched:
        return CountMinTrafficStore(
            history_minutes,
            width=evidence.cm_width,
            depth=evidence.cm_depth,
            seed=seed,
        )
    return ExactTrafficStore(history_minutes)
