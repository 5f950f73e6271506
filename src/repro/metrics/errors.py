"""Judgment accounting: false negative / false positive / false judgment.

Figure 13 terminology (quoted from Section 3.7.2, which swaps the usual
meanings -- we keep the paper's definitions and note the swap):

* **false negative** -- "the number of good peers that are wrongly
  disconnected";
* **false positive** -- "the number of bad peers that are not identified
  and not disconnected";
* **false judgment** -- the sum of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Set

from repro.errors import ConfigError


@dataclass(frozen=True)
class Judgment:
    """One disconnect-or-clear decision by an observer about a suspect."""

    time: float
    observer: Hashable
    suspect: Hashable
    g_value: float
    s_value: float
    disconnected: bool
    reason: str = "ddos"


@dataclass(frozen=True)
class ErrorCounts:
    """Figure 13's three error measures."""

    false_negative: int  # good peers wrongly disconnected (paper's term)
    false_positive: int  # bad peers never caught (paper's term)

    @property
    def false_judgment(self) -> int:
        return self.false_negative + self.false_positive


class JudgmentLog:
    """Collects every DD-POLICE decision across the network."""

    def __init__(self) -> None:
        self.judgments: List[Judgment] = []

    def record(self, judgment: Judgment) -> None:
        self.judgments.append(judgment)

    def disconnect_events(self) -> List[Judgment]:
        return [j for j in self.judgments if j.disconnected]

    def disconnected_suspects(self) -> Set[Hashable]:
        return {j.suspect for j in self.judgments if j.disconnected}

    def first_disconnect_time(self, suspect: Hashable) -> Optional[float]:
        times = [
            j.time for j in self.judgments if j.disconnected and j.suspect == suspect
        ]
        return min(times) if times else None

    # ------------------------------------------------------------------
    def error_counts(self, bad_peers: Set[Hashable]) -> ErrorCounts:
        """Evaluate against ground truth.

        ``false_negative`` counts *distinct good peers* that were ever
        disconnected as suspects; ``false_positive`` counts bad peers that
        were never disconnected by anyone.
        """
        if bad_peers is None:
            raise ConfigError("bad_peers ground truth required")
        cut = self.disconnected_suspects()
        good_cut = len({s for s in cut if s not in bad_peers})
        bad_missed = len([b for b in bad_peers if b not in cut])
        return ErrorCounts(false_negative=good_cut, false_positive=bad_missed)
