"""Per-suspect evidence collection (Section 3.3).

When a peer marks a neighbor suspicious it opens an :class:`Investigation`
against it: it sends Neighbor_Traffic to the other buddy-group members and
waits up to the collection window (5 seconds) for their reports. When all
expected reports are in -- or the window expires -- the reports held go to
the verdict kernel (:mod:`repro.core.decision`), which owns what a silent
member means and how the indicators are compared with the cut threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Optional

from repro.core.config import DDPoliceConfig
from repro.core.decision import Outcome, Verdict, judge, reduce_reports
from repro.core.indicators import NeighborReport
from repro.errors import ConfigError


@dataclass
class Investigation:
    """Evidence about one suspect, held by one observer."""

    observer: Hashable
    suspect: Hashable
    started_at: float
    expected_members: FrozenSet[Hashable]
    own_out_to_suspect: int
    own_in_from_suspect: int
    reports: Dict[Hashable, NeighborReport] = field(default_factory=dict)
    #: The settled verdict; None while evidence is still being collected.
    verdict: Optional[Verdict] = None
    #: Collection-window extensions granted so far (quorum rule).
    window_extensions: int = 0
    #: Re-requests already sent for this investigation (retry rule).
    retries_used: int = 0
    #: Source timestamps of accepted reports, for stale-report rejection.
    report_times: Dict[Hashable, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.observer == self.suspect:
            raise ConfigError("a peer cannot investigate itself")
        if self.observer in self.expected_members:
            raise ConfigError("expected_members must exclude the observer")
        if self.suspect in self.expected_members:
            raise ConfigError("expected_members must exclude the suspect")
        if self.own_out_to_suspect < 0 or self.own_in_from_suspect < 0:
            raise ConfigError("own counts must be non-negative")

    # ------------------------------------------------------------------
    def add_report(
        self,
        member: Hashable,
        report: NeighborReport,
        *,
        timestamp: Optional[int] = None,
    ) -> bool:
        """Record a member's report; late/unexpected members are ignored.

        With a ``timestamp`` (the message's source timestamp), a report
        older than one already held from the same member is rejected --
        a delayed/reordered duplicate must not overwrite fresher
        evidence. Re-delivery of the same report (equal timestamp) is
        idempotent: it overwrites with identical data.

        Returns True if the report was accepted.
        """
        if self.verdict is not None:
            return False
        if member not in self.expected_members:
            return False
        if timestamp is not None:
            prev = self.report_times.get(member)
            if prev is not None and timestamp < prev:
                return False
            self.report_times[member] = timestamp
        self.reports[member] = report
        return True

    @property
    def complete(self) -> bool:
        """All expected members have reported."""
        return set(self.reports.keys()) >= set(self.expected_members)

    @property
    def missing_members(self) -> FrozenSet[Hashable]:
        return frozenset(self.expected_members - set(self.reports.keys()))

    # ------------------------------------------------------------------
    def decide(self, config: DDPoliceConfig) -> Verdict:
        """Judge the suspect on the reports held now (the verdict kernel).

        A member that has not answered is simply absent from the group's
        totals. Every verdict but ``UNDECIDED`` settles the investigation;
        an undecided one leaves it open, so the engine may extend the
        collection window and decide again.
        """
        if self.verdict is not None:
            return self.verdict
        group = reduce_reports(
            len(self.expected_members) + 1,
            ((rep.outgoing, rep.incoming) for rep in self.reports.values()),
        )
        verdict = judge(
            config,
            group,
            self.observer,
            self.suspect,
            self.own_out_to_suspect,
            self.own_in_from_suspect,
            own_counted=False,
        )
        if verdict.outcome is not Outcome.UNDECIDED:
            self.verdict = verdict
        return verdict
