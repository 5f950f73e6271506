"""The DD-POLICE verdict kernel: one statement of Sections 3.3-3.4.

Every engine (message DES and live through :class:`Investigation`, the
fluid minute step, the batched SoA police round) judges a suspect here.
An engine owns *evidence access* -- who is in the buddy group, which
counts each member holds, which reports are cheated, discarded or absent
-- and *scheduling* -- when a conclusion fires. This module owns the
policy and the record of its outcome:

* a buddy group reduces to :class:`GroupEvidence`: how many members were
  expected, how many answered, and the two integer totals ``sum_m Q_jm``
  / ``sum_m Q_mj`` over those that did (a missing member is simply not
  added, which *is* the paper's "it just assumes that peer j sent 0
  query to peer m");
* :func:`judge` applies the report quorum, the assume-zero rule and
  Definition 2.3 against the cut threshold CT, in that order;
* :class:`Verdict` carries the result with its two projections, the
  :class:`~repro.metrics.errors.Judgment` row and the trace fields.

Pure: no I/O, no clock, no engine imports.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Hashable, Iterable, NamedTuple, Tuple

from repro.core.config import DDPoliceConfig
from repro.core.indicators import indicators_from_totals, is_bad_peer
from repro.metrics.errors import Judgment

NAN = float("nan")


class Outcome(enum.Enum):
    """What an observer concluded about a suspect."""

    CLEARED = "cleared"
    CONVICTED = "convicted"
    #: Too few reports to judge on (quorum rule). An engine with a
    #: collection window may extend it and judge again; recorded as is,
    #: it is an abstention.
    UNDECIDED = "undecided"


# Member lookup on the enum class costs more than the comparison it feeds.
CLEARED, CONVICTED, UNDECIDED = Outcome


class GroupEvidence(NamedTuple):
    """A buddy group BG1-j reduced to what the indicators need.

    ``expected`` is k, every member of the group *including the
    observer*; ``answered`` counts the members whose numbers are in the
    totals. ``sent_by_suspect`` is ``sum Q_jm`` (each answering member's
    In_query(j)), ``received_by_suspect`` is ``sum Q_mj`` (its
    Out_query(j)).
    """

    expected: int
    answered: int
    sent_by_suspect: int
    received_by_suspect: int


def reduce_reports(expected: int, reports: Iterable[Tuple[int, int]]) -> GroupEvidence:
    """Reduce the ``(Out_query(j), In_query(j))`` pairs of the members that
    answered, in Table 1 order, to a group of ``expected`` members."""
    answered = received = sent = 0
    for outgoing, incoming in reports:
        answered += 1
        received += outgoing
        sent += incoming
    return GroupEvidence(expected, answered, sent, received)


class Verdict(NamedTuple):
    """One observer's conclusion about one suspect.

    ``g``/``s`` are NaN when no claim about the suspect's rate is made.
    ``expected``/``answered`` count the reports the observer waited for
    and got from the *other* members.
    """

    observer: Hashable
    suspect: Hashable
    g: float
    s: float
    outcome: Outcome
    reason: str = "ddos"
    expected: int = 0
    answered: int = 0

    @property
    def convicted(self) -> bool:
        return self.outcome is CONVICTED

    def judgment(self, time: float, *, executed: bool = True) -> Judgment:
        """The judgment-log row; ``executed`` is False for a conviction
        that found the connection already gone."""
        return Judgment(
            time, self.observer, self.suspect, self.g, self.s,
            self.convicted and executed, self.reason,
        )

    def trace_fields(self) -> Dict[str, Any]:
        """Fields of a ``police.decision`` / ``police.cut`` trace record."""
        return dict(
            observer=getattr(self.observer, "value", self.observer),
            suspect=getattr(self.suspect, "value", self.suspect),
            outcome=self.outcome.value,
            reason=self.reason,
            g=None if self.g != self.g else self.g,
            s=None if self.s != self.s else self.s,
            reports=self.answered,
            expected=self.expected,
        )


def judge(
    policy: DDPoliceConfig,
    group: GroupEvidence,
    observer: Hashable,
    suspect: Hashable,
    own_out: int,
    own_in: int,
    own_counted: bool = True,
) -> Verdict:
    """``observer``'s verdict on ``suspect`` from the group's evidence.

    ``own_out``/``own_in`` are the observer's Out_query/In_query for the
    suspect; an observer always has its own numbers, so when they are not
    among the group's answers (``own_counted=False``) they are added here.
    """
    k, answered, sent, received = group
    expected = k - 1
    if own_counted:
        answered -= 1
    else:
        sent += own_in
        received += own_out
    if answered < expected:
        if answered / expected < policy.report_quorum:
            # Judging now would mean cutting on mostly-assumed zeros --
            # the loss-driven false negatives the quorum exists to stop.
            return Verdict(
                observer, suspect, NAN, NAN, UNDECIDED, "quorum_unmet",
                expected, answered,
            )
        if not policy.assume_zero_on_missing:
            # Without the assume-zero rule silence stalls the decision:
            # the suspect is cleared this round and no rate is claimed.
            return Verdict(
                observer, suspect, NAN, NAN, CLEARED, "report_missing",
                expected, answered,
            )
    g, s = indicators_from_totals(
        k, sent, received, own_out, own_in, policy.q_threshold_qpm
    )
    bad = is_bad_peer(g, (s,), policy.cut_threshold)
    return Verdict(
        observer, suspect, g, s, CONVICTED if bad else CLEARED,
        "ddos", expected, answered,
    )


def judge_rate_cutoff(
    cutoff_qpm: float, observer: Hashable, suspect: Hashable, count: float
) -> Verdict:
    """The naive baseline's rule: an incoming rate over the cutoff convicts,
    with no buddy group consulted (``g`` is the rate in cutoff units)."""
    outcome = CONVICTED if count > cutoff_qpm else CLEARED
    return Verdict(
        observer, suspect, float(count) / cutoff_qpm, NAN, outcome, "naive_cutoff"
    )
