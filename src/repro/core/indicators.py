"""Definitions 2.1-2.3: the General and Single indicators.

Notation (Section 2.2): ``Q_ih(t)`` is the number of queries sent
(issued + forwarded) from peer i to peer h during minute t. Peer j has k
neighbors m1..mk; q is the good-peer issue threshold (10 queries/min).

Definition 2.1 (General Indicator)::

    g(j,t) = (1 / (q*k)) * ( sum_m Q_jm(t)  -  (k-1) * sum_m Q_mj(t) )

Definition 2.2 (Single Indicator, measured by neighbor i)::

    s(j,t,i) = (1/q) * ( Q_ji(t) - sum_{m != i} Q_mj(t) )

Definition 2.3: j is a *bad peer* iff ``g(j,t) > 1`` or ``s(j,t,i) > 1``
for any neighbor i; in deployment the decision threshold is the cut
threshold CT > 1 (Section 3.3).

Sanity anchor (Figure 2): if j issues q0 queries/min and faithfully
forwards everything, both indicators evaluate to exactly ``q0 / q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class NeighborReport:
    """One buddy-group member's Neighbor_Traffic numbers about suspect j.

    Fields follow Table 1 from the *reporting member m's* perspective:

    * ``outgoing``: queries m sent to j in the past minute  (= Q_mj)
    * ``incoming``: queries m received from j in the past minute (= Q_jm)
    """

    member: int
    outgoing: int
    incoming: int

    def __post_init__(self) -> None:
        if self.outgoing < 0 or self.incoming < 0:
            raise ConfigError("report counts must be non-negative")


def general_indicator(
    sent_by_j: Sequence[float],
    received_by_j: Sequence[float],
    q: float,
) -> float:
    """Definition 2.1.

    Parameters
    ----------
    sent_by_j:
        ``[Q_jm(t) for m in neighbors]`` -- what j sent to each neighbor
        (each member m observes this as its In_query(j)).
    received_by_j:
        ``[Q_mj(t) for m in neighbors]`` -- what each neighbor sent to j.
    q:
        Good-peer issue threshold (queries/min).
    """
    if q <= 0:
        raise ConfigError(f"q must be positive, got {q}")
    if len(sent_by_j) != len(received_by_j):
        raise ConfigError(
            f"mismatched report lengths: {len(sent_by_j)} vs {len(received_by_j)}"
        )
    k = len(sent_by_j)
    if k == 0:
        raise ConfigError("general indicator needs at least one neighbor")
    total_out = float(sum(sent_by_j))
    total_in = float(sum(received_by_j))
    return (total_out - (k - 1) * total_in) / (q * k)


def single_indicator(
    q_ji: float,
    received_by_j_from_others: Iterable[float],
    q: float,
) -> float:
    """Definition 2.2: s(j,t,i) from the viewpoint of neighbor i.

    Parameters
    ----------
    q_ji:
        Queries j sent to i in minute t (i's own In_query(j)).
    received_by_j_from_others:
        ``[Q_mj(t) for m in neighbors, m != i]``.
    q:
        Good-peer issue threshold.
    """
    if q <= 0:
        raise ConfigError(f"q must be positive, got {q}")
    if q_ji < 0:
        raise ConfigError(f"q_ji must be non-negative, got {q_ji}")
    return (float(q_ji) - float(sum(received_by_j_from_others))) / q


def indicators_from_totals(
    k: int,
    total_sent_by_j: float,
    total_received_by_j: float,
    own_out_to_j: float,
    own_in_from_j: float,
    q: float,
) -> Tuple[float, float]:
    """(g(j,t), s(j,t,i)) from the buddy group's *totals*.

    ``total_sent_by_j`` is ``sum_m Q_jm`` and ``total_received_by_j`` is
    ``sum_m Q_mj`` over all ``k`` members, observer i included with its
    own counts; i's single indicator then needs only its own two numbers,
    because ``sum_{m != i} Q_mj = total_received_by_j - Q_ij``. Counts are
    integers, so the totals are exact and independent of summation order:
    a group is reduced once, O(members), and every observer judged from
    it in O(1), with the same floats the per-member lists of
    :func:`general_indicator` / :func:`single_indicator` give.
    """
    if q <= 0:
        raise ConfigError(f"q must be positive, got {q}")
    if k < 1:
        raise ConfigError("general indicator needs at least one neighbor")
    if own_in_from_j < 0:
        raise ConfigError(f"q_ji must be non-negative, got {own_in_from_j}")
    g = (float(total_sent_by_j) - (k - 1) * float(total_received_by_j)) / (q * k)
    s = (float(own_in_from_j) - float(total_received_by_j - own_out_to_j)) / q
    return g, s


def indicators_from_reports(
    observer: int,
    own_out_to_j: int,
    own_in_from_j: int,
    reports: Mapping[int, Optional[NeighborReport]],
    q: float,
) -> Tuple[float, float]:
    """Compute (g, s) at ``observer`` for suspect j from buddy reports.

    ``reports`` maps every *other* BG1-j member id to its report, or None
    when the member never answered within the collection window -- treated
    as (0, 0) per Section 3.4: "it just assumes that peer j sent 0 query".

    Returns ``(g(j,t), s(j,t,observer))``.
    """
    if observer in reports:
        raise ConfigError("observer must not appear in reports")
    answered = [rep for rep in reports.values() if rep is not None]
    return indicators_from_totals(
        len(reports) + 1,
        own_in_from_j + sum(rep.incoming for rep in answered),
        own_out_to_j + sum(rep.outgoing for rep in answered),
        own_out_to_j,
        own_in_from_j,
        q,
    )


def is_bad_peer(g: float, s_values: Iterable[float], threshold: float = 1.0) -> bool:
    """Definition 2.3 with an explicit threshold (CT in deployment).

    j is bad iff g exceeds the threshold or *any* single indicator does.
    """
    if threshold <= 0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    if g > threshold:
        return True
    for s in s_values:
        if s > threshold:
            return True
    return False
