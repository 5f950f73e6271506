"""Neighbor-list exchange (Section 3.1).

Two policies (:class:`~repro.core.config.ExchangePolicy`, scheduled by
:mod:`repro.core.police`) are compared in Section 3.7.1:

* **periodic** -- every peer sends its neighbor list to all neighbors
  every ``s`` minutes (the paper settles on s = 2);
* **event-driven** -- a peer reports whenever a neighbor joins or leaves
  ("favorable to relatively stable networks, but will cause some peers to
  be super busy ... if the network is highly dynamic").

The directory also implements the lying countermeasure: exchanged lists
are cross-checked pairwise; inconsistent claims earn strikes and, past a
tolerance, disconnection with an explanatory Bye.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, NamedTuple, Optional, Set

from repro.errors import ConfigError


class ListSnapshot(NamedTuple):
    """A neighbor list received from one peer.

    A tuple, not a ``__dict__``-backed dataclass: one is alive per
    (observer, owner) pair -- n^2 of them once the lists are confirmed.
    """

    owner: Hashable
    neighbors: FrozenSet[Hashable]
    received_at: float
    #: Sender-side send time, when the message carried one. Lets the
    #: directory reject a stale list delivered (reordered) after a
    #: fresher one.
    sent_at: Optional[float] = None


class NeighborListDirectory:
    """Last-known neighbor lists, as seen by one observer.

    Staleness matters: between exchanges, churn makes lists wrong with
    probability ~ period/lifetime (the "around 3%" analysis in
    Section 3.1), which is the mechanism behind CT-dependent misjudgment.
    """

    def __init__(self) -> None:
        self._lists: Dict[Hashable, ListSnapshot] = {}
        #: Reverse index: peer -> owners whose stored list claims it.
        #: Makes the per-list consistency cross-check O(claimers) instead
        #: of O(directory); behavior-identical because :meth:`claimers`
        #: replays the owners in ``_lists`` insertion order (``_seq``).
        self._claimed_by: Dict[Hashable, Set[Hashable]] = {}
        self._seq: Dict[Hashable, int] = {}
        self._next_seq = 0

    def update(
        self,
        owner: Hashable,
        neighbors: Iterable[Hashable],
        now: float,
        *,
        sent_at: Optional[float] = None,
    ) -> bool:
        """Store ``owner``'s list; returns False if rejected as stale.

        A list is stale when both the held and the incoming snapshot
        carry ``sent_at`` stamps and the incoming one was sent strictly
        earlier -- i.e. the network reordered (or duplicated-with-delay)
        the exchanges. Equal stamps overwrite idempotently.
        """
        held = self._lists.get(owner)
        if sent_at is not None:
            if held is not None and held.sent_at is not None and sent_at < held.sent_at:
                return False
        new = frozenset(neighbors)  # no copy when handed a frozenset
        if held is None:
            old: FrozenSet[Hashable] = frozenset()
            # Mirrors dict key semantics: overwriting keeps the original
            # position, so the sequence number is assigned once.
            self._seq[owner] = self._next_seq
            self._next_seq += 1
        else:
            old = held.neighbors
        if new != old:  # a re-published list leaves the reverse index alone
            for peer in old - new:
                self._claimed_by[peer].discard(owner)
            for peer in new - old:
                self._claimed_by.setdefault(peer, set()).add(owner)
        self._lists[owner] = ListSnapshot(owner, new, now, sent_at)
        return True

    def forget(self, owner: Hashable) -> None:
        snap = self._lists.pop(owner, None)
        if snap is not None:
            for peer in snap.neighbors:
                self._claimed_by[peer].discard(owner)
            del self._seq[owner]

    def get(self, owner: Hashable) -> Optional[ListSnapshot]:
        return self._lists.get(owner)

    def known_neighbors(self, owner: Hashable) -> FrozenSet[Hashable]:
        snap = self._lists.get(owner)
        return snap.neighbors if snap is not None else frozenset()

    def age(self, owner: Hashable, now: float) -> Optional[float]:
        snap = self._lists.get(owner)
        return (now - snap.received_at) if snap is not None else None

    def owners(self) -> List[Hashable]:
        return list(self._lists.keys())

    def claimers(self, peer: Hashable) -> List[Hashable]:
        """Owners whose stored list contains ``peer``.

        Returned in ``_lists`` insertion order -- exactly the owners an
        :meth:`owners` scan filtered on membership would yield, so
        consumers switching to this index see identical iteration order.
        """
        found = self._claimed_by.get(peer)
        if not found:
            return []
        if len(found) == 1:
            return list(found)
        return sorted(found, key=self._seq.__getitem__)



class ConsistencyTracker:
    """Per-pair strike counter behind the liar-disconnection rule.

    "If it gets too many such messages, the good peer will disconnect
    with the neighbor."

    Strikes are keyed by the unordered *pair* whose claims disagree, so a
    single stale relationship cannot aggregate blame onto a peer across
    unrelated pairs; and observing the pair consistent again forgives it
    (transient churn races self-heal, persistent lies do not).
    """

    def __init__(self, tolerance: int) -> None:
        if tolerance < 1:
            raise ConfigError("tolerance must be >= 1")
        self.tolerance = tolerance
        self._strikes: Dict[FrozenSet[Hashable], int] = {}

    @staticmethod
    def _key(a: Hashable, b: Hashable) -> FrozenSet[Hashable]:
        return frozenset((a, b))

    def strike(self, a: Hashable, b: Hashable) -> bool:
        """Record a strike against pair (a, b); True once intolerable."""
        key = self._key(a, b)
        self._strikes[key] = self._strikes.get(key, 0) + 1
        return self._strikes[key] >= self.tolerance

    def observe_consistent(self, a: Hashable, b: Hashable) -> None:
        """The pair's lists agree again: forgive accumulated strikes."""
        if self._strikes:  # the common case holds none: build no key
            self._strikes.pop(self._key(a, b), None)

    def strikes(self, a: Hashable, b: Hashable) -> int:
        return self._strikes.get(self._key(a, b), 0)

    def clear(self, a: Hashable, b: Hashable) -> None:
        self._strikes.pop(self._key(a, b), None)
