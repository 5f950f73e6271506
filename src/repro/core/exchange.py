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

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigError


class ListSnapshot(NamedTuple):
    """A neighbor list received from one peer, the directory's one record
    for that owner (its key).

    A tuple, not a ``__dict__``-backed dataclass: one is alive per
    (observer, owner) pair -- n^2 of them once the lists are confirmed.
    """

    neighbors: FrozenSet[Hashable]
    received_at: float
    #: Sender-side send time, when the message carried one. Lets the
    #: directory reject a stale list delivered (reordered) after a
    #: fresher one.
    sent_at: Optional[float]
    #: The owner's rank in ``_lists`` insertion order, assigned when the
    #: owner is first stored and kept across re-publications.
    seq: int


class NeighborListDirectory:
    """Last-known neighbor lists, as seen by one observer.

    Staleness matters: between exchanges, churn makes lists wrong with
    probability ~ period/lifetime (the "around 3%" analysis in
    Section 3.1), which is the mechanism behind CT-dependent misjudgment.
    """

    def __init__(self) -> None:
        self._lists: Dict[Hashable, ListSnapshot] = {}
        #: ``get(owner) -> ListSnapshot | None``: the dict's own ``get``,
        #: so the per-list cross-checks look owners up without a Python frame.
        self.get: Callable[[Hashable], Optional[ListSnapshot]] = self._lists.get
        #: Reverse index: peer -> owners whose stored list claims it, as
        #: one tuple kept in ``_lists`` insertion order (``ListSnapshot.seq``).
        #: Makes the per-list consistency cross-check O(claimers) instead
        #: of O(directory); behavior-identical because :meth:`claimers`
        #: yields the owners an :meth:`owners` scan would. A peer nobody
        #: claims has no key.
        self._claimed_by: Dict[Hashable, Tuple[Hashable, ...]] = {}
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
        lists = self._lists
        held = lists.get(owner)
        if sent_at is not None:
            if held is not None and held.sent_at is not None and sent_at < held.sent_at:
                return False
        new = frozenset(neighbors)  # no copy when handed a frozenset
        if held is None:
            old: FrozenSet[Hashable] = frozenset()
            # Mirrors dict key semantics: overwriting keeps the original
            # position, so the sequence number is assigned once.
            seq = self._next_seq
            self._next_seq = seq + 1
        else:
            old, seq = held.neighbors, held.seq
        lists[owner] = ListSnapshot(new, now, sent_at, seq)
        # A re-published list -- usually the very object already held --
        # leaves the reverse index alone.
        if new is not old and new != old:
            for peer in old - new:
                self._unclaim(peer, owner)
            for peer in new - old:
                self._claim(peer, owner, seq)
        return True

    def _claim(self, peer: Hashable, owner: Hashable, rank: int) -> None:
        held = self._claimed_by.get(peer, ())
        lists = self._lists
        i = len(held)
        while i and lists[held[i - 1]].seq > rank:  # usually appends
            i -= 1
        self._claimed_by[peer] = held[:i] + (owner,) + held[i:]

    def _unclaim(self, peer: Hashable, owner: Hashable) -> None:
        held = self._claimed_by[peer]
        if len(held) == 1:
            del self._claimed_by[peer]
        else:
            i = held.index(owner)
            self._claimed_by[peer] = held[:i] + held[i + 1:]

    def forget(self, owner: Hashable) -> None:
        snap = self._lists.pop(owner, None)
        if snap is not None:
            for peer in snap.neighbors:
                self._unclaim(peer, owner)

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
        return list(self._claimed_by.get(peer, ()))


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
