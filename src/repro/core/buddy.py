"""Buddy groups (Section 3.1, Figure 7).

"We define peer j's r-hop Buddy Group (BGr-j) as the set of peer j's
[r-hop] neighbors. ... Depending on how many logical neighbors each peer
has, a peer could belong to multiple different BGs. A joining peer
creates its BG membership after its first neighbor list exchanging
operation. A peer pings members within the same BG periodically to make
sure that other members are online."

The evaluated scheme is DD-POLICE-1 (r = 1): BG1-j is exactly j's direct
neighbor set. The r > 1 generalization (r-hop ball minus j) is provided
because Section 3.5 motivates it; it is exercised by the extension tests
and the ablation bench.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, FrozenSet, Hashable, Set

from repro.errors import ConfigError


def buddy_group_of(
    suspect: Hashable,
    neighbors_of: Callable[[Hashable], AbstractSet[Hashable]],
    *,
    radius: int = 1,
) -> FrozenSet[Hashable]:
    """The members of BGr-suspect, from a neighbor oracle.

    ``neighbors_of`` returns the *known* neighbor set of a peer -- in the
    protocol this is the most recent exchanged list, which may be stale;
    staleness is exactly the source of the 2-minute-window misjudgments
    discussed in Section 3.1.

    For ``radius > 1`` the group is the r-hop ball around the suspect
    minus the suspect itself; the suspect is never a member.
    """
    if radius < 1:
        raise ConfigError(f"radius must be >= 1, got {radius}")
    frontier: Set[Hashable] = set(neighbors_of(suspect))
    members: Set[Hashable] = set(frontier)
    for _ in range(radius - 1):
        nxt: Set[Hashable] = set()
        for peer in frontier:
            nxt |= set(neighbors_of(peer))
        nxt -= members
        nxt.discard(suspect)
        members |= nxt
        frontier = nxt
    members.discard(suspect)
    return frozenset(members)
