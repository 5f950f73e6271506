"""Shared-content catalog: object popularity and replica placement.

Substitution for the 2-day KaZaA trace (UW, SOSP'03) and the authors' 24 h
Gnutella query log: the defense never inspects query *content*, only
per-edge message counts, so what matters is (a) per-peer query rate,
(b) query distinctness, and (c) whether a flooded query can find at least
one replica within its TTL radius -- all preserved here.

Objects have Zipf-distributed popularity (the empirical regularity of the
cited traces); replica counts follow popularity, and replicas are placed
uniformly at random over peers, so success probability depends on flood
coverage exactly as in the paper's simulator.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError

#: Synthetic keyword vocabulary used to render query strings.
_ADJECTIVES = (
    "red", "blue", "fast", "live", "remix", "acoustic", "classic", "rare",
    "full", "original", "extended", "deluxe", "vintage", "golden", "midnight",
)
_NOUNS = (
    "song", "album", "movie", "trailer", "concert", "episode", "mix",
    "soundtrack", "demo", "session", "bootleg", "single", "cover", "edit",
    "anthem",
)


@dataclass(frozen=True)
class ContentConfig:
    """Catalog parameters.

    ``num_objects`` distinct shared objects with Zipf(``zipf_s``)
    popularity; object *i* (0-based rank) gets ``replicas_base`` replicas
    scaled by relative popularity, floored at ``replicas_min``.
    """

    num_objects: int = 500
    zipf_s: float = 0.9
    replication_ratio: float = 0.01  # replicas per object ~= ratio * n_peers
    replicas_min: int = 1
    #: Cap on any object's replica share of the population. The KaZaA
    #: trace's fetch-at-most-once behaviour flattens the top of the
    #: replica distribution; without a cap the head objects are replicated
    #: everywhere and query success saturates regardless of flood reach.
    replicas_max_fraction: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_objects < 1:
            raise ConfigError(f"num_objects must be >= 1, got {self.num_objects}")
        if self.zipf_s <= 0:
            raise ConfigError(f"zipf_s must be positive, got {self.zipf_s}")
        if not (0 < self.replication_ratio <= 1):
            raise ConfigError(
                f"replication_ratio must be in (0,1], got {self.replication_ratio}"
            )
        if self.replicas_min < 1:
            raise ConfigError(f"replicas_min must be >= 1, got {self.replicas_min}")
        if not (0 < self.replicas_max_fraction <= 1):
            raise ConfigError(
                f"replicas_max_fraction must be in (0,1], got {self.replicas_max_fraction}"
            )


class ContentCatalog:
    """Objects, popularity, replica placement, and query sampling."""

    def __init__(self, config: ContentConfig, n_peers: int) -> None:
        if n_peers < 1:
            raise ConfigError(f"n_peers must be >= 1, got {n_peers}")
        self.config = config
        self.n_peers = n_peers
        self._rng = random.Random(config.seed)

        # Zipf popularity over ranks 1..K.
        weights = [1.0 / (rank ** config.zipf_s) for rank in range(1, config.num_objects + 1)]
        total = sum(weights)
        self.popularity: List[float] = [w / total for w in weights]
        self._cum: List[float] = []
        acc = 0.0
        for p in self.popularity:
            acc += p
            self._cum.append(acc)
        self._cum[-1] = 1.0  # guard against float drift

        # Replica placement: hot objects get proportionally more replicas.
        mean_replicas = max(config.replicas_min, config.replication_ratio * n_peers)
        self.replica_holders: List[Set[int]] = []
        for rank, p in enumerate(self.popularity):
            count = max(
                config.replicas_min,
                int(round(mean_replicas * p * config.num_objects)),
            )
            cap = max(config.replicas_min, int(config.replicas_max_fraction * n_peers))
            count = min(count, cap, n_peers)
            holders = set(self._rng.sample(range(n_peers), count))
            self.replica_holders.append(holders)

        # Reverse index: peer -> objects it shares.
        self.peer_objects: Dict[int, Set[int]] = {}
        for obj, holders in enumerate(self.replica_holders):
            for peer in holders:
                self.peer_objects.setdefault(peer, set()).add(obj)

    # -- queries ----------------------------------------------------------
    def sample_object(self, rng: random.Random) -> int:
        """Draw an object id by popularity."""
        return bisect.bisect_left(self._cum, rng.random())

    def keywords_for(self, obj: int) -> Tuple[str, str, str]:
        """Deterministic human-ish keyword triple for an object id."""
        if not (0 <= obj < self.config.num_objects):
            raise ConfigError(f"object id {obj} out of range")
        adj = _ADJECTIVES[obj % len(_ADJECTIVES)]
        noun = _NOUNS[(obj // len(_ADJECTIVES)) % len(_NOUNS)]
        return (adj, noun, f"id{obj}")

    def find_object(self, keywords: Sequence[str]) -> Optional[int]:
        """Inverse of :meth:`keywords_for` (resolves on the ``idN`` token);
        ``None`` when no object is named, as in every bogus attack query."""
        for token in keywords:
            if token.startswith("id") and token[2:].isdigit():
                obj = int(token[2:])
                if 0 <= obj < self.config.num_objects:
                    return obj
        return None

    # -- matching ----------------------------------------------------------
    def peer_has(self, peer: int, obj: int) -> bool:
        return peer in self.replica_holders[obj]

    def holders(self, obj: int) -> Set[int]:
        return set(self.replica_holders[obj])

    def replica_count(self, obj: int) -> int:
        return len(self.replica_holders[obj])

    def relocate_replicas(self, departed_peer: int, alive: Sequence[int], rng: random.Random) -> int:
        """Move a departing peer's replicas to random alive peers.

        Keeps replica counts stable under churn so success-rate changes are
        attributable to the attack, not to content evaporation. Returns the
        number of relocated replicas.
        """
        moved = 0
        objs = self.peer_objects.pop(departed_peer, set())
        for obj in objs:
            self.replica_holders[obj].discard(departed_peer)
            if alive:
                target = alive[rng.randrange(len(alive))]
                if target not in self.replica_holders[obj]:
                    self.replica_holders[obj].add(target)
                    self.peer_objects.setdefault(target, set()).add(obj)
                    moved += 1
        return moved
