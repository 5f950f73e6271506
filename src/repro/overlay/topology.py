"""BRITE-like overlay topology generation.

The paper generates "100 logical topologies with 20,000 peers. Most peers
have 3 or 4 logical neighbors, and a few peers have tens of direct
neighbors. The average number of neighbors of each node is 6."

That profile is exactly a Barabasi-Albert preferential-attachment graph
with ``m = 3`` (degree mode at m, mean 2m = 6, power-law tail), which is
one of BRITE's standard modes. We implement:

* :func:`barabasi_albert` -- preferential attachment (BRITE "BA" mode),
* :func:`waxman` -- distance-probability random graph (BRITE "Waxman"
  mode), provided for sensitivity studies,
* :func:`random_regularish` -- Erdos-Renyi-style with a target mean degree,
  a baseline without a heavy tail,
* :func:`hard_cutoff_scale_free` -- preferential attachment with a hard
  degree cutoff (Guclu & Yuksel): saturated nodes leave the attachment
  pool, truncating the power-law tail -- no mega-hubs to amplify (or
  choke on) a flood,
* :func:`bittorrent_like` -- tracker-style uniform-random peer selection
  with min/max peer-set bounds, the flat-degree swarm profile.

All generators return a :class:`Topology`: an undirected simple graph over
node ids ``0..n-1`` stored as adjacency sets, guaranteed connected.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import TopologyError


@dataclass
class Topology:
    """Undirected simple graph over integer node ids."""

    n: int
    adjacency: List[Set[int]]
    kind: str = "unknown"

    def __post_init__(self) -> None:
        if len(self.adjacency) != self.n:
            raise TopologyError(
                f"adjacency length {len(self.adjacency)} != n {self.n}"
            )

    # -- basic queries ------------------------------------------------
    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def degrees(self) -> List[int]:
        return [len(a) for a in self.adjacency]

    def neighbors(self, u: int) -> FrozenSet[int]:
        return frozenset(self.adjacency[u])

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Each undirected edge yielded once as (u, v) with u < v."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    # -- mutation (used by churn/rewiring) ------------------------------
    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise TopologyError(f"self-loop at node {u}")
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)

    # -- invariants ------------------------------------------------------
    def check_symmetric(self) -> bool:
        """True iff adjacency is a valid undirected simple graph."""
        for u in range(self.n):
            if u in self.adjacency[u]:
                return False
            for v in self.adjacency[u]:
                if u not in self.adjacency[v]:
                    return False
        return True

    def connected_component(self, start: int) -> Set[int]:
        """BFS component containing ``start``."""
        seen = {start}
        frontier = [start]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in self.adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(self.connected_component(0)) == self.n


def topology_from_adjacency(
    adjacency: Mapping[int, Iterable[int]], n: Optional[int] = None
) -> Topology:
    """An explicit topology from a (possibly partial, one-sided) adjacency map.

    Every listed edge is made symmetric; ``n`` defaults to one past the
    largest node id named anywhere in ``adjacency``.
    """
    nodes = set(adjacency)
    for vs in adjacency.values():
        nodes |= set(vs)
    size = n if n is not None else (max(nodes) + 1 if nodes else 0)
    adj: List[Set[int]] = [set() for _ in range(size)]
    for u, vs in adjacency.items():
        for v in vs:
            adj[u].add(v)
            adj[v].add(u)
    return Topology(n=size, adjacency=adj, kind="explicit")


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters for :func:`generate_topology`.

    ``model`` is one of ``"ba"``, ``"waxman"``, ``"random"``. Default
    values reproduce the paper's stated degree profile.
    """

    n: int = 2000
    model: str = "ba"
    ba_m: int = 3
    waxman_alpha: float = 0.15
    waxman_beta: float = 0.4
    target_mean_degree: float = 6.0
    super_fraction: float = 0.15
    #: hard_cutoff: maximum degree; saturated nodes stop accepting links.
    degree_cutoff: int = 12
    #: bittorrent: peer-set bounds handed out by the "tracker".
    bt_min_peers: int = 4
    bt_max_peers: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise TopologyError(f"need at least 2 nodes, got {self.n}")
        if self.model not in (
            "ba", "waxman", "random", "two_tier", "hard_cutoff", "bittorrent"
        ):
            raise TopologyError(f"unknown topology model {self.model!r}")
        if self.ba_m < 1:
            raise TopologyError(f"ba_m must be >= 1, got {self.ba_m}")
        if self.model in ("ba", "hard_cutoff") and self.n <= self.ba_m:
            raise TopologyError(
                f"BA needs n > m ({self.n} <= {self.ba_m})"
            )
        if not (0 < self.super_fraction < 1):
            raise TopologyError(
                f"super_fraction must be in (0,1), got {self.super_fraction}"
            )
        if self.degree_cutoff <= self.ba_m:
            raise TopologyError(
                f"degree_cutoff must exceed ba_m "
                f"({self.degree_cutoff} <= {self.ba_m})"
            )
        if self.bt_min_peers < 1:
            raise TopologyError(
                f"bt_min_peers must be >= 1, got {self.bt_min_peers}"
            )
        if self.bt_max_peers < self.bt_min_peers:
            raise TopologyError(
                f"bt_max_peers < bt_min_peers "
                f"({self.bt_max_peers} < {self.bt_min_peers})"
            )


def barabasi_albert(n: int, m: int, rng: random.Random) -> Topology:
    """Preferential attachment: each new node links to ``m`` existing nodes
    chosen with probability proportional to degree.

    Produces degree mode ``m``, mean ``~2m``, and a power-law tail -- the
    BRITE profile the paper uses (m=3 -> mean degree 6).
    """
    if n <= m:
        raise TopologyError(f"BA requires n > m (n={n}, m={m})")
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    # Seed clique of m+1 nodes so early targets have nonzero degree.
    repeated: List[int] = []  # node repeated once per incident edge
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            adjacency[u].add(v)
            adjacency[v].add(u)
            repeated.append(u)
            repeated.append(v)
    for u in range(m + 1, n):
        targets: Set[int] = set()
        while len(targets) < m:
            targets.add(repeated[rng.randrange(len(repeated))])
        for v in targets:
            adjacency[u].add(v)
            adjacency[v].add(u)
            repeated.append(u)
            repeated.append(v)
    return Topology(n=n, adjacency=adjacency, kind="ba")


def hard_cutoff_scale_free(
    n: int, m: int, cutoff: int, rng: random.Random
) -> Topology:
    """Preferential attachment with a hard degree cutoff.

    Guclu & Yuksel ("Scale-Free Overlay Topologies with Hard Cutoffs"):
    grow a BA graph, but a node whose degree reaches ``cutoff`` leaves
    the attachment pool and accepts no further links. The power-law tail
    is truncated at the cutoff -- the overlay keeps BA's short paths but
    has no mega-hubs, which changes how a flood concentrates.
    """
    if n <= m:
        raise TopologyError(f"BA requires n > m (n={n}, m={m})")
    if cutoff <= m:
        raise TopologyError(f"cutoff must exceed m ({cutoff} <= {m})")
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    repeated: List[int] = []  # node repeated once per incident edge
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            adjacency[u].add(v)
            adjacency[v].add(u)
            repeated.append(u)
            repeated.append(v)
    for u in range(m + 1, n):
        targets: Set[int] = set()
        attempts = 0
        # Preferential attachment over *unsaturated* nodes: saturated
        # candidates are rejected. New arrivals keep the eligible pool
        # non-empty (their degree m is below the cutoff), so the uniform
        # fallback only triggers when the preferential mass concentrates
        # on saturated nodes.
        while len(targets) < m and attempts < 50 * m:
            attempts += 1
            cand = repeated[rng.randrange(len(repeated))]
            if cand not in targets and len(adjacency[cand]) < cutoff:
                targets.add(cand)
        if len(targets) < m:
            eligible = [
                v
                for v in range(u)
                if len(adjacency[v]) < cutoff and v not in targets
            ]
            while len(targets) < m and eligible:
                targets.add(eligible.pop(rng.randrange(len(eligible))))
        for v in targets:
            adjacency[u].add(v)
            adjacency[v].add(u)
            repeated.append(u)
            repeated.append(v)
    return Topology(n=n, adjacency=adjacency, kind="hard_cutoff")


def bittorrent_like(
    n: int, min_peers: int, max_peers: int, rng: random.Random
) -> Topology:
    """Tracker-style swarm wiring: uniform-random bounded peer sets.

    Nodes join sequentially; each asks the "tracker" for ``min_peers``
    uniform-random existing peers that still have capacity (degree below
    ``max_peers``) and connects to all of them. No preferential
    attachment: degrees are flat-random and capped, the BitTorrent swarm
    profile rather than Gnutella's heavy tail.
    """
    if min_peers < 1 or max_peers < min_peers:
        raise TopologyError(
            f"need 1 <= min_peers <= max_peers (got {min_peers}, {max_peers})"
        )
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    open_slots: List[int] = [0]  # ids with degree < max_peers, in join order
    for u in range(1, n):
        want = min(min_peers, len(open_slots))
        chosen = rng.sample(open_slots, want)
        for v in chosen:
            adjacency[u].add(v)
            adjacency[v].add(u)
            if len(adjacency[v]) >= max_peers:
                open_slots.remove(v)
        if len(adjacency[u]) < max_peers:
            open_slots.append(u)
    topo = Topology(n=n, adjacency=adjacency, kind="bittorrent")
    if not topo.is_connected():
        _stitch_components(topo, rng)
    return topo


def waxman(
    n: int,
    alpha: float,
    beta: float,
    rng: random.Random,
    *,
    connect: bool = True,
) -> Topology:
    """Waxman random graph: nodes on a unit square, edge probability
    ``alpha * exp(-d / (beta * L))`` with L the maximal distance.

    BRITE's other standard mode; included for sensitivity benches.
    """
    if not (0 < alpha <= 1) or not (0 < beta <= 1):
        raise TopologyError(f"alpha/beta must be in (0,1], got {alpha}, {beta}")
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    L = math.sqrt(2.0)
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    for u in range(n):
        xu, yu = pts[u]
        for v in range(u + 1, n):
            xv, yv = pts[v]
            d = math.hypot(xu - xv, yu - yv)
            if rng.random() < alpha * math.exp(-d / (beta * L)):
                adjacency[u].add(v)
                adjacency[v].add(u)
    topo = Topology(n=n, adjacency=adjacency, kind="waxman")
    if connect:
        _stitch_components(topo, rng)
    return topo


def random_regularish(n: int, mean_degree: float, rng: random.Random) -> Topology:
    """Erdos-Renyi G(n, p) with p chosen for the target mean degree."""
    if mean_degree <= 0 or mean_degree >= n:
        raise TopologyError(f"mean degree {mean_degree} infeasible for n={n}")
    p = mean_degree / (n - 1)
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adjacency[u].add(v)
                adjacency[v].add(u)
    topo = Topology(n=n, adjacency=adjacency, kind="random")
    _stitch_components(topo, rng)
    return topo


def _stitch_components(topo: Topology, rng: random.Random) -> None:
    """Connect a possibly disconnected graph by chaining components."""
    unseen = set(range(topo.n))
    components: List[List[int]] = []
    while unseen:
        start = next(iter(unseen))
        comp = topo.connected_component(start)
        components.append(sorted(comp))
        unseen -= comp
    for prev, cur in zip(components, components[1:]):
        u = prev[rng.randrange(len(prev))]
        v = cur[rng.randrange(len(cur))]
        topo.add_edge(u, v)


def two_tier(
    n: int,
    super_fraction: float,
    rng: random.Random,
    *,
    super_m: int = 3,
    leaves_per_super_cap: int = 30,
) -> Topology:
    """Gnutella 0.6 super-peer topology.

    The first ``round(n * super_fraction)`` node ids are super-peers,
    wired among themselves with preferential attachment (the flooding
    backbone); every remaining node is a leaf attached to one or two
    super-peers. Matches the deployment the paper measured (its
    monitoring node "is configured as a super node connecting to ten
    peers").
    """
    if not (0 < super_fraction < 1):
        raise TopologyError(f"super_fraction must be in (0,1), got {super_fraction}")
    n_super = max(super_m + 1, round(n * super_fraction))
    if n_super >= n:
        raise TopologyError("no leaves left; lower super_fraction")
    backbone = barabasi_albert(n_super, super_m, rng)
    adjacency: List[Set[int]] = [set(vs) for vs in backbone.adjacency]
    adjacency.extend(set() for _ in range(n - n_super))
    leaf_count = [0] * n_super
    for leaf in range(n_super, n):
        want = 1 if rng.random() < 0.7 else 2  # most leaves single-homed
        chosen: Set[int] = set()
        attempts = 0
        while len(chosen) < want and attempts < 50:
            attempts += 1
            s = rng.randrange(n_super)
            if s in chosen or leaf_count[s] >= leaves_per_super_cap:
                continue
            chosen.add(s)
            leaf_count[s] += 1
        if not chosen:  # all supers full: attach anyway to the emptiest
            s = min(range(n_super), key=lambda i: leaf_count[i])
            chosen = {s}
            leaf_count[s] += 1
        for s in chosen:
            adjacency[leaf].add(s)
            adjacency[s].add(leaf)
    topo = Topology(n=n, adjacency=adjacency, kind="two_tier")
    if not topo.is_connected():  # pragma: no cover - backbone is connected
        _stitch_components(topo, rng)
    return topo


def generate_topology(config: TopologyConfig) -> Topology:
    """Generate a topology per ``config`` (seeded, deterministic)."""
    rng = random.Random(config.seed)
    if config.model == "ba":
        topo = barabasi_albert(config.n, config.ba_m, rng)
    elif config.model == "hard_cutoff":
        topo = hard_cutoff_scale_free(
            config.n, config.ba_m, config.degree_cutoff, rng
        )
    elif config.model == "bittorrent":
        topo = bittorrent_like(
            config.n, config.bt_min_peers, config.bt_max_peers, rng
        )
    elif config.model == "waxman":
        topo = waxman(config.n, config.waxman_alpha, config.waxman_beta, rng)
    elif config.model == "two_tier":
        topo = two_tier(config.n, config.super_fraction, rng, super_m=config.ba_m)
    else:
        topo = random_regularish(config.n, config.target_mean_degree, rng)
    if not topo.is_connected():
        _stitch_components(topo, rng)
    return topo


def degree_statistics(topo: Topology) -> Dict[str, float]:
    """Summary used to verify the paper's degree profile."""
    degs = sorted(topo.degrees())
    n = len(degs)
    if n == 0:
        raise TopologyError("empty topology")
    mean = sum(degs) / n
    # Mode over the histogram.
    hist: Dict[int, int] = {}
    for d in degs:
        hist[d] = hist.get(d, 0) + 1
    mode = max(hist.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    return {
        "n": float(n),
        "mean": mean,
        "median": float(degs[n // 2]),
        "mode": float(mode),
        "min": float(degs[0]),
        "max": float(degs[-1]),
        "frac_3_or_4": hist.get(3, 0) / n + hist.get(4, 0) / n,
        "frac_tens": sum(c for d, c in hist.items() if d >= 10) / n,
    }
