"""Mutable overlay state for the fluid engine.

Tracks, at one-minute granularity:

* which nodes are online (churn on/off cycling, Section 3.5);
* the live adjacency (join rewiring, police disconnects, reconnection of
  isolated peers -- attackers can always walk back in);
* the *stale* neighbor-list snapshots that buddy groups are built from
  (each node re-publishes its list every exchange period, so an observer
  works with a view up to that period old -- the paper's accuracy/overhead
  tradeoff of Section 3.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.fluid.flows import build_edge_arrays, edge_slice_index


@dataclass(frozen=True)
class FluidChurnConfig:
    """Minute-granularity churn parameters.

    ``leave_prob_per_min`` defaults to 1/10 (mean lifetime 10 minutes);
    ``join_prob_per_min`` to 1/10 (off-times on the same scale, per
    Bhagwan et al.'s ~6.4 cycles/day with long off periods scaled to the
    paper's session means).
    """

    enabled: bool = True
    leave_prob_per_min: float = 0.1
    join_prob_per_min: float = 0.1
    join_degree_min: int = 3
    join_degree_max: int = 4
    max_degree: int = 32
    #: Minutes an isolated (alive but fully disconnected) node waits
    #: before reconnecting -- the attacker walk-back-in delay.
    reconnect_delay_min: int = 1

    def __post_init__(self) -> None:
        if not (0 <= self.leave_prob_per_min <= 1):
            raise ConfigError("leave_prob_per_min must be in [0,1]")
        if not (0 <= self.join_prob_per_min <= 1):
            raise ConfigError("join_prob_per_min must be in [0,1]")
        if self.join_degree_min < 1 or self.join_degree_max < self.join_degree_min:
            raise ConfigError("bad join degree bounds")
        if self.max_degree < self.join_degree_max:
            raise ConfigError("max_degree must be >= join_degree_max")
        if self.reconnect_delay_min < 0:
            raise ConfigError("reconnect_delay_min must be >= 0")


class GraphState:
    """Online/offline membership + adjacency + stale list snapshots."""

    def __init__(
        self,
        n: int,
        adjacency: Dict[int, Set[int]],
        *,
        churn: FluidChurnConfig = FluidChurnConfig(),
        exchange_period_min: int = 2,
        rng: Optional[random.Random] = None,
    ) -> None:
        if n < 2:
            raise ConfigError("need at least two nodes")
        if exchange_period_min < 1:
            raise ConfigError("exchange_period_min must be >= 1")
        self.n = n
        self.churn = churn
        self.exchange_period_min = exchange_period_min
        self._rng = rng or random.Random(0)
        self.online: np.ndarray = np.ones(n, dtype=bool)
        self.adjacency: Dict[int, Set[int]] = {u: set(vs) for u, vs in adjacency.items()}
        for u in range(n):
            self.adjacency.setdefault(u, set())
        self._check_symmetry()
        #: Published neighbor lists (what buddy groups are built from).
        self.snapshots: Dict[int, FrozenSet[int]] = {
            u: frozenset(self.adjacency[u]) for u in range(n)
        }
        self._isolated_since: Dict[int, int] = {}
        #: Nodes that never leave *voluntarily* (the paper's agents "keep
        #: sending out attack queries"); they can still be expelled by the
        #: defense and then rejoin like anyone else.
        self.pinned: Set[int] = set()
        self.minute = 0
        self.joins = 0
        self.leaves = 0
        #: Monotone counter bumped on every edge mutation; consumers cache
        #: derived structures (edge arrays) keyed on it.
        self.topology_version = 0
        self._edge_cache_version = -1
        self._edge_cache: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = None

    # ------------------------------------------------------------------
    def _check_symmetry(self) -> None:
        for u, vs in self.adjacency.items():
            for v in vs:
                if u not in self.adjacency.get(v, set()):
                    raise ConfigError(f"asymmetric adjacency: ({u},{v})")

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def online_count(self) -> int:
        return int(self.online.sum())

    # ------------------------------------------------------------------
    # edge surgery
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ConfigError("self-loop")
        if not (self.online[u] and self.online[v]):
            raise ConfigError("both endpoints must be online")
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)
        self.topology_version += 1

    def remove_edge(self, u: int, v: int) -> None:
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)
        self.topology_version += 1

    def disconnect_all(self, u: int) -> None:
        for v in list(self.adjacency[u]):
            self.remove_edge(u, v)

    # ------------------------------------------------------------------
    # cached directed-edge view
    # ------------------------------------------------------------------
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Directed edge arrays ``(src, dst, rev, indptr)`` over the live
        graph, cached on :attr:`topology_version`.

        Offline nodes hold no edges (leaving disconnects them), so the
        full adjacency *is* the live graph -- no per-minute dict/set copy.
        ``indptr`` is the per-source CSR slice index
        (:func:`repro.fluid.flows.edge_slice_index`). Callers must not
        mutate the returned arrays.
        """
        if self._edge_cache is None or self._edge_cache_version != self.topology_version:
            src, dst, rev = build_edge_arrays(self.adjacency)
            indptr = edge_slice_index(src, self.n)
            self._edge_cache = (src, dst, rev, indptr)
            self._edge_cache_version = self.topology_version
        return self._edge_cache

    # ------------------------------------------------------------------
    # churn step (call once per minute, before flows)
    # ------------------------------------------------------------------
    def step_churn(self) -> Tuple[int, int]:
        """Process one minute of leaves/joins; returns (left, joined)."""
        self.minute += 1
        if not self.churn.enabled:
            self._reconnect_isolated()
            return (0, 0)
        left = joined = 0
        draw = self._rng.random
        leave_prob = self.churn.leave_prob_per_min
        join_prob = self.churn.join_prob_per_min
        # A node's turn changes only its own online flag, so a snapshot of
        # the flags (plain bools, not np.bool_ lookups) decides every turn.
        for u, was_online in enumerate(self.online.tolist()):
            # Draw for every node unconditionally so pinning a subset (the
            # attack agents) does not shift the stream for everyone else:
            # baseline/attacked twins then share identical churn. The draw
            # stays inside the loop: a join consumes draws of its own
            # (_connect_fresh) and the stream order is part of the contract.
            x = draw()
            if was_online:
                if x < leave_prob and u not in self.pinned:
                    self._leave(u)
                    left += 1
            elif x < join_prob:
                self._join(u)
                joined += 1
        self._reconnect_isolated()
        self.leaves += left
        self.joins += joined
        return (left, joined)

    def _leave(self, u: int) -> None:
        self.disconnect_all(u)
        self.online[u] = False
        self._isolated_since.pop(u, None)

    def _join(self, u: int) -> None:
        self.online[u] = True
        self._connect_fresh(u)

    def _connect_fresh(self, u: int) -> None:
        want = self._rng.randint(self.churn.join_degree_min, self.churn.join_degree_max)
        # Rejection-sample bootstrap candidates instead of materializing
        # the O(n) eligible pool on every join (it dominated setup time
        # at the paper's 20,000-peer scale).
        got = 0
        attempts = 0
        max_attempts = 40 * want
        while got < want and attempts < max_attempts:
            attempts += 1
            v = self._rng.randrange(self.n)
            if (
                v == u
                or not self.online[v]
                or v in self.adjacency[u]
                or len(self.adjacency[v]) >= self.churn.max_degree
            ):
                continue
            self.add_edge(u, v)
            got += 1

    def _reconnect_isolated(self) -> None:
        """Alive-but-disconnected peers walk back in after the delay.

        This is how a police-disconnected attacker "join[s] the system
        again and launch[es] another round of attacks".
        """
        # Online flags do not change here; adjacency does (a reconnecting
        # peer may pick a later isolated one), so that test stays live.
        for u, is_online in enumerate(self.online.tolist()):
            if is_online and not self.adjacency[u]:
                since = self._isolated_since.get(u)
                if since is None:
                    self._isolated_since[u] = self.minute
                elif self.minute - since >= self.churn.reconnect_delay_min:
                    self._connect_fresh(u)
                    del self._isolated_since[u]
            else:
                self._isolated_since.pop(u, None)

    # ------------------------------------------------------------------
    # neighbor-list snapshots
    # ------------------------------------------------------------------
    def step_exchange(self) -> int:
        """Refresh list snapshots for nodes whose phase matches this
        minute; returns the number of lists re-published."""
        online = np.flatnonzero(self.online)
        due = online[(self.minute + online) % self.exchange_period_min == 0]
        for u in due.tolist():
            self.snapshots[u] = frozenset(self.adjacency[u])
        return len(due)

    def known_neighbors(self, u: int) -> FrozenSet[int]:
        """The (possibly stale) published neighbor list of ``u``."""
        return self.snapshots.get(u, frozenset())

    def snapshot_staleness(self) -> float:
        """Mean fraction of each online node's published list that no
        longer matches its live neighbors (diagnostic)."""
        errs = []
        for u in np.flatnonzero(self.online).tolist():
            snap, live = self.snapshots.get(u, frozenset()), self.adjacency[u]
            if snap == live:  # the common case: nothing to count
                if live:
                    errs.append(0.0)
            else:
                errs.append(len(snap ^ live) / len(snap | live))
        return float(np.mean(errs)) if errs else 0.0
