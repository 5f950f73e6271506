"""Join/leave churn process over an :class:`OverlayNetwork`.

Each logical peer slot cycles: online for a sampled lifetime, then offline
for a sampled off-time, then rejoins through the host cache with a fresh
neighbor set. Bhagwan et al. (cited in Section 3.5) observe ~6.4
join/leave cycles per day per host, i.e. off-times on the same scale as
lifetimes; the default off-time distribution mirrors the lifetime one.

The process emits join/leave notifications so DD-POLICE engines can attach
to arriving peers and buddy groups can go stale realistically (the source
of the misjudgment probability discussed in Section 3.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.churn.lifetimes import LifetimeConfig, LifetimeDistribution
from repro.errors import ConfigError
from repro.overlay.hostcache import HostCache
from repro.overlay.ids import PeerId

if TYPE_CHECKING:  # pragma: no cover
    from repro.overlay.network import OverlayNetwork
    from repro.simkit.engine import Simulator


@dataclass(frozen=True)
class ChurnConfig:
    """Churn parameters."""

    lifetime: LifetimeConfig = LifetimeConfig()
    offtime: LifetimeConfig = LifetimeConfig(family="exponential", mean_s=600.0)
    join_degree_min: int = 3
    join_degree_max: int = 4
    enabled: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.join_degree_min < 1:
            raise ConfigError("join_degree_min must be >= 1")
        if self.join_degree_max < self.join_degree_min:
            raise ConfigError("join_degree_max < join_degree_min")


class ChurnProcess:
    """Drives on/off cycling of every peer in the network."""

    def __init__(
        self,
        sim: Simulator,
        network: OverlayNetwork,
        config: ChurnConfig,
        *,
        rng: Optional[random.Random] = None,
        pinned: Optional[Set[PeerId]] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self._rng = rng or random.Random(config.seed)
        self._lifetimes = LifetimeDistribution(config.lifetime, self._rng)
        self._offtimes = LifetimeDistribution(config.offtime, self._rng)
        self.hostcache = HostCache(self._rng)
        #: Peers that never churn (e.g. to keep attackers persistent in
        #: specific scenarios). Empty by default: attackers churn too.
        self.pinned: Set[PeerId] = set(pinned or ())
        #: Fail-stopped peers (see ``fail_stop``): withheld from the host
        #: cache and never allowed to rejoin.
        self.failed: Set[PeerId] = set()
        self.join_listeners: List[Callable[[PeerId], None]] = []
        self.leave_listeners: List[Callable[[PeerId], None]] = []
        self.joins = 0
        self.leaves = 0

        for pid, peer in network.peers.items():
            if peer.online:
                self.hostcache.mark_online(pid)

    def start(self) -> None:
        """Arm a leave timer for every online peer."""
        if not self.config.enabled:
            return
        for pid, peer in self.network.peers.items():
            if peer.online and pid not in self.pinned:
                # Stagger initial departures: residual lifetimes.
                self.sim.schedule_in(self._lifetimes.sample() * self._rng.random() + 1.0,
                                     self._leave, pid)

    # ------------------------------------------------------------------
    def depart(self, pid: PeerId, *, rejoin_after_s: Optional[float] = None) -> None:
        """Voluntary leave initiated by the peer itself.

        The same teardown/rejoin path as sampled churn -- neighbors
        observe a normal close, content relocates, the host cache hands
        out fresh neighbors on return -- but the off-time can be pinned
        (``rejoin_after_s``) instead of sampled. Used by churn-evading
        attack agents that time their own leave/rejoin cycle; pin such
        peers (:attr:`pinned`) so the sampled cycle does not double-drive
        them.
        """
        if rejoin_after_s is not None and rejoin_after_s <= 0:
            raise ConfigError("rejoin_after_s must be positive")
        self._leave(pid, rejoin_after_s=rejoin_after_s)

    def _leave(
        self, pid: PeerId, rejoin_after_s: Optional[float] = None
    ) -> None:
        peer = self.network.peers[pid]
        if not peer.online:
            return
        self.leaves += 1
        self.hostcache.mark_offline(pid)
        # Tear down all connections; neighbors observe a normal close.
        for nb in list(peer.neighbors):
            self.network.disconnect(pid, nb)
        # Content moves to alive peers so success-rate baselines stay flat.
        alive = [p.value for p, q in self.network.peers.items() if q.online and p != pid]
        self.network.content.relocate_replicas(pid.value, alive, self._rng)
        peer.go_offline()
        for listener in self.leave_listeners:
            listener(pid)
        offtime = (
            self._offtimes.sample() if rejoin_after_s is None else rejoin_after_s
        )
        self.sim.schedule_in(offtime, self._join, pid)

    def fail_stop(self, pid: PeerId) -> None:
        """Mark ``pid`` permanently dead (fault-injected crash).

        The caller takes the peer offline; this only prevents any pending
        or future ``_join`` from resurrecting it and keeps it out of the
        host cache's candidate set.
        """
        self.failed.add(pid)
        self.hostcache.mark_offline(pid)

    def _join(self, pid: PeerId) -> None:
        peer = self.network.peers[pid]
        if peer.online or pid in self.failed:
            return
        self.joins += 1
        peer.go_online()
        want = self._rng.randint(self.config.join_degree_min, self.config.join_degree_max)
        degree_of: Dict[PeerId, int] = {
            p: len(q.neighbors) for p, q in self.network.peers.items() if q.online
        }
        for nb in self.hostcache.candidates(want, exclude={pid}, degree_of=degree_of):
            self.network.connect(pid, nb)
        self.hostcache.mark_online(pid)
        for listener in self.join_listeners:
            listener(pid)
        if pid not in self.pinned:
            self.sim.schedule_in(self._lifetimes.sample(), self._leave, pid)

    # ------------------------------------------------------------------
    def online_fraction(self) -> float:
        peers = self.network.peers
        if not peers:
            return 0.0
        return sum(1 for p in peers.values() if p.online) / len(peers)
