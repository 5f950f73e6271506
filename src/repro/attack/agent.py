"""DDoS agent: the compromised-peer behaviour model.

Section 2.2: "a bad peer ... will do everything else as a good peer except
that it generates and issues a large number of queries during every time
unit." Section 3.5 fixes the rate law: ``Q_d = min(20,000, link
capacity)`` queries per minute.

The agent batches its issue events (once per :data:`BATCH_INTERVAL_S`)
to keep the event count tractable; each batch sends
``rate/batches_per_min`` distinct bogus queries, round-robin over the
neighbors so every neighbor gets a *different* query -- the Figure 1
pattern that maximizes damage and makes naive rate-based blocking
dangerous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.attack.cheating import CheatStrategy
from repro.errors import ConfigError
from repro.overlay.ids import PeerId
from repro.simkit.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.overlay.network import OverlayNetwork

#: Seconds between an agent's issue batches (the des-soa engine's attack
#: batches read the same constant).
BATCH_INTERVAL_S = 1.0


@dataclass(frozen=True)
class AgentConfig:
    """Attack-agent parameters."""

    nominal_rate_qpm: float = 20_000.0
    link_capacity_qpm: float = float("inf")
    cheat_strategy: CheatStrategy = CheatStrategy.SILENT

    def __post_init__(self) -> None:
        if self.nominal_rate_qpm <= 0:
            raise ConfigError("nominal_rate_qpm must be positive")
        if self.link_capacity_qpm <= 0:
            raise ConfigError("link_capacity_qpm must be positive")

    @property
    def effective_rate_qpm(self) -> float:
        """The paper's rate law: Q_d = min(nominal, link capacity)."""
        return min(self.nominal_rate_qpm, self.link_capacity_qpm)


class DDoSAgent:
    """Drives one compromised peer.

    The agent issues *distinct* queries (unique nonce keyword per query) so
    GUID/duplicate suppression never collapses its traffic, exactly like
    the LimeWire-replay prototype of Section 2.3.
    """

    def __init__(
        self,
        sim: Simulator,
        network: OverlayNetwork,
        peer_id: PeerId,
        config: AgentConfig = AgentConfig(),
        *,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.peer_id = peer_id
        self.config = config
        self._rng = rng or random.Random(peer_id.value)
        self._active = False
        self._carry = 0.0  # fractional queries carried between batches
        self._nonce = 0
        self.queries_sent = 0

    @property
    def active(self) -> bool:
        return self._active

    def start(self) -> None:
        """Begin attacking now.

        Registration with the network's attack-origin set happens here,
        not at construction: queries the peer issued *before* compromise
        keep their GOOD class in the metrics pipeline, so pre-attack
        minutes of an attacked run match the clean baseline exactly.
        """
        if self._active:
            return
        self._active = True
        self.network.register_attack_origin(self.peer_id)
        self.sim.schedule_in(0.0, self._batch)

    def stop(self) -> None:
        """Cease attacking and drop the attack-origin registration.

        Each query's class is recorded at issue time, so everything the
        agent already sent stays classified as attack traffic; but a
        stopped agent's peer that later rejoins (e.g. under churn) issues
        *good* queries again, and a stale registration would misclassify
        them. ``start`` re-registers, so stop/start cycles stay correct.
        """
        if not self._active:
            return
        self._active = False
        self.network.unregister_attack_origin(self.peer_id)

    def _bogus_keywords(self) -> Tuple[str, ...]:
        self._nonce += 1
        return ("bogus", f"x{self.peer_id.value}n{self._nonce}")

    def _batch_rate_qpm(self, n_neighbors: int) -> float:
        """Issue rate for the current batch (queries/minute).

        Subclasses override this single hook to shape the flood
        (throttling, pulsing) without touching the carry arithmetic --
        the base behaviour stays the paper's constant-max-rate law.
        """
        return self.config.effective_rate_qpm

    def _batch(self) -> None:
        if not self._active:
            return
        peer = self.network.peers[self.peer_id]
        if peer.online and peer.neighbors:
            rate_qpm = self._batch_rate_qpm(len(peer.neighbors))
            per_batch = rate_qpm * BATCH_INTERVAL_S / 60.0 + self._carry
            count = int(per_batch)
            self._carry = per_batch - count
            neighbors = sorted(peer.neighbors, key=lambda p: p.value)
            for i in range(count):
                nb = neighbors[i % len(neighbors)]
                peer.originate_query_to(nb, self._bogus_keywords())
                self.queries_sent += 1
        self.sim.schedule_in(BATCH_INTERVAL_S, self._batch)
