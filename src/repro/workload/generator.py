"""Per-peer Poisson query generation.

"In our simulation, every node issues 0.3 queries per minute, which is
calculated from the observation data shown in [16], i.e., 12,805 unique IP
addresses issued 1,146,782 queries in 50 hours." (Section 3.5; note
1,146,782 / 12,805 / 3,000 min ~= 0.03 -- the paper's own arithmetic gives
0.3 with a 5-hour reading, we keep the stated 0.3/min and expose it.)

Each online peer issues queries as an independent Poisson process; query
targets are drawn from the content catalog's Zipf popularity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.overlay.ids import PeerId
from repro.overlay.network import OverlayNetwork
from repro.simkit.engine import Simulator


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload parameters."""

    queries_per_minute: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.queries_per_minute <= 0:
            raise ConfigError(
                f"queries_per_minute must be positive, got {self.queries_per_minute}"
            )


class QueryWorkload:
    """Drives normal-peer query issuing over the message-level network."""

    def __init__(
        self,
        sim: Simulator,
        network: OverlayNetwork,
        config: WorkloadConfig = WorkloadConfig(),
        *,
        rng: Optional[random.Random] = None,
        exclude: Optional[set] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self._rng = rng or random.Random(config.seed)
        self.exclude = set(exclude or ())  # e.g. attack agents issue separately
        self.issued = 0

    @property
    def mean_gap_s(self) -> float:
        return 60.0 / self.config.queries_per_minute

    def start(self) -> None:
        """Arm each peer's first query timer (staggered exponentially).

        One bulk schedule: the timers share ``_issue`` and wait outside
        the heap until they come due, so startup holds no event per
        peer at 100k+ peers. Draw order (and thus the event sequence
        numbers) matches the per-peer loop exactly.
        """
        rate = 1.0 / self.mean_gap_s
        now = self.sim.now
        self.sim.schedule_bulk(
            self._issue,
            (
                (now + self._rng.expovariate(rate), pid)
                for pid in self.network.peers
                if pid not in self.exclude
            ),
        )

    def _issue(self, pid: PeerId) -> None:
        peer = self.network.peers[pid]
        if peer.online and peer.neighbors:
            obj = self.network.content.sample_object(self._rng)
            keywords = self.network.content.keywords_for(obj)
            peer.issue_query(keywords)
            self.issued += 1
        # Reschedule regardless of online state: offline peers resume
        # querying when they rejoin.
        self.sim.schedule_in(
            self._rng.expovariate(1.0 / self.mean_gap_s), self._issue, pid
        )
