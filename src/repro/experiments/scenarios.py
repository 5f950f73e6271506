"""Experiment scales: paper-faithful vs laptop-friendly.

The paper simulates 20,000 peers with 10..200 DDoS agents
(0.05%..1% of the population) and 1,000,000 search operations. The bench
default scales the population down 10x while preserving every *density*:
agents/peer, queries/peer/minute, attack rate, capacities, churn rates.

:class:`Scale` is the one population/duration layer of a spec; trial
count, agent count, attack rate and sweep axes live once each on the
spec beside it (``trials``, ``grid.*``, ``workload.*``). :data:`SCALES`
and :data:`TIER_OVERRIDES` are the named tiers ``repro run --scale`` and
:func:`~repro.experiments.library.spec_at_scale` select from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigError

#: Agent fractions matching the paper's 10..200 agents over 20,000 peers.
PAPER_AGENT_FRACTIONS: Tuple[float, ...] = (
    0.0005,  # 10 agents @ 20k
    0.001,   # 20
    0.0025,  # 50
    0.005,   # 100
    0.01,    # 200
)


@dataclass(frozen=True)
class Scale:
    """One experiment scale: population, duration and attack onset."""

    name: str
    n_peers: int
    sim_minutes: int
    attack_start_min: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scale name must be non-empty")
        # The message-level sweeps run n=40 and n=30; below 10 peers no
        # engine has an overlay worth flooding.
        if self.n_peers < 10:
            raise ConfigError("n_peers must be >= 10")
        if self.attack_start_min < 0:
            raise ConfigError("attack_start_min must be non-negative")
        if self.sim_minutes <= self.attack_start_min:
            raise ConfigError("sim_minutes must exceed attack_start_min")

    def agent_counts(self) -> List[int]:
        """Agent counts realizing the paper's densities at this scale."""
        return [max(1, round(f * self.n_peers)) for f in PAPER_AGENT_FRACTIONS]

    def paper_equivalent_agents(self, agents: int) -> int:
        """The agent count the paper would use for the same density."""
        return round(agents / self.n_peers * 20_000)


#: The named scale tiers: what ``--scale <tier>`` puts in ``spec.scale``.
SCALES: Dict[str, Scale] = {
    # default laptop scale: 10x smaller population, same densities
    "bench": Scale(name="bench", n_peers=2_000, sim_minutes=30, attack_start_min=8),
    # full paper scale
    "paper": Scale(name="paper", n_peers=20_000, sim_minutes=40, attack_start_min=10),
    # tiny scale for tests and CI
    "smoke": Scale(name="smoke", n_peers=300, sim_minutes=12, attack_start_min=4),
}

#: The (scenario, tier) pairs that do not take ``SCALES[tier]``. The two
#: message-level sweeps simulate every Neighbor_Traffic message, so their
#: registered spec states a population far below the fluid tiers and
#: keeps it at every tier; a row is the tier spelled as the ``--set``
#: assignments it stands for *on top of that registered spec* (with
#: ``scale.name`` set to the tier), validated like any user override.
#: Smoke keeps CI to a handful of runs that still contain a lossy cell, a
#: paper-literal row and an evading adversary.
TIER_OVERRIDES: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("fault-sweep", "bench"): (),
    ("fault-sweep", "paper"): (),
    ("fault-sweep", "smoke"): (
        "scale.sim_minutes=5",
        "scale.attack_start_min=1",
        "trials=1",
        "grid.loss_fractions=0,0.3",
        "grid.crash_counts=0",
    ),
    ("robustness-matrix", "bench"): (),
    ("robustness-matrix", "paper"): (),
    ("robustness-matrix", "smoke"): (
        "scale.sim_minutes=5",
        "trials=1",
        "grid.defenses=paper,traceback",
        "grid.adversaries=static,throttle,pulse",
        "grid.topologies=ba",
    ),
}
