"""Experiment scales: paper-faithful vs laptop-friendly.

The paper simulates 20,000 peers with 10..200 DDoS agents
(0.05%..1% of the population) and 1,000,000 search operations. The bench
default scales the population down 10x while preserving every *density*:
agents/peer, queries/peer/minute, attack rate, capacities, churn rates.
:data:`SCALES` is the one table of named tiers; ``repro run --scale``
and :func:`~repro.experiments.library.spec_at_scale` select from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    """One experiment scale."""

    name: str
    n_peers: int
    sim_minutes: int
    attack_start_min: int
    trials: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scale name must be non-empty")
        if self.n_peers < 100:
            raise ConfigError("n_peers must be >= 100")
        if self.attack_start_min < 0:
            raise ConfigError("attack_start_min must be non-negative")
        if self.sim_minutes <= self.attack_start_min:
            raise ConfigError("sim_minutes must exceed attack_start_min")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")

    def agent_counts(self) -> List[int]:
        """Agent counts realizing the paper's densities at this scale."""
        return [max(1, round(f * self.n_peers)) for f in PAPER_AGENT_FRACTIONS]

    def paper_equivalent_agents(self, agents: int) -> int:
        """The agent count the paper would use for the same density."""
        return round(agents / self.n_peers * 20_000)


#: The named scale tiers. The fault-sweep, robustness-matrix and live
#: layers size themselves per tier through :func:`fault_grid_for`,
#: :func:`matrix_grid_for` and :func:`repro.live.spec.live_grid_for`.
SCALES: Dict[str, Scale] = {
    # default laptop scale: 10x smaller population, same densities
    "bench": Scale(
        name="bench", n_peers=2_000, sim_minutes=30, attack_start_min=8, trials=1
    ),
    # full paper scale
    "paper": Scale(
        name="paper", n_peers=20_000, sim_minutes=40, attack_start_min=10, trials=1
    ),
    # tiny scale for tests and CI
    "smoke": Scale(
        name="smoke", n_peers=300, sim_minutes=12, attack_start_min=4, trials=1
    ),
}


# ----------------------------------------------------------------------
# fault-robustness sweep (message-level; not a paper figure)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultSweepSpec:
    """Grid for the loss x crash robustness sweep.

    Message-level (DES) runs, so the populations are much smaller than
    the fluid-model scales above: every Neighbor_Traffic message is
    real, which is precisely what the fault layer perturbs. Attackers
    flood but *report honestly*, so any false negative at loss 0 is a
    protocol artifact and every additional one under loss is
    attributable to injected faults.
    """

    name: str
    n_peers: int
    sim_minutes: int
    attack_start_min: int
    trials: int
    loss_fractions: Tuple[float, ...]
    crash_counts: Tuple[int, ...]
    num_agents: int
    attack_rate_qpm: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("name must be non-empty")
        if self.n_peers < 10:
            raise ConfigError("n_peers must be >= 10")
        if self.attack_start_min < 0:
            raise ConfigError("attack_start_min must be non-negative")
        if self.sim_minutes <= self.attack_start_min:
            raise ConfigError("sim_minutes must exceed attack_start_min")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.loss_fractions or not self.crash_counts:
            raise ConfigError("loss_fractions and crash_counts must be non-empty")
        if any(not (0.0 <= p <= 1.0) for p in self.loss_fractions):
            raise ConfigError("loss fractions must be in [0, 1]")
        if any(c < 0 for c in self.crash_counts):
            raise ConfigError("crash counts must be non-negative")
        if not (0 < self.num_agents < self.n_peers):
            raise ConfigError("num_agents out of range")
        if self.attack_rate_qpm <= 0:
            raise ConfigError("attack_rate_qpm must be positive")


def fault_grid_for(name: str) -> FaultSweepSpec:
    """Fault-sweep grid for a named scale (smoke shrinks the grid)."""
    grid = FaultSweepSpec(
        name=name,
        n_peers=40,
        sim_minutes=6,
        attack_start_min=2,
        trials=3,
        loss_fractions=(0.0, 0.1, 0.2, 0.3),
        crash_counts=(0, 2),
        num_agents=2,
        attack_rate_qpm=600.0,
    )
    if name == "smoke":
        return replace(
            grid,
            sim_minutes=5,
            attack_start_min=1,
            trials=1,
            loss_fractions=(0.0, 0.3),
            crash_counts=(0,),
        )
    return grid


# ----------------------------------------------------------------------
# robustness matrix: defense x adversary x topology (message-level)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixSpec:
    """Sizing of the robustness-matrix runs (DES, like the fault sweep).

    The matrix crosses defenses with adaptive adversaries and overlay
    topologies, so a full grid is dozens of message-level runs; the
    populations here are deliberately small (every Neighbor_Traffic
    message is simulated). ``k > n`` and degenerate attack windows are
    rejected at construction -- spec-parse time under the dotted-path
    override machinery.
    """

    name: str
    n_peers: int
    sim_minutes: int
    attack_start_min: int
    trials: int
    num_agents: int
    attack_rate_qpm: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("name must be non-empty")
        if self.n_peers < 10:
            raise ConfigError("n_peers must be >= 10")
        if self.attack_start_min < 0:
            raise ConfigError("attack_start_min must be non-negative")
        if self.sim_minutes <= self.attack_start_min:
            raise ConfigError("sim_minutes must exceed attack_start_min")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not (0 < self.num_agents < self.n_peers):
            raise ConfigError(
                f"num_agents out of range (need 0 < k < n, got "
                f"k={self.num_agents}, n={self.n_peers})"
            )
        if self.attack_rate_qpm <= 0:
            raise ConfigError("attack_rate_qpm must be positive")


def matrix_grid_for(name: str) -> MatrixSpec:
    """Robustness-matrix sizing for a named scale (smoke shrinks runs)."""
    sizing = MatrixSpec(
        name=name,
        n_peers=30,
        sim_minutes=6,
        attack_start_min=2,
        trials=2,
        num_agents=2,
        attack_rate_qpm=600.0,
    )
    if name == "smoke":
        return replace(sizing, sim_minutes=5, trials=1)
    return sizing
