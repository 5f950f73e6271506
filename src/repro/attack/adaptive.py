"""Adaptive adversaries: attackers that fight the defense back.

The paper evaluates DD-POLICE only against *static* flooders -- constant
maximum-rate agents that at most distort their own Neighbor_Traffic
reports (Section 3.4). This module models four ways a real botnet adapts
once the defense's mechanics are public, each selectable through
:class:`AdaptiveConfig` and swept by the ``robustness-matrix`` spec:

``throttle``
    Threshold-aware rate limiting: the agent knows (or estimates) the
    warning threshold that opens investigations and keeps every
    neighbor's per-minute share just under it. The flood shrinks, but
    monitoring never fires and the agent is never investigated.

``collude``
    Coordinated lying: compromised peers corroborate each other. In
    neighbor-list exchanges each colluder claims every other colluder as
    a neighbor -- a *consistent* lie that passes the pairwise
    cross-check -- and in Neighbor_Traffic reports a colluder excuses a
    fellow suspect with a fabricated "I sent it that flood" count (see
    :func:`repro.attack.cheating.apply_cheat`). Honest witnesses get
    outvoted inside the buddy group's indicator sums.

``churn``
    Churn-assisted evasion: attack for a while, voluntarily leave before
    strikes/evidence accumulate, rejoin through the host cache with a
    fresh neighbor set, repeat. Leaving wipes the per-pair consistency
    strikes and any open investigation about the agent.

``pulse``
    On/off duty-cycling phase-locked to the defense's exchange period:
    full-rate bursts during the on-phase, silence in the off-phase. The
    per-minute counters investigations judge on straddle the bursts, so
    detection latency stretches with the duty cycle.

``static`` (the default) reproduces the paper's attacker exactly -- the
DES runner (:func:`repro.experiments.runner.run_des_experiment`) plants
plain :class:`~repro.attack.agent.DDoSAgent` instances on that path,
keeping every existing figure byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Optional, Tuple

from repro.attack.agent import AgentConfig, DDoSAgent
from repro.errors import ConfigError
from repro.overlay.ids import PeerId

if TYPE_CHECKING:  # pragma: no cover
    from repro.churn.process import ChurnProcess
    from repro.overlay.network import OverlayNetwork
    from repro.simkit.engine import Simulator

#: Valid values of :attr:`AdaptiveConfig.strategy`.
ADAPTIVE_STRATEGIES: Tuple[str, ...] = (
    "static",
    "throttle",
    "collude",
    "churn",
    "pulse",
)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive-adversary strategies.

    Every field is overridable through the spec layer as
    ``adversary.<field>`` (e.g. ``--set adversary.pulse_duty=0.25``);
    see ``docs/ADVERSARIES.md`` for the full knob table.
    """

    strategy: str = "static"
    #: throttle: fraction of the (estimated) warning threshold to sit at.
    throttle_margin: float = 0.9
    #: throttle: the attacker's estimate of the defense's per-neighbor
    #: warning threshold (DD-POLICE's default is 500 qpm).
    warning_threshold_qpm: float = 500.0
    #: pulse: burst period in seconds; phase-locked to the defense's
    #: neighbor-list exchange period (the paper's 2 minutes) by default.
    pulse_period_s: float = 120.0
    #: pulse: fraction of each period spent flooding at full rate.
    pulse_duty: float = 0.5
    #: pulse: offset of the burst start within the period.
    pulse_phase_s: float = 0.0
    #: churn: seconds of attacking before the agent flees.
    evade_on_s: float = 90.0
    #: churn: seconds spent offline before rejoining with fresh neighbors.
    evade_off_s: float = 30.0
    #: collude: fabricated "I sent the suspect this many queries last
    #: minute" count each colluder reports to excuse a fellow colluder.
    collude_excuse_qpm: float = 2000.0

    def __post_init__(self) -> None:
        if self.strategy not in ADAPTIVE_STRATEGIES:
            valid = ", ".join(ADAPTIVE_STRATEGIES)
            raise ConfigError(
                f"unknown strategy {self.strategy!r} (valid: {valid})"
            )
        if not (0.0 < self.throttle_margin <= 1.0):
            raise ConfigError("throttle_margin must be in (0, 1]")
        if self.warning_threshold_qpm <= 0:
            raise ConfigError("warning_threshold_qpm must be positive")
        if self.pulse_period_s <= 0:
            raise ConfigError("pulse_period_s must be positive")
        if not (0.0 < self.pulse_duty <= 1.0):
            raise ConfigError("pulse_duty must be in (0, 1]")
        if self.pulse_phase_s < 0:
            raise ConfigError("pulse_phase_s must be non-negative")
        if self.evade_on_s <= 0:
            raise ConfigError("evade_on_s must be positive")
        if self.evade_off_s <= 0:
            raise ConfigError("evade_off_s must be positive")
        if self.collude_excuse_qpm < 0:
            raise ConfigError("collude_excuse_qpm must be non-negative")


@dataclass(frozen=True)
class CollusionRing:
    """The shared lie of a colluding agent set.

    Handed to the DD-POLICE engines of compromised peers so that (a)
    their neighbor-list broadcasts claim every ring member -- the
    *consistent* fabrication that survives pairwise cross-checking --
    and (b) their Neighbor_Traffic answers about a fellow member carry
    the fabricated excuse count.
    """

    members: FrozenSet[PeerId]
    excuse_qpm: float = 2000.0

    def __post_init__(self) -> None:
        if self.excuse_qpm < 0:
            raise ConfigError("excuse_qpm must be non-negative")


def pulse_is_on(now: float, config: AdaptiveConfig) -> bool:
    """True iff a pulse attacker is in its burst phase at time ``now``."""
    phase = (now - config.pulse_phase_s) % config.pulse_period_s
    return phase < config.pulse_duty * config.pulse_period_s


class AdaptiveAgent(DDoSAgent):
    """A :class:`DDoSAgent` that shapes its flood against the defense.

    Rate shaping (throttle/pulse) happens in :meth:`_batch_rate_qpm`, so
    the carry arithmetic and the per-neighbor round-robin stay exactly
    the base agent's. Churn-assisted evasion drives a
    :class:`~repro.churn.process.ChurnProcess` -- the same leave/rejoin
    path natural churn uses, so neighbors observe a normal close and the
    host cache hands out fresh neighbors on return. Collusion needs no
    agent-side behaviour: the lies live in the compromised peers'
    DD-POLICE engines (see :class:`CollusionRing`).
    """

    def __init__(
        self,
        sim: Simulator,
        network: OverlayNetwork,
        peer_id: PeerId,
        config: AgentConfig = AgentConfig(),
        adaptive: AdaptiveConfig = AdaptiveConfig(),
        *,
        churn: Optional["ChurnProcess"] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(sim, network, peer_id, config, rng=rng)
        if adaptive.strategy == "churn" and churn is None:
            raise ConfigError(
                "churn-assisted evasion needs a ChurnProcess to drive"
            )
        self.adaptive = adaptive
        self._churn = churn
        self._flee_armed = False
        #: Completed voluntary leave cycles (diagnostics).
        self.evasions = 0

    # -- rate shaping ---------------------------------------------------
    def _batch_rate_qpm(self, n_neighbors: int) -> float:
        if self.adaptive.strategy == "throttle":
            # Keep each neighbor's per-minute share under its warning
            # threshold: the flood is bounded by margin * threshold per
            # neighbor, or the nominal rate if that is lower.
            ceiling = (
                self.adaptive.throttle_margin
                * self.adaptive.warning_threshold_qpm
                * max(1, n_neighbors)
            )
            return min(self.config.effective_rate_qpm, ceiling)
        if self.adaptive.strategy == "pulse":
            if not pulse_is_on(self.sim.now, self.adaptive):
                return 0.0
            return self.config.effective_rate_qpm
        return self.config.effective_rate_qpm

    def _batch(self) -> None:
        if self.adaptive.strategy == "pulse" and not pulse_is_on(
            self.sim.now, self.adaptive
        ):
            # A fractional carry must not leak across the silent phase:
            # the burst restarts from zero, like a fresh attack.
            self._carry = 0.0
        super()._batch()

    # -- churn-assisted evasion ----------------------------------------
    def start(self) -> None:
        was_active = self._active
        super().start()
        if (
            not was_active
            and self._active
            and self.adaptive.strategy == "churn"
            and not self._flee_armed
        ):
            self._flee_armed = True
            self.sim.schedule_in(self.adaptive.evade_on_s, self._flee)

    def _flee(self) -> None:
        if not self._active:
            self._flee_armed = False
            return
        peer = self.network.peers[self.peer_id]
        if peer.online and self._churn is not None:
            self._churn.depart(
                self.peer_id, rejoin_after_s=self.adaptive.evade_off_s
            )
            self.evasions += 1
        # The next flee lands one on-window after the scheduled rejoin;
        # _batch keeps rescheduling itself while offline and resumes the
        # flood the moment the peer is back with fresh neighbors.
        self.sim.schedule_in(
            self.adaptive.evade_off_s + self.adaptive.evade_on_s, self._flee
        )
