"""Naive rate-cutoff defense.

Disconnect any neighbor whose last-minute incoming query count exceeds a
fixed threshold -- no buddy-group consultation, no issued-vs-forwarded
discrimination. This is the strawman of Section 2.1 / Figure 1: a good
peer that merely *forwards* an attacker's flood looks identical to the
attacker and gets cut, which is exactly the failure mode DD-POLICE's
indicators avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.decision import judge_rate_cutoff
from repro.errors import ConfigError
from repro.metrics.errors import JudgmentLog
from repro.overlay.ids import PeerId
from repro.overlay.message import Bye
from repro.overlay.network import OverlayNetwork
from repro.overlay.peer import Peer


@dataclass(frozen=True)
class NaiveCutoffConfig:
    """Threshold for the naive defense (same scale as DD-POLICE's
    warning threshold so comparisons are apples-to-apples)."""

    cutoff_qpm: float = 500.0

    def __post_init__(self) -> None:
        if self.cutoff_qpm <= 0:
            raise ConfigError("cutoff_qpm must be positive")


class NaiveCutoffDefense:
    """Per-peer naive defense for the message-level overlay."""

    def __init__(
        self,
        network: OverlayNetwork,
        peer: Peer,
        config: NaiveCutoffConfig = NaiveCutoffConfig(),
        *,
        judgment_log: Optional[JudgmentLog] = None,
    ) -> None:
        self.network = network
        self.peer = peer
        self.config = config
        self.judgments = judgment_log if judgment_log is not None else JudgmentLog()
        self.disconnects_issued = 0
        network.minute_listeners.append(self._on_minute)

    def _on_minute(self, minute: int, now: float) -> None:
        if not self.peer.online:
            return
        for neighbor, count in list(self.peer.last_minute_in.items()):
            verdict = judge_rate_cutoff(
                self.config.cutoff_qpm, self.peer.id, neighbor, count
            )
            if verdict.convicted and neighbor in self.peer.neighbors:
                self.disconnects_issued += 1
                self.judgments.record(verdict.judgment(now))
                self.network.disconnect(
                    self.peer.id, neighbor, reason_code=Bye.REASON_NAIVE_RATE_LIMIT
                )


def deploy_naive(
    network: OverlayNetwork, config: NaiveCutoffConfig = NaiveCutoffConfig()
) -> Dict[PeerId, NaiveCutoffDefense]:
    """Attach the naive defense to every peer; shared judgment log."""
    log = JudgmentLog()
    return {
        pid: NaiveCutoffDefense(network, peer, config, judgment_log=log)
        for pid, peer in network.peers.items()
    }
