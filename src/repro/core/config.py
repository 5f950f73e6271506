"""DD-POLICE configuration.

All protocol constants from Sections 2.2 and 3, reconstructed where the
source text dropped digits (see DESIGN.md section 0):

* ``q`` = 100 queries/min -- the good-peer issue threshold of Definition
  2.1 ("a good peer does not issue more than 100 queries per minute",
  with margin over their own measured per-peer maximum of ~40/min and
  the "one query every second" human bound).
* warning threshold = 500 queries/min -- "if peer j sends more than 500
  queries to peer A in the past minute, A will mark peer j as a
  suspicious peer" (Section 3.3 example).
* cut threshold CT = 5 -- "Comprehensively considering the performance of
  DD-POLICE, we choose CT = 5" (Section 3.7.2); sweeps use 3..10.
* neighbor-list exchange every 2 minutes (Section 3.7.1).
* Neighbor_Traffic send dedup + collection window = 5 seconds
  (Section 3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError


class ExchangePolicy(enum.Enum):
    """Neighbor-list exchange policies compared in Section 3.7.1."""

    PERIODIC = "periodic"
    EVENT_DRIVEN = "event_driven"


@dataclass(frozen=True)
class DDPoliceConfig:
    """All DD-POLICE tunables."""

    #: Good-peer issue threshold q (queries/min), Definition 2.1.
    q_threshold_qpm: float = 100.0
    #: Per-minute incoming rate that marks a neighbor suspicious.
    warning_threshold_qpm: float = 500.0
    #: Cut threshold CT applied to g(j,t) and s(j,t,i).
    cut_threshold: float = 5.0
    #: Buddy-group radius r (DD-POLICE-r); the paper evaluates r=1.
    radius: int = 1
    #: Neighbor-list exchange policy and period.
    exchange_policy: ExchangePolicy = ExchangePolicy.PERIODIC
    exchange_period_s: float = 120.0
    #: Dedup window: don't re-send Neighbor_Traffic for the same suspect
    #: within this many seconds.
    report_dedup_window_s: float = 5.0
    #: How long to wait for buddy reports before deciding with what we have
    #: ("or waiting for another 5 seconds").
    collection_window_s: float = 5.0
    #: Missing report => assume the member sent 0 queries to the suspect.
    assume_zero_on_missing: bool = True
    #: How many inconsistency warnings before disconnecting a liar.
    inconsistency_tolerance: int = 3
    #: BG liveness ping period (Section 3.1 "ping members ... periodically").
    liveness_ping_period_s: float = 60.0

    # -- robustness extensions (all off by default: paper-literal) -------
    #: Re-request missing Neighbor_Traffic reports up to this many times
    #: per investigation (0 = paper-literal: silence becomes assumed 0).
    report_retry_limit: int = 0
    #: First re-request fires this long after the investigation opens;
    #: later ones back off exponentially (x2 per attempt).
    report_retry_backoff_s: float = 1.0
    #: Conclude only once at least this fraction of expected BG reports
    #: arrived (0.0 = paper-literal: conclude on whatever is present).
    report_quorum: float = 0.0
    #: With an unmet quorum, extend the collection window this many times
    #: before abstaining (suspect cleared, indicators NaN).
    quorum_extension_limit: int = 1
    #: Retransmit a neighbor-list exchange up to this many times if the
    #: neighbor stays silent (0 = paper-literal: fire and forget).
    exchange_retransmit_limit: int = 0
    #: Silence window before a neighbor-list retransmission.
    exchange_retransmit_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.q_threshold_qpm <= 0:
            raise ConfigError("q_threshold_qpm must be positive")
        if self.warning_threshold_qpm <= 0:
            raise ConfigError("warning_threshold_qpm must be positive")
        if self.cut_threshold <= 0:
            raise ConfigError("cut_threshold must be positive")
        if self.radius < 1:
            raise ConfigError(f"radius must be >= 1, got {self.radius}")
        if self.exchange_period_s <= 0:
            raise ConfigError("exchange_period_s must be positive")
        if self.report_dedup_window_s < 0:
            raise ConfigError("report_dedup_window_s must be non-negative")
        if self.collection_window_s <= 0:
            raise ConfigError("collection_window_s must be positive")
        if self.inconsistency_tolerance < 1:
            raise ConfigError("inconsistency_tolerance must be >= 1")
        if self.liveness_ping_period_s <= 0:
            raise ConfigError("liveness_ping_period_s must be positive")
        if self.report_retry_limit < 0:
            raise ConfigError(
                f"report_retry_limit must be non-negative, got {self.report_retry_limit}"
            )
        if self.report_retry_backoff_s <= 0:
            raise ConfigError(
                f"report_retry_backoff_s must be positive, "
                f"got {self.report_retry_backoff_s}"
            )
        if not (0.0 <= self.report_quorum <= 1.0):
            raise ConfigError(
                f"report_quorum must be in [0, 1], got {self.report_quorum}"
            )
        if self.quorum_extension_limit < 0:
            raise ConfigError(
                f"quorum_extension_limit must be non-negative, "
                f"got {self.quorum_extension_limit}"
            )
        if self.exchange_retransmit_limit < 0:
            raise ConfigError(
                f"exchange_retransmit_limit must be non-negative, "
                f"got {self.exchange_retransmit_limit}"
            )
        if self.exchange_retransmit_timeout_s <= 0:
            raise ConfigError(
                f"exchange_retransmit_timeout_s must be positive, "
                f"got {self.exchange_retransmit_timeout_s}"
            )

    def with_hardening(self) -> "DDPoliceConfig":
        """Copy with the fault-tolerant evidence profile switched on.

        Retries + quorum are designed to be enabled together: retries
        recover lost reports so the quorum is usually met within the base
        window, and the quorum extension gives the later (backed-off)
        retries time to land. Quorum alone would trade false negatives
        for false positives (real attackers abstained on); see
        docs/FAULTS.md.
        """
        from dataclasses import replace

        return replace(
            self,
            report_retry_limit=3,
            report_retry_backoff_s=1.0,
            report_quorum=0.5,
            quorum_extension_limit=1,
            exchange_retransmit_limit=1,
            exchange_retransmit_timeout_s=10.0,
        )
