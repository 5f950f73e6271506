"""Damage rate and damage recovery time (Section 3.7.2).

Damage rate::

    D(t) = (S(t) - S'(t)) / S(t) * 100%

where S(t) is the success rate without any compromised peers and S'(t)
the success rate under attack.

Damage recovery time: "the time period from when the system damage rate
D(t) is equal or greater than 20% until when the damage is equal or less
than 15%."
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.metrics.series import TimeSeries


def damage_rate(success_baseline: float, success_attacked: float) -> float:
    """Single-point damage rate in percent; clamped to [0, 100].

    A zero baseline carries no information (nothing succeeded even without
    an attack), so damage is defined as 0 there.
    """
    if not (0.0 <= success_baseline <= 1.0 + 1e-9):
        raise ConfigError(f"success rates are fractions, got {success_baseline}")
    if not (0.0 <= success_attacked <= 1.0 + 1e-9):
        raise ConfigError(f"success rates are fractions, got {success_attacked}")
    if success_baseline <= 0.0:
        return 0.0
    d = (success_baseline - success_attacked) / success_baseline * 100.0
    return min(100.0, max(0.0, d))


def damage_recovery_time(
    damage: TimeSeries,
    *,
    onset_pct: float = 20.0,
    recovered_pct: float = 15.0,
) -> Optional[float]:
    """Time from first D >= onset to the next D <= recovered.

    Returns None if the damage never reaches the onset level or never
    recovers afterwards (the paper reports such runs as non-converged).
    """
    if onset_pct <= recovered_pct:
        raise ConfigError(
            f"onset {onset_pct} must exceed recovery level {recovered_pct}"
        )
    onset_time: Optional[float] = None
    for t, d in damage:
        if onset_time is None:
            if d >= onset_pct:
                onset_time = t
        else:
            if d <= recovered_pct:
                return t - onset_time
    return None
