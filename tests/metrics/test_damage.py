"""Unit tests for damage rate and recovery time (Section 3.7.2)."""

import pytest

from repro.errors import ConfigError
from repro.metrics.damage import damage_rate, damage_recovery_time
from repro.metrics.series import TimeSeries


def test_damage_rate_formula():
    """D = (S - S') / S * 100%."""
    assert damage_rate(0.8, 0.4) == pytest.approx(50.0)
    assert damage_rate(0.9, 0.9) == 0.0
    assert damage_rate(0.5, 0.0) == 100.0


def test_damage_rate_clamped():
    assert damage_rate(0.5, 0.6) == 0.0  # better than baseline -> 0 damage


def test_damage_rate_zero_baseline():
    assert damage_rate(0.0, 0.0) == 0.0


def test_damage_rate_validation():
    with pytest.raises(ConfigError):
        damage_rate(1.5, 0.5)
    with pytest.raises(ConfigError):
        damage_rate(0.5, -0.1)


def test_recovery_time_definition():
    """Time from first D >= 20 to the next D <= 15."""
    d = TimeSeries([(0, 0), (1, 25), (2, 22), (3, 18), (4, 14), (5, 10)])
    assert damage_recovery_time(d) == 3.0  # t=1 onset, t=4 recovered


def test_recovery_none_if_never_damaged():
    d = TimeSeries([(0, 5), (1, 10)])
    assert damage_recovery_time(d) is None


def test_recovery_none_if_never_recovers():
    d = TimeSeries([(0, 30), (1, 40), (2, 35)])
    assert damage_recovery_time(d) is None


def test_recovery_custom_levels():
    d = TimeSeries([(0, 60), (1, 45), (2, 30)])
    assert damage_recovery_time(d, onset_pct=50.0, recovered_pct=35.0) == 2.0
    with pytest.raises(ConfigError):
        damage_recovery_time(d, onset_pct=10.0, recovered_pct=15.0)


def test_recovery_uses_first_onset():
    d = TimeSeries([(0, 25), (1, 10), (2, 30), (3, 12)])
    assert damage_recovery_time(d) == 1.0
