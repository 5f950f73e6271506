"""Unit tests for DD-POLICE configuration."""

import pytest

from repro.core.config import DDPoliceConfig, ExchangePolicy
from repro.errors import ConfigError


def test_paper_defaults():
    """Reconstructed Section 3 constants (see DESIGN.md section 0)."""
    cfg = DDPoliceConfig()
    assert cfg.q_threshold_qpm == 100.0
    assert cfg.warning_threshold_qpm == 500.0
    assert cfg.cut_threshold == 5.0  # "we choose CT = 5"
    assert cfg.exchange_period_s == 120.0  # every 2 minutes
    assert cfg.report_dedup_window_s == 5.0
    assert cfg.collection_window_s == 5.0
    assert cfg.radius == 1  # DD-POLICE-1
    assert cfg.exchange_policy is ExchangePolicy.PERIODIC
    assert cfg.assume_zero_on_missing


@pytest.mark.parametrize(
    "kwargs",
    [
        {"q_threshold_qpm": 0},
        {"warning_threshold_qpm": -1},
        {"cut_threshold": 0},
        {"radius": 0},
        {"exchange_period_s": 0},
        {"report_dedup_window_s": -1},
        {"collection_window_s": 0},
        {"inconsistency_tolerance": 0},
        {"liveness_ping_period_s": 0},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        DDPoliceConfig(**kwargs)
