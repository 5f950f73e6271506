"""Unit tests for investigation evidence collection (Section 3.3)."""

import pytest

from repro.core.config import DDPoliceConfig
import math

from repro.core.decision import Outcome
from repro.core.investigation import Investigation
from repro.core.indicators import NeighborReport
from repro.errors import ConfigError


def make_inv(own_out=100, own_in=6000, members=("m1", "m2")):
    return Investigation(
        observer="obs",
        suspect="j",
        started_at=0.0,
        expected_members=frozenset(members),
        own_out_to_suspect=own_out,
        own_in_from_suspect=own_in,
    )


def report(member, out=100, inc=100):
    return NeighborReport(member=0, outgoing=out, incoming=inc)


def test_reports_accepted_from_expected_members():
    inv = make_inv()
    assert inv.add_report("m1", report("m1"))
    assert not inv.complete
    assert inv.add_report("m2", report("m2"))
    assert inv.complete
    assert inv.missing_members == frozenset()


def test_unexpected_member_ignored():
    inv = make_inv()
    assert not inv.add_report("stranger", report("stranger"))


def test_decide_convicts_heavy_sender():
    """Attacker-like numbers: huge inflow to the observer, tiny inflow to
    the suspect from everyone."""
    inv = make_inv(own_out=10, own_in=6000)
    inv.add_report("m1", NeighborReport(member=1, outgoing=10, incoming=6000))
    inv.add_report("m2", NeighborReport(member=2, outgoing=10, incoming=6000))
    verdict = inv.decide(DDPoliceConfig())
    assert verdict.outcome is Outcome.CONVICTED and verdict.convicted
    assert verdict.g > 5 and verdict.s > 5
    assert (verdict.expected, verdict.answered) == (2, 2)


def test_decide_clears_pure_forwarder():
    """Forwarder numbers: outflow ~= sum of inflow spread over others."""
    inv = make_inv(own_out=1000, own_in=2000)
    inv.add_report("m1", NeighborReport(member=1, outgoing=1000, incoming=2000))
    inv.add_report("m2", NeighborReport(member=2, outgoing=1000, incoming=2000))
    assert inv.decide(DDPoliceConfig()).outcome is Outcome.CLEARED


def test_missing_reports_assumed_zero():
    inv = make_inv(own_out=0, own_in=700)
    # nobody reports: with assume-zero, g = own_in/(q*k) computed anyway
    verdict = inv.decide(DDPoliceConfig())
    assert verdict.outcome in (Outcome.CONVICTED, Outcome.CLEARED)
    # own_in=700, k=3 members total, q=100 -> g = 700/300
    assert verdict.g == pytest.approx(700 / 300.0)
    assert (verdict.expected, verdict.answered) == (2, 0)


def test_without_assume_zero_missing_reports_clear():
    from dataclasses import replace

    inv = make_inv(own_out=0, own_in=99999)
    config = replace(DDPoliceConfig(), assume_zero_on_missing=False)
    verdict = inv.decide(config)
    assert verdict.outcome is Outcome.CLEARED
    # No claim about the suspect's rate -- but always a pair and a reason.
    assert math.isnan(verdict.g) and math.isnan(verdict.s)
    assert verdict.reason == "report_missing"
    assert not verdict.judgment(5.0).disconnected


def test_decide_is_idempotent():
    inv = make_inv()
    first = inv.decide(DDPoliceConfig())
    assert inv.decide(DDPoliceConfig()) is first


def test_reports_after_decision_rejected():
    inv = make_inv()
    inv.decide(DDPoliceConfig())
    assert not inv.add_report("m1", report("m1"))


def test_pending_investigation_has_no_verdict():
    inv = make_inv()
    assert inv.verdict is None
    assert inv.decide(DDPoliceConfig()) is inv.verdict


def test_validation():
    with pytest.raises(ConfigError):
        Investigation("a", "a", 0.0, frozenset(), 0, 0)
    with pytest.raises(ConfigError):
        Investigation("a", "j", 0.0, frozenset({"a"}), 0, 0)
    with pytest.raises(ConfigError):
        Investigation("a", "j", 0.0, frozenset({"j"}), 0, 0)
    with pytest.raises(ConfigError):
        Investigation("a", "j", 0.0, frozenset(), -1, 0)
