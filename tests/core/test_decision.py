"""The verdict kernel, and the one statement of "the engines agree on it".

Part (a) pins the kernel against the list-form Definitions 2.1-2.3 and
tabulates its policy rules; part (b) pushes one hand-built buddy group
through every engine that judges with it.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig
from repro.core.decision import (
    GroupEvidence,
    Outcome,
    judge,
    judge_rate_cutoff,
    reduce_reports,
)
from repro.core.investigation import Investigation
from repro.core.indicators import (
    NeighborReport,
    general_indicator,
    is_bad_peer,
    single_indicator,
)
from repro.experiments.runner import DESConfig
from repro.fluid.graphstate import FluidChurnConfig, GraphState
from repro.fluid.police import FluidPolice
from repro.overlay.network import NetworkConfig
from repro.overlay.soa_network import SoaFloodEngine
from repro.overlay.topology import TopologyConfig
from tests.conftest import make_topology
from tests.fluid.conftest import police_step

# ---------------------------------------------------------------------------
# (a) the kernel against Definitions 2.1-2.3, and its policy table
# ---------------------------------------------------------------------------

counts = st.integers(min_value=0, max_value=50_000)
#: One member: (Q_mj it sent the suspect, Q_jm it received, did it answer).
member = st.tuples(counts, counts, st.booleans())


@given(
    own=st.tuples(counts, counts),
    others=st.lists(member, max_size=8),
    own_counted=st.booleans(),
    q=st.sampled_from([10.0, 100.0, 37.5]),
    ct=st.sampled_from([1.0, 5.0, 7.0]),
)
def test_kernel_equals_the_list_form_definitions(own, others, own_counted, q, ct):
    own_out, own_in = own
    answers = [(out, inc) for out, inc, answered in others if answered]
    if own_counted:  # the observer's numbers may arrive as one more answer
        answers.insert(len(answers) // 2, own)
    group = reduce_reports(len(others) + 1, answers)
    policy = DDPoliceConfig(q_threshold_qpm=q, cut_threshold=ct)
    verdict = judge(policy, group, "i", "j", own_out, own_in, own_counted)

    # Section 3.4: a member that did not answer exchanged 0 queries.
    assumed = [(out, inc) if answered else (0, 0) for out, inc, answered in others]
    g = general_indicator(
        [own_in] + [inc for _, inc in assumed], [own_out] + [out for out, _ in assumed], q
    )
    s = single_indicator(own_in, [out for out, _ in assumed], q)
    assert (verdict.g, verdict.s) == (g, s)
    assert verdict.convicted == is_bad_peer(g, [s], ct)
    assert verdict.outcome in (Outcome.CONVICTED, Outcome.CLEARED)
    assert verdict.reason == "ddos"
    assert verdict.expected == len(others)
    assert verdict.answered == sum(answered for _, _, answered in others)


#: Observer with (own_out, own_in) = (0, 2000) in a group of 4 whose other
#: three members hold (0, 2000) each: a flooder by any full count.
FLOODED = (0, 2000)


@pytest.mark.parametrize(
    "policy, answered, outcome, reason",
    [
        # paper-literal: silence is an assumed zero, the rest convicts
        ({}, 3, Outcome.CONVICTED, "ddos"),
        ({}, 1, Outcome.CONVICTED, "ddos"),
        ({}, 0, Outcome.CONVICTED, "ddos"),
        # no assume-zero: a complete group is judged, a silent member stalls
        ({"assume_zero_on_missing": False}, 3, Outcome.CONVICTED, "ddos"),
        ({"assume_zero_on_missing": False}, 2, Outcome.CLEARED, "report_missing"),
        # quorum: 2 of 3 meets 0.5 and 2/3 itself, not 0.9; 3 of 3 meets 1.0
        ({"report_quorum": 0.5}, 2, Outcome.CONVICTED, "ddos"),
        ({"report_quorum": 2 / 3}, 2, Outcome.CONVICTED, "ddos"),
        ({"report_quorum": 0.9}, 2, Outcome.UNDECIDED, "quorum_unmet"),
        ({"report_quorum": 1.0}, 3, Outcome.CONVICTED, "ddos"),
        # the quorum is asked first, as in the message engine's _conclude
        (
            {"report_quorum": 0.9, "assume_zero_on_missing": False},
            2,
            Outcome.UNDECIDED,
            "quorum_unmet",
        ),
        (
            {"report_quorum": 0.5, "assume_zero_on_missing": False},
            2,
            Outcome.CLEARED,
            "report_missing",
        ),
    ],
)
def test_policy_table(policy, answered, outcome, reason):
    group = reduce_reports(4, [FLOODED] * answered)
    verdict = judge(DDPoliceConfig(**policy), group, "i", "j", *FLOODED, own_counted=False)
    assert (verdict.outcome, verdict.reason) == (outcome, reason)
    assert (verdict.expected, verdict.answered) == (3, answered)
    claimed = reason == "ddos"
    assert math.isnan(verdict.g) != claimed and math.isnan(verdict.s) != claimed
    row = verdict.judgment(7.0)
    assert (row.time, row.observer, row.suspect, row.reason) == (7.0, "i", "j", reason)
    assert row.disconnected == (outcome is Outcome.CONVICTED)
    assert not verdict.judgment(7.0, executed=False).disconnected
    fields = verdict.trace_fields()
    assert fields["outcome"] == outcome.value and fields["reports"] == answered
    assert (fields["g"] is None) != claimed  # NaN never reaches a JSON trace


def test_a_lone_observer_needs_no_reports():
    verdict = judge(
        DDPoliceConfig(report_quorum=1.0, assume_zero_on_missing=False),
        GroupEvidence(1, 0, 0, 0),
        "i",
        "j",
        0,
        700,
        own_counted=False,
    )
    assert (verdict.g, verdict.s, verdict.convicted) == (7.0, 7.0, True)


def test_rate_cutoff_shares_the_verdict_record():
    over = judge_rate_cutoff(500.0, "i", "j", 750)
    assert over.convicted and over.g == 1.5 and math.isnan(over.s)
    assert over.judgment(3.0).reason == "naive_cutoff"
    assert not judge_rate_cutoff(500.0, "i", "j", 500).convicted  # strictly over


# ---------------------------------------------------------------------------
# (b) one star, three engines
# ---------------------------------------------------------------------------

#: Hub 0 floods neighbours 1..4; 4 is compromised and SILENT. Directed
#: per-minute counts, chosen so that (with 4's report missing) g is exactly
#: CT = 5 -- not over it -- while observer 1 alone convicts, on s = 16.
HUB, SILENT = 0, 4
FLOWS = {
    (0, 1): 2000, (0, 2): 600, (0, 3): 600, (0, 4): 600,
    (1, 0): 0, (2, 0): 200, (3, 0): 200, (4, 0): 0,
}
STAR = {HUB: {1, 2, 3, 4}}
GOOD_OBSERVERS = (1, 2, 3)


def _via_investigation(policy):
    out = {}
    for i in GOOD_OBSERVERS:
        inv = Investigation(
            observer=i,
            suspect=HUB,
            started_at=60.0,
            expected_members=frozenset(STAR[HUB]) - {i},
            own_out_to_suspect=FLOWS[i, HUB],
            own_in_from_suspect=FLOWS[HUB, i],
        )
        for m in GOOD_OBSERVERS:
            if m != i:
                assert inv.add_report(
                    m, NeighborReport(m, outgoing=FLOWS[m, HUB], incoming=FLOWS[HUB, m])
                )
        assert inv.missing_members == {SILENT}
        verdict = inv.decide(policy)
        out[i] = (repr(verdict.g), repr(verdict.s), verdict.convicted)
    return out


def _from_log(judgments, value=lambda peer: peer):
    return {
        value(j.observer): (repr(j.g_value), repr(j.s_value), j.disconnected)
        for j in judgments
        if value(j.suspect) == HUB and value(j.observer) in GOOD_OBSERVERS
    }


def _via_fluid(policy):
    adjacency = {HUB: set(STAR[HUB]), **{m: {HUB} for m in STAR[HUB]}}
    state = GraphState(
        5, adjacency, churn=FluidChurnConfig(enabled=False), rng=random.Random(1)
    )
    police = FluidPolice(
        policy, {SILENT}, cheat_strategy=CheatStrategy.SILENT, record_clears=True
    )
    police_step(police, state, {edge: float(c) for edge, c in FLOWS.items()})
    return _from_log(police.judgments.judgments)


def _via_soa(policy, monkeypatch):
    monkeypatch.setattr(
        "repro.overlay.soa_network.generate_topology", lambda _cfg: make_topology(STAR)
    )
    engine = SoaFloodEngine(
        DESConfig(
            n=5,
            duration_s=70.0,
            defense="ddpolice",
            police=policy,
            network=NetworkConfig(hop_latency_jitter_s=0.0),
            topology=TopologyConfig(n=5, ba_m=1),
        )
    )
    engine._bad_mask[SILENT] = True
    per_edge = np.array(
        [FLOWS[edge] for edge in zip(engine._src.tolist(), engine._dst.tolist())]
    )
    engine.sim.schedule_at(60.0, engine._police_round, per_edge, per_edge)
    engine.sim.run(until=70.0)
    return _from_log(engine.judgments.judgments, value=lambda peer: peer.value)


@pytest.mark.parametrize(
    "policy, expected",
    [
        (
            DDPoliceConfig(),
            {1: ("5.0", "16.0", True), 2: ("5.0", "4.0", False), 3: ("5.0", "4.0", False)},
        ),
        # The same call on every engine, so a policy field is honoured by
        # all of them or none: 4's silence stalls / starves every observer.
        (
            DDPoliceConfig(assume_zero_on_missing=False),
            {i: ("nan", "nan", False) for i in GOOD_OBSERVERS},
        ),
    ],
    ids=["paper-literal", "no-assume-zero"],
)
def test_star_verdicts_agree_across_engines(policy, expected, monkeypatch):
    assert _via_investigation(policy) == expected
    assert _via_fluid(policy) == expected
    assert _via_soa(policy, monkeypatch) == expected


def test_fluid_honours_the_report_quorum():
    # 2 of 3 expected reports: under a 0.9 quorum nobody judges (a minute
    # step has no window to extend, so undecided is an abstention) ...
    starved = _via_fluid(DDPoliceConfig(report_quorum=0.9))
    assert starved == {i: ("nan", "nan", False) for i in GOOD_OBSERVERS}
    # ... and a quorum the group meets changes nothing.
    assert _via_fluid(DDPoliceConfig(report_quorum=0.5)) == _via_fluid(DDPoliceConfig())
