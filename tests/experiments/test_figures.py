"""Smoke-level tests for the registered figure specs.

These use the smoke scale with small overridden grids; the paper
anchors over the registered specs' own rows are test_paper_anchors.py.
"""

import pytest

from repro.experiments.library import run_spec
from repro.experiments.scenarios import SCALES


@pytest.fixture(scope="module")
def sweep():
    # widely separated agent counts: smoke scale (300 peers) is noisy
    return run_spec(
        "fig9", scale="smoke", overrides={"seed": 3, "grid.agent_counts": (1, 8)}
    ).data


def test_fig5_shape():
    pts = run_spec("fig5").data
    assert (pts[0].sent_qpm, pts[0].processed_qpm) == (1000.0, 1000.0)
    assert max(p.processed_qpm for p in pts) < 16_000  # capacity ceiling
    # drops begin at ~15,000 queries/min
    knee = next(p.sent_qpm for p in pts if p.processed_qpm < p.sent_qpm)
    assert 15_000 < knee <= 17_000


def test_fig6_shape():
    pts = run_spec("fig6").data
    assert pts[0].drop_rate_pct == 0.0
    assert pts[-1].drop_rate_pct == pytest.approx(47.0, abs=1.5)


def test_fig9_traffic_ordering(sweep):
    for r in sweep:
        assert r.traffic_attack_k > r.traffic_no_ddos_k  # attack inflates traffic
        assert r.traffic_defended_k < r.traffic_attack_k  # DD-POLICE reduces it


def test_fig10_response_ordering(sweep):
    for r in sweep:
        # smoke scale: congestion delay is muted (bandwidth-driven
        # collapse), so only require non-degradation ordering
        assert r.response_attack_s > r.response_no_ddos_s * 0.9


def test_fig11_success_ordering(sweep):
    for r in sweep:
        assert r.success_attack < r.success_no_ddos  # attack hurts success
        assert r.success_defended > r.success_attack  # DD-POLICE recovers


def test_fig11_attack_monotone(sweep):
    assert sweep[-1].success_attack < sweep[0].success_attack  # more agents, less success


def test_fig12_timelines():
    scale = SCALES["smoke"]
    tls = run_spec(
        "fig12",
        scale="smoke",
        overrides={
            "seed": 4,
            "trials": 1,
            "grid.cut_thresholds": (3.0, 7.0),
            "grid.minutes": scale.sim_minutes,
        },
    ).data
    assert [t.label for t in tls] == ["no DD-POLICE", "DD-POLICE-3", "DD-POLICE-7"]
    undefended = tls[0]
    pre_attack = [d for m, d in zip(undefended.minutes, undefended.damage_pct)
                  if m < scale.attack_start_min]
    assert all(d == 0.0 for d in pre_attack)
    post = [d for m, d in zip(undefended.minutes, undefended.damage_pct)
            if m >= scale.attack_start_min + 1]
    assert max(post) > 10.0  # the attack does damage
    # DD-POLICE's tail damage is below the undefended tail
    for tl in tls[1:]:
        assert sum(tl.damage_pct[-4:]) < sum(undefended.damage_pct[-4:])


def test_fig13_fig14_rows():
    run = run_spec(
        "fig13",
        scale="smoke",
        overrides={
            "seed": 5,
            "trials": 1,
            "grid.cut_thresholds": (3.0, 7.0),
            "grid.minutes": SCALES["smoke"].sim_minutes,
            "tables": ("fig13_errors", "fig14_recovery"),
        },
    )
    assert [r.cut_threshold for r in run.data] == [3.0, 7.0]
    for r in run.data:
        assert r.false_judgment == r.false_negative + r.false_positive
        assert r.stabilized_damage_pct >= 0
    # title, header, rule, then one line per cut threshold
    assert len(run.tables["fig13_errors"].splitlines()) == 3 + 2
    assert len(run.tables["fig14_recovery"].splitlines()) == 3 + 2


def test_exchange_frequency_rows():
    rows = run_spec(
        "exchange", scale="smoke", overrides={"seed": 6, "grid.periods_min": (1, 4)}
    ).data
    labels = [r.policy for r in rows]
    assert labels == ["periodic-1min", "periodic-4min", "event-driven"]
    assert all(r.control_overhead_kqpm >= 0 for r in rows)


def test_timelines_read_in_minutes_on_a_message_backend():
    """``CaseResult.rows`` is in minutes whatever engine produced it: the
    des-soa timelines sit on the axis 1..N (the collector's grace drops
    the last minute), damage is pinned to zero before the attack, and
    the stabilised-damage window [minutes - 5, minutes] is not empty.
    The flood saturates the lowered capacity and CT=5 convicts nobody in
    five minutes, so a window that found its rows reads well above 0."""
    overrides = {
        "trials": 1,
        "scale.n_peers": 100,
        "scale.attack_start_min": 2,
        "grid.minutes": 7,
        "grid.agents": 1,
        "grid.cut_thresholds": (5.0,),
        "workload.queries_per_minute": 1.0,
        "workload.attack_rate_qpm": 600.0,
        "workload.capacity_qpm": 150.0,
    }

    def data(name):
        return run_spec(
            name, scale="smoke", backend="des-soa", overrides=overrides
        ).data

    for timeline in data("fig12"):
        assert timeline.minutes == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert timeline.damage_pct[:2] == [0.0, 0.0]
        assert max(timeline.damage_pct[2:]) > 10.0
    (row,) = data("fig13")
    assert row.stabilized_damage_pct > 10.0
