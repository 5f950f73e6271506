"""The paper's anchors, and the reproduction's own, over registered spec data.

Every published table is a registered spec; this module holds its
qualitative claims against ``run_spec`` rows. Each check runs at the
smallest tier where its bound holds: smoke scale for all but two (the
smoke runs share ``run_spec``'s scenario cache with
``test_spec.py::test_smoke_tables_match_the_committed_fixtures``), the
bench-scale agent sweep for Figure 10's response-time ratio, and a
bench-scale sub-grid of the robustness matrix, under the ``paper_scale``
marker, for the three adversary/topology cells the smoke grid omits.
"""

from pathlib import Path

import pytest

from repro.experiments.library import run_spec

RESULTS = Path(__file__).resolve().parents[2] / "results"


def smoke(name):
    return run_spec(name, scale="smoke", workers=1)


# ---------------------------------------------------------------------------
# Table 1 (closed form; Figures 5 & 6 are test_figures.py's shape tests)
# ---------------------------------------------------------------------------

def test_table1_body_layout():
    from repro.core.wire import HEADER_SIZE, decode_neighbor_traffic

    raw = smoke("table1-wire").data
    assert len(raw[HEADER_SIZE:]) == 20
    assert raw[16] == 0x83  # payload descriptor of Neighbor_Traffic
    assert decode_neighbor_traffic(raw).outgoing_queries == 4_321


# ---------------------------------------------------------------------------
# Figures 9-11 (one agent sweep)
# ---------------------------------------------------------------------------

def test_fig9_traffic_cost():
    rows = smoke("fig9").data
    # attack inflates traffic; DD-POLICE pulls it back toward baseline
    for r in rows:
        assert r.traffic_attack_k > 1.5 * r.traffic_no_ddos_k
        assert r.traffic_defended_k < r.traffic_attack_k
    # smallest density already roughly doubles traffic
    assert rows[0].traffic_attack_k > 2 * rows[0].traffic_no_ddos_k


def test_fig10_defense_recovers_response_time():
    heaviest = smoke("fig10").data[-1]
    assert heaviest.response_defended_s < heaviest.response_attack_s


def test_fig10_heaviest_attack_slows_responses_at_bench_scale():
    # ~100 agents raise mean response time ~2.4x; at smoke scale the
    # congestion delay is muted, so this bound needs the bench sweep
    heaviest = run_spec("fig10", workers=1).data[-1]
    assert heaviest.response_attack_s > 1.3 * heaviest.response_no_ddos_s


def test_fig11_success_rate():
    rows = smoke("fig11").data
    for r in rows:
        assert r.success_attack < r.success_no_ddos
        assert r.success_defended > r.success_attack
    # heaviest attack wipes out most of the success rate
    assert rows[-1].success_attack < 0.6 * rows[-1].success_no_ddos
    # DD-POLICE holds success within 30% of the clean baseline
    assert rows[-1].success_defended > 0.7 * rows[-1].success_no_ddos


# ---------------------------------------------------------------------------
# Figures 12-14 and Section 3.7.1
# ---------------------------------------------------------------------------

def test_fig12_damage_over_time():
    run = smoke("fig12")
    start = run.spec.scale.attack_start_min
    undefended, *defended = run.data
    post = [d for m, d in zip(undefended.minutes, undefended.damage_pct) if m > start]
    assert max(post) > 20.0  # the attack hurts
    # every DD-POLICE variant beats no-defense in the tail
    tail_undef = sum(undefended.damage_pct[-5:])
    for tl in defended:
        assert sum(tl.damage_pct[-5:]) < tail_undef


def test_fig12_convergence():
    """DD-POLICE pulls damage down within a few minutes of the attack."""
    run = smoke("fig12")
    start = run.spec.scale.attack_start_min

    def settled_mean(tl):
        after = [d for m, d in zip(tl.minutes, tl.damage_pct) if m >= start + 5]
        return sum(after) / len(after)

    undefended, *defended = run.data
    for tl in defended:
        assert settled_mean(tl) < 0.7 * settled_mean(undefended)


def test_fig13_error_trends():
    # FN trends down and FP (weakly) up with CT; the FP signal comes from
    # the few slow-link agents per run, so allow one count of noise
    rows = smoke("fig13").data
    first, last = rows[0], rows[-1]
    assert last.false_negative < first.false_negative
    assert last.false_positive >= first.false_positive - 1


def test_fig14_recovery():
    measured = [
        r.damage_recovery_min
        for r in smoke("fig14").data
        if r.damage_recovery_min is not None
    ]
    assert measured, "at least some thresholds should recover"
    assert all(v >= 0 for v in measured)


def test_fig12_stabilized_damage_column():
    assert all(r.stabilized_damage_pct < 60 for r in smoke("fig12-stabilized").data)


def test_exchange_frequency():
    by_policy = {r.policy: r for r in smoke("exchange").data}
    # long periods hurt judgment accuracy vs the 2-minute default
    assert (
        by_policy["periodic-10min"].false_judgment
        >= by_policy["periodic-2min"].false_judgment * 0.8
    )
    # in a highly dynamic network the event-driven policy re-publishes on
    # every churn event; its overhead must be nonzero
    assert by_policy["event-driven"].control_overhead_kqpm > 0


# ---------------------------------------------------------------------------
# Section 3.6 and the ablations
# ---------------------------------------------------------------------------

def test_damage_density_roughly_scale_invariant():
    damages = [r.damage_pct for r in smoke("scaling").data]
    assert all(d > 10 for d in damages), damages
    # no systematic vanishing with scale: the largest network still takes
    # at least 40% of the damage of the smallest
    assert damages[-1] > 0.4 * damages[0]


def test_ddpolice_beats_no_defense_and_cuts_fewer_good_peers_than_naive():
    by_defense = {r.defense: r for r in smoke("ablation-baselines").data}
    assert by_defense["ddpolice"].success > by_defense["none"].success
    assert by_defense["ddpolice"].false_negative < by_defense["naive"].false_negative


def test_echo_tree_detects_dense_does_not():
    by_name = {r.topology: r for r in smoke("ablation-echo").data}
    assert by_name["tree"].detected
    assert not by_name["dense"].detected
    # the indicator strictly degrades with cyclicity
    g = [round(by_name[t].g_max, 1) for t in ("tree", "one-cycle", "dense")]
    assert g[0] > g[1] > g[2], g


def test_fluid_within_model_error():
    rows = smoke("ablation-fluid-vs-des").data
    assert [r.peers for r in rows] == [40, 60, 100]
    for r in rows:
        ratio = r.fluid_msgs_per_min / r.des_msgs_per_min
        assert 0.5 < ratio < 1.6, f"n={r.peers}: fluid/DES = {ratio:.2f}"


def test_result_holds_across_topologies():
    """The qualitative claim must not be an artifact of the BA graphs."""
    rows = smoke("ablation-topology").data
    assert [r.model for r in rows] == ["ba", "waxman", "random", "two_tier"]
    for r in rows:
        assert r.attacked < r.clean, r.model
        assert r.defended > r.attacked, r.model


# ---------------------------------------------------------------------------
# message-level robustness studies
# ---------------------------------------------------------------------------

def _fn_total(points, profile, min_loss):
    return sum(
        p.false_negative * p.trials
        for p in points
        if p.profile == profile and p.loss >= min_loss
    )


def test_fault_sweep_grid_and_clean_runs():
    run = smoke("fault-sweep")
    grid, points = run.spec.grid, run.data
    assert run.spec.seed == 23
    assert len(points) == (
        len(grid.loss_fractions) * len(grid.crash_counts) * len(grid.profiles)
    )
    # with no faults injected neither profile cuts good peers: the
    # hardening must be inert when the network behaves
    for p in points:
        if p.loss == 0.0 and p.crashes == 0:
            assert p.false_negative == 0.0, p


def test_hardening_beats_assume_zero_under_loss():
    # at >= 20% control-plane loss the paper-literal rule produces
    # strictly more false negatives than quorum + retry
    points = smoke("fault-sweep").data
    fn_paper = _fn_total(points, "paper", min_loss=0.2)
    fn_hardened = _fn_total(points, "hardened", min_loss=0.2)
    assert fn_paper > fn_hardened, (fn_paper, fn_hardened)


def test_loss_manufactures_false_negatives_for_paper_rule():
    points = smoke("fault-sweep").data
    fn_clean = _fn_total(points, "paper", 0.0) - _fn_total(points, "paper", 0.1)
    assert _fn_total(points, "paper", 0.2) > fn_clean


def _cell(rows, defense, adversary, topology):
    for r in rows:
        if (r.defense, r.adversary, r.topology) == (defense, adversary, topology):
            return r
    raise AssertionError(f"missing matrix cell {(defense, adversary, topology)}")


def test_robustness_matrix_grid_and_static_flooder():
    run = smoke("robustness-matrix")
    grid, rows = run.spec.grid, run.data
    assert run.spec.seed == 29
    assert len(rows) == len(grid.profiles) * len(grid.adversaries) * len(grid.topologies)
    # the control row, the paper's own scenario: DD-POLICE convicts the
    # unmodified flooder well before the run ends
    scale = run.spec.scale
    censored = (scale.sim_minutes - scale.attack_start_min) * 60.0
    r = _cell(rows, "paper", "static", "ba")
    assert r.caught_attackers == r.total_attackers > 0, r
    assert r.detection_latency_s < censored, r


def test_throttle_and_pulse_evade_paper_literal():
    # staying under the per-edge warning threshold (throttle) or halving
    # the per-minute counts with an exchange-locked duty cycle (pulse)
    # keeps investigations from ever opening
    rows = smoke("robustness-matrix").data
    static = _cell(rows, "paper", "static", "ba")
    for adversary in ("throttle", "pulse"):
        r = _cell(rows, "paper", adversary, "ba")
        assert r.detection_latency_s > static.detection_latency_s, r
        assert r.caught_attackers < static.caught_attackers, r


@pytest.fixture(scope="module")
def matrix_bench_cells():
    """The bench-scale matrix cells the smoke grid omits, as a ``--set``
    sub-grid. Cells are seeded per trial, so each row is the committed
    ``results/robustness_matrix.txt`` row."""
    run = run_spec(
        "robustness-matrix",
        overrides={
            "grid.profiles": ("paper",),
            "grid.adversaries": ("static", "collude", "churn"),
            "grid.topologies": ("ba", "bittorrent"),
        },
        workers=1,
    )
    committed = (RESULTS / "robustness_matrix.txt").read_text().splitlines()
    header = run.tables["robustness_matrix"].splitlines()[:7]
    rows = run.tables["robustness_matrix"].splitlines()[7:]
    assert header == committed[:7]
    assert len(rows) == 6 and set(rows) <= set(committed[7:])
    return run.data


@pytest.mark.paper_scale
def test_collusion_corroboration_evades(matrix_bench_cells):
    # colluders claim each other in neighbor-list exchanges and
    # corroborate fabricated excuse traffic, clearing both indicators;
    # unlike SILENT cheats they answer honestly about good suspects, so
    # evasion costs no extra false suspects
    static = _cell(matrix_bench_cells, "paper", "static", "ba")
    r = _cell(matrix_bench_cells, "paper", "collude", "ba")
    assert r.caught_attackers < static.caught_attackers, r
    assert r.false_negative <= static.false_negative, r


@pytest.mark.paper_scale
def test_churn_evasion_fails_at_default_timing(matrix_bench_cells):
    # negative result kept on record: fleeing at the default evade_on_s
    # comes after the first conviction
    r = _cell(matrix_bench_cells, "paper", "churn", "ba")
    assert r.caught_attackers > 0.0, r


@pytest.mark.paper_scale
def test_bittorrent_swarms_blind_ddpolice(matrix_bench_cells):
    # the dense swarm graph dilutes the General indicator below the cut
    # threshold, so even the static flooder is never convicted there
    r = _cell(matrix_bench_cells, "paper", "static", "bittorrent")
    assert r.caught_attackers == 0.0, r
