"""Robustness matrix: DD-POLICE variants vs adversaries that fight back.

Not a paper figure -- a stress study of the defense itself. Four
adaptive strategies (threshold-aware throttling, colluding excuse
reports, churn-assisted evasion, exchange-locked pulsing) attack
through three defenses (paper-literal Section 3.3, hardened profile,
PPM last-hop traceback) on three overlay shapes (BA tree, hard-cutoff
scale-free, BitTorrent-like swarm).

The grid itself is the registered ``robustness-matrix`` spec
(:mod:`repro.experiments.library`); this module publishes its table and
asserts the evasion claims against its cells.
"""

import pytest

from benchmarks.conftest import publish
from repro.experiments.library import run_spec

SEED = 29  # the registered robustness-matrix spec's seed


@pytest.fixture(scope="module")
def run(scale):
    return run_spec("robustness-matrix", scale=scale.name)


@pytest.fixture(scope="module")
def rows(run):
    return run.data


def _cell(rows, defense, adversary, topology):
    for r in rows:
        if (r.defense, r.adversary, r.topology) == (defense, adversary, topology):
            return r
    raise AssertionError(f"missing matrix cell {(defense, adversary, topology)}")


def _has_cell(rows, defense, adversary, topology):
    return any(
        (r.defense, r.adversary, r.topology) == (defense, adversary, topology)
        for r in rows
    )


def test_robustness_matrix_table(results_dir, run, rows):
    assert run.spec.seed == SEED
    publish(
        results_dir, "robustness_matrix",
        run.tables["robustness_matrix"], manifest=run.manifest,
    )
    grid = run.spec.grid
    assert len(rows) == (
        len(grid.defenses) * len(grid.adversaries) * len(grid.topologies)
    )


def test_static_flooder_is_caught_on_trees(run, rows):
    # The control row: the paper's own scenario. DD-POLICE convicts the
    # unmodified flooder well before the run ends.
    scale = run.spec.scale
    censored = (scale.sim_minutes - scale.attack_start_min) * 60.0
    r = _cell(rows, "paper", "static", "ba")
    assert r.caught_attackers == r.total_attackers, r
    assert r.detection_latency_s < censored, r


def test_throttle_and_pulse_evade_paper_literal(rows):
    # The headline claim: rate-shaping adversaries measurably degrade
    # detection vs the static row. Staying under the per-edge warning
    # threshold (throttle) or halving the per-minute counts with an
    # exchange-locked duty cycle (pulse) keeps investigations from
    # ever opening.
    static = _cell(rows, "paper", "static", "ba")
    for adversary in ("throttle", "pulse"):
        r = _cell(rows, "paper", adversary, "ba")
        assert r.detection_latency_s > static.detection_latency_s, r
        assert r.caught_attackers < static.caught_attackers, r


def test_collusion_corroboration_evades(rows):
    # Colluders claim each other in neighbor-list exchanges (consistent
    # lies pass the pairwise check) and corroborate fabricated excuse
    # traffic, clearing both indicators. Unlike SILENT cheats they
    # answer honestly about good suspects, so evasion costs no extra
    # false suspects.
    if not _has_cell(rows, "paper", "collude", "ba"):
        pytest.skip("collude row only in the full (bench) grid")
    static = _cell(rows, "paper", "static", "ba")
    r = _cell(rows, "paper", "collude", "ba")
    assert r.caught_attackers < static.caught_attackers, r
    assert r.false_negative <= static.false_negative, r


def test_churn_evasion_fails_at_default_timing(rows):
    # Negative result kept on record: fleeing at the default
    # evade_on_s comes after the first conviction, so churn-assisted
    # evasion does not beat the paper rule as configured.
    if not _has_cell(rows, "paper", "churn", "ba"):
        pytest.skip("churn row only in the full (bench) grid")
    r = _cell(rows, "paper", "churn", "ba")
    assert r.caught_attackers > 0.0, r


def test_bittorrent_swarms_blind_ddpolice(rows):
    # Structural finding: the dense swarm graph dilutes the General
    # indicator (excess / q*k) below the cut threshold, so even the
    # static flooder is never convicted on the bittorrent topology.
    if not _has_cell(rows, "paper", "static", "bittorrent"):
        pytest.skip("bittorrent column only in the full (bench) grid")
    r = _cell(rows, "paper", "static", "bittorrent")
    assert r.caught_attackers == 0.0, r


def test_bench_matrix_cell(benchmark, run):
    from dataclasses import replace

    from repro.experiments.runner import DESConfig, run_des_experiment
    from repro.overlay.topology import TopologyConfig

    scale = run.spec.scale
    cfg = DESConfig(
        n=scale.n_peers,
        duration_s=scale.sim_minutes * 60.0,
        seed=SEED,
        topology=TopologyConfig(n=scale.n_peers, seed=SEED, ba_m=1),
        num_agents=run.spec.grid.agents,
        attack_start_s=scale.attack_start_min * 60.0,
        attack_rate_qpm=run.spec.workload.attack_rate_qpm,
        adaptive=replace(run.spec.adversary, strategy="throttle"),
        defense="ddpolice",
        police=run.spec.police,
    )
    res = benchmark.pedantic(lambda: run_des_experiment(cfg), rounds=1, iterations=1)
    assert res.bad_peers
