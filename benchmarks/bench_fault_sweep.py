"""Fault-robustness sweep: control-plane loss x fail-stop crashes.

Not a paper figure -- a robustness study of the evidence-collection
rule. The paper-literal Section 3.3 rule ("missing report => assume 0")
turns every lost Neighbor_Traffic message into phantom evidence that the
suspect issued the traffic itself, so control-plane loss manufactures
false negatives (good forwarders cut). The hardened profile (bounded
retries + report quorum with one window extension + neighbor-list
retransmission, all off by default) recovers most of them while leaving
the fault-free behavior untouched.

The sweep itself is the registered ``fault-sweep`` spec
(:mod:`repro.experiments.library`); this module publishes its table and
asserts the robustness claims against its points.
"""

import pytest

from benchmarks.conftest import publish
from repro.experiments.library import run_spec

SEED = 23  # the registered fault-sweep spec's seed


@pytest.fixture(scope="module")
def run(scale):
    return run_spec("fault-sweep", scale=scale.name)


@pytest.fixture(scope="module")
def grid(run):
    return run.spec.grid


@pytest.fixture(scope="module")
def points(run):
    return run.data


def _total_fn(points, profile, min_loss):
    return sum(
        p.false_negative * p.trials
        for p in points
        if p.profile == profile and p.loss >= min_loss
    )


def test_fault_sweep_table(results_dir, run, grid, points):
    assert run.spec.seed == SEED
    publish(results_dir, "fault_sweep", run.tables["fault_sweep"], manifest=run.manifest)
    assert len(points) == (
        len(grid.loss_fractions) * len(grid.crash_counts) * len(grid.profiles)
    )


def test_clean_runs_have_no_false_negatives(points):
    # With no faults injected, neither profile cuts good peers: the
    # hardening must be inert when the network behaves.
    for p in points:
        if p.loss == 0.0 and p.crashes == 0:
            assert p.false_negative == 0.0, p


def test_hardening_beats_assume_zero_under_loss(points):
    # The headline claim: at >= 20% control-plane loss the paper-literal
    # rule produces strictly more false negatives than quorum + retry.
    fn_paper = _total_fn(points, "paper", min_loss=0.2)
    fn_hardened = _total_fn(points, "hardened", min_loss=0.2)
    assert fn_paper > fn_hardened, (fn_paper, fn_hardened)


def test_loss_manufactures_false_negatives_for_paper_rule(points):
    # Sanity on the mechanism itself: the paper rule's FN count grows
    # from (near) zero to positive as control loss is injected.
    fn_clean = _total_fn(points, "paper", min_loss=0.0) - _total_fn(
        points, "paper", min_loss=0.1
    )
    fn_lossy = _total_fn(points, "paper", min_loss=0.2)
    assert fn_lossy > fn_clean


def test_bench_fault_point(benchmark, scale):
    tiny = {"trials": 1, "grid.loss_fractions": (0.3,), "grid.crash_counts": (0,)}

    def one_cell():
        return run_spec("fault-sweep", scale=scale.name, overrides=tiny, cache=False)

    result = benchmark.pedantic(one_cell, rounds=1, iterations=1)
    assert len(result.data) == 2
