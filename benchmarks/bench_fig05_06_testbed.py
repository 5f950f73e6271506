"""Figures 5 & 6: the A->B->C testbed capacity sweep.

Paper anchors: drops begin ~15,000 queries/min (Fig 5 knee); 47% of
queries dropped at the agent maximum of ~29,000/min (Fig 6 endpoint).
The tables are the registered ``fig5`` / ``fig6`` specs.
"""

import pytest

from benchmarks.conftest import publish
from repro.experiments.library import run_spec
from repro.testbed.pipeline import run_rate_sweep


def test_fig5_processed_vs_sent(results_dir, scale):
    run = run_spec("fig5", scale=scale.name)
    publish(
        results_dir, "fig05_processed",
        run.tables["fig05_processed"], manifest=run.manifest,
    )
    knee = next(p.sent_qpm for p in run.data if p.processed_qpm < p.sent_qpm)
    assert 15_000 < knee <= 17_000


def test_fig6_drop_rate(results_dir, scale):
    run = run_spec("fig6", scale=scale.name)
    publish(
        results_dir, "fig06_droprate",
        run.tables["fig06_droprate"], manifest=run.manifest,
    )
    assert run.data[-1].drop_rate_pct == pytest.approx(47.0, abs=1.5)


def test_bench_rate_sweep(benchmark):
    points = benchmark(run_rate_sweep)
    assert len(points) == 29
