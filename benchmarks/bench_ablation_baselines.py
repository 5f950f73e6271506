"""Ablation: DD-POLICE vs the naive rate cutoff.

The paper argues (Section 2.1) that disconnecting any high-rate neighbor
is dangerous because good forwarders look like attackers. This bench
quantifies the claim.
"""

from dataclasses import replace

import numpy as np
import pytest

from benchmarks.conftest import publish
from repro.experiments.reporting import render_table
from repro.fluid.model import FluidConfig, FluidSimulation


@pytest.fixture(scope="module")
def comparison(scale):
    agents = max(1, round(0.005 * scale.n_peers))
    base = FluidConfig(
        n=scale.n_peers, seed=23, num_agents=agents,
        attack_start_min=scale.attack_start_min,
    )
    out = {}
    for label, defense in (("none", "none"), ("ddpolice", "ddpolice"), ("naive", "naive")):
        sim = FluidSimulation(replace(base, defense=defense))
        sim.run(scale.sim_minutes)
        tail = [r for r in sim.rows if r.minute >= scale.attack_start_min + 4]
        out[label] = {
            "success": float(np.mean([r.success_rate for r in tail])),
            "sim": sim,
        }
    return out


def test_baseline_comparison_table(results_dir, comparison):
    rows = []
    for label in ("none", "ddpolice", "naive"):
        entry = comparison[label]
        sim = entry["sim"]
        if label == "none":
            fn = fp = "-"
        else:
            err = sim.error_counts()
            fn, fp = err.false_negative, err.false_positive
        rows.append([label, round(100 * entry["success"], 1), fn, fp])
    text = render_table(
        ["defense", "success (%)", "good peers cut", "agents missed"],
        rows,
        title="Ablation: defense comparison at 0.5% compromised peers",
    )
    publish(results_dir, "ablation_baselines", text)


def test_ddpolice_beats_no_defense(comparison):
    assert comparison["ddpolice"]["success"] > comparison["none"]["success"]


def test_ddpolice_cuts_fewer_good_peers_than_naive(comparison):
    dd = comparison["ddpolice"]["sim"].error_counts()
    nv = comparison["naive"]["sim"].error_counts()
    assert dd.false_negative < nv.false_negative


def test_bench_defended_minute(benchmark, scale):
    agents = max(1, round(0.005 * scale.n_peers))
    sim = FluidSimulation(
        FluidConfig(n=scale.n_peers, seed=23, num_agents=agents, defense="ddpolice")
    )
    sim.run(2)
    benchmark(sim.step)
