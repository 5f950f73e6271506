"""Figures 9-11: traffic cost, response time, success rate vs #agents.

The shared sweep runs, for each agent density the paper uses
(10..200 agents per 20,000 peers), three variants: no attack, attack
without DD-POLICE, attack with DD-POLICE (CT=5, 2-minute exchange). The
registered ``fig9`` / ``fig10`` / ``fig11`` specs project that one sweep
(same scenario hash, so it runs once).

Paper anchors (shape, not absolute numbers):
* Fig 9 -- 10-20 agents roughly double the traffic; ~100 agents push it
  an order of magnitude up; DD-POLICE stays near the no-attack cost with
  a small control overhead.
* Fig 10 -- ~100 agents raise mean response time ~2.4x.
* Fig 11 -- up to ~90% of queries fail under attack; DD-POLICE restores
  success close to the no-attack line.
"""

import pytest

from benchmarks.conftest import publish
from repro.experiments.library import run_spec


@pytest.fixture(scope="module")
def runs(scale):
    return {name: run_spec(name, scale=scale.name) for name in ("fig9", "fig10", "fig11")}


def test_fig9_traffic_cost(results_dir, runs):
    run = runs["fig9"]
    publish(
        results_dir, "fig09_traffic",
        run.tables["fig09_traffic"], manifest=run.manifest,
    )
    rows = run.data
    # attack inflates traffic; DD-POLICE pulls it back toward baseline
    for r in rows:
        assert r.traffic_attack_k > 1.5 * r.traffic_no_ddos_k
        assert r.traffic_defended_k < r.traffic_attack_k
    # smallest density already roughly doubles traffic
    assert rows[0].traffic_attack_k > 2 * rows[0].traffic_no_ddos_k


def test_fig10_response_time(results_dir, runs):
    run = runs["fig10"]
    publish(
        results_dir, "fig10_response",
        run.tables["fig10_response"], manifest=run.manifest,
    )
    # response degrades with the heaviest attack, DD-POLICE recovers
    heaviest = run.data[-1]
    assert heaviest.response_attack_s > 1.3 * heaviest.response_no_ddos_s
    assert heaviest.response_defended_s < heaviest.response_attack_s


def test_fig11_success_rate(results_dir, runs):
    run = runs["fig11"]
    publish(
        results_dir, "fig11_success",
        run.tables["fig11_success"], manifest=run.manifest,
    )
    rows = run.data
    for r in rows:
        assert r.success_attack < r.success_no_ddos
        assert r.success_defended > r.success_attack
    # heaviest attack wipes out most of the success rate
    assert rows[-1].success_attack < 0.6 * rows[-1].success_no_ddos
    # DD-POLICE holds success within 20% of the clean baseline
    assert rows[-1].success_defended > 0.7 * rows[-1].success_no_ddos


def test_bench_one_attack_minute(benchmark, scale):
    """Per-minute simulation cost at the configured scale."""
    from repro.fluid.model import FluidConfig, FluidSimulation

    sim = FluidSimulation(
        FluidConfig(n=scale.n_peers, num_agents=scale.agent_counts()[2], seed=7)
    )
    sim.run(2)  # warm
    benchmark(sim.step)
