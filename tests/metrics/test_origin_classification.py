"""Regression tests: attack queries must not pollute the S(t) denominator.

The original metrics path computed S(t) over *every* query record, so an
attack flood of unanswerable queries dragged measured S(t) down even
when not a single user query was harmed -- the damage figures measured
the measurement.  These tests pin the fix: with capacity ample enough
that the flood causes no real service degradation, the good-only S(t)
of an attacked run is *identical* (same seeds, jitter disabled) to the
no-attack baseline, while the all-traffic diagnostic collapses.

Both runs plant the same (deterministic) attack agents and
exclude the compromised peers from the user workload so the good-query
streams are event-for-event identical; only the attacked run launches
the agents.
"""

import pytest

from repro.experiments.runner import DESConfig, _plant_agents
from repro.overlay.content import ContentCatalog, ContentConfig
from repro.overlay.network import NetworkConfig, OverlayNetwork
from repro.overlay.topology import TopologyConfig, generate_topology
from repro.simkit.engine import Simulator
from repro.simkit.rng import RngRegistry
from repro.workload.generator import QueryWorkload, WorkloadConfig

SEED = 21
N = 30


def _run(launch_attack: bool):
    rngs = RngRegistry(SEED)
    sim = Simulator()
    topo = generate_topology(TopologyConfig(n=N, ba_m=1, seed=SEED))
    content = ContentCatalog(ContentConfig(num_objects=60, seed=SEED), N)
    # Deterministic: no jitter, and processing capacity (default 10k qpm)
    # far above the offered flood, so the attack cannot change how user
    # queries are served.
    net = OverlayNetwork(
        sim,
        topo,
        config=NetworkConfig(hop_latency_jitter_s=0.0, seed=SEED),
        content=content,
        rng_registry=rngs,
    )
    agents = _plant_agents(
        sim,
        net,
        DESConfig(n=N, num_agents=2, attack_rate_qpm=600.0),
        rngs.stream("attack"),
        None,
    )
    wl = QueryWorkload(
        sim,
        net,
        WorkloadConfig(queries_per_minute=3.0, seed=SEED),
        rng=rngs.stream("workload"),
        exclude=set(agents),
    )
    wl.start()
    if launch_attack:
        for agent in agents.values():
            sim.schedule_at(60.0, agent.start)
    sim.run(until=300.0)
    return net, net.accounting.rows, agents


@pytest.fixture(scope="module")
def paired_runs():
    return _run(launch_attack=False), _run(launch_attack=True)


def test_good_metrics_identical_to_no_attack_baseline(paired_runs):
    (base_net, base_rows, _), (atk_net, atk_rows, _) = paired_runs
    assert len(base_rows) == len(atk_rows) >= 3
    for b, a in zip(base_rows, atk_rows):
        assert (b.queries_issued, b.queries_succeeded) == (
            a.queries_issued,
            a.queries_succeeded,
        )
        assert b.mean_response_time_s == a.mean_response_time_s
    assert atk_net.success_rate("good") == base_net.success_rate()


def test_attack_queries_recorded_in_their_own_class(paired_runs):
    (_, base_rows, _), (atk_net, atk_rows, _) = paired_runs
    assert all(m.attack_queries_issued == 0 for m in base_rows)
    post = [m for m in atk_rows if m.time_s > 120.0]
    assert post and all(m.attack_queries_issued > 0 for m in post)
    # the flood's queries are bogus (unique nonce keywords): none succeed
    assert atk_net.accounting.totals("attack").succeeded == 0


def test_all_traffic_diagnostic_shows_the_old_pollution(paired_runs):
    _, (atk_net, atk_rows, _) = paired_runs
    post = [m for m in atk_rows if m.attack_queries_issued]
    assert post
    for m in post:
        assert m.all_success_rate < m.success_rate
    # whole-run: the polluted metric is visibly depressed vs. the fixed one
    assert atk_net.success_rate("all") < 0.5 * atk_net.success_rate("good")


def test_origin_registry_follows_attack_lifecycle(paired_runs):
    (base_net, _, _), (atk_net, _, agents) = paired_runs
    # unlaunched agents leave the registry empty (agents register at
    # start, not at construction)
    assert base_net.attack_origins == set()
    assert atk_net.attack_origins == set(agents)
    assert len(atk_net.attack_origins) == 2
