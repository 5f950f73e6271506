"""Unit tests for the fluid graph state (churn + snapshots)."""

import random

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fluid.graphstate import FluidChurnConfig, GraphState


def ring(n):
    return {i: {(i - 1) % n, (i + 1) % n} for i in range(n)}


def make_state(n=20, **churn_kw):
    return GraphState(
        n,
        ring(n),
        churn=FluidChurnConfig(**churn_kw),
        rng=random.Random(1),
    )


def test_initial_state_all_online():
    s = make_state()
    assert s.online_count() == 20
    assert s.degree(0) == 2


def test_symmetry_enforced():
    with pytest.raises(ConfigError):
        GraphState(3, {0: {1}, 1: set(), 2: set()})


def test_edge_surgery():
    s = make_state()
    s.remove_edge(0, 1)
    assert 1 not in s.adjacency[0] and 0 not in s.adjacency[1]
    s.add_edge(0, 5)
    assert 5 in s.adjacency[0] and 0 in s.adjacency[5]
    with pytest.raises(ConfigError):
        s.add_edge(2, 2)


def test_disconnect_all():
    s = make_state()
    s.disconnect_all(0)
    assert s.adjacency[0] == set()
    assert all(0 not in s.adjacency[v] for v in range(1, 20))


def test_churn_step_balances_population():
    s = make_state(n=200, leave_prob_per_min=0.2, join_prob_per_min=0.2)
    for _ in range(40):
        s.step_churn()
    frac = s.online_count() / 200
    assert 0.3 < frac < 0.7  # steady state ~0.5


def test_churn_disabled_keeps_everyone():
    s = make_state(enabled=False)
    s.step_churn()
    assert s.online_count() == 20


def test_pinned_nodes_never_leave():
    s = make_state(n=100, leave_prob_per_min=0.9, join_prob_per_min=0.0)
    s.pinned = {0, 1, 2}
    for _ in range(10):
        s.step_churn()
    assert all(s.online[u] for u in (0, 1, 2))


def test_leaving_node_loses_edges():
    s = make_state(n=50, leave_prob_per_min=1.0, join_prob_per_min=0.0)
    s.pinned = {0}
    s.step_churn()
    offline = [u for u in range(50) if not s.online[u]]
    assert offline
    for u in offline:
        assert s.adjacency[u] == set()


def test_joining_node_gets_3_or_4_neighbors():
    s = make_state(n=60, leave_prob_per_min=0.0, join_prob_per_min=1.0)
    s.online[:30] = False
    for u in range(30):
        s.disconnect_all(u)
    s.step_churn()
    joined = [u for u in range(30) if s.online[u]]
    assert joined
    for u in joined:
        # a joiner asks for 3-4, but may also be picked by other joiners
        assert 1 <= len(s.adjacency[u]) <= s.churn.max_degree


def test_isolated_node_reconnects_after_delay():
    s = make_state(n=20, leave_prob_per_min=0.0, join_prob_per_min=0.0,
                   reconnect_delay_min=2)
    s.disconnect_all(0)
    s.step_churn()  # minute 1: noticed
    s.step_churn()  # minute 2: delay not yet met
    assert s.adjacency[0] == set()
    s.step_churn()  # minute 3: reconnects
    assert len(s.adjacency[0]) >= 1


def test_snapshots_go_stale_and_refresh():
    s = GraphState(10, ring(10), churn=FluidChurnConfig(enabled=False),
                   exchange_period_min=2, rng=random.Random(2))
    s.remove_edge(0, 1)
    assert 1 in s.known_neighbors(0)  # stale view
    s.step_churn()
    s.step_exchange()
    s.step_churn()
    s.step_exchange()  # within 2 minutes every node republished
    assert 1 not in s.known_neighbors(0)


def test_staleness_metric():
    s = GraphState(10, ring(10), churn=FluidChurnConfig(enabled=False),
                   rng=random.Random(3))
    assert s.snapshot_staleness() == 0.0
    s.remove_edge(0, 1)
    assert s.snapshot_staleness() > 0.0


def test_offline_nodes_do_not_republish():
    s = GraphState(4, ring(4), churn=FluidChurnConfig(enabled=False),
                   exchange_period_min=1, rng=random.Random(4))
    s.online[2] = False
    s.disconnect_all(2)
    before = s.known_neighbors(2)
    s.step_churn()
    s.step_exchange()
    assert s.known_neighbors(2) == before  # stale snapshot retained


def test_config_validation():
    with pytest.raises(ConfigError):
        FluidChurnConfig(leave_prob_per_min=1.5)
    with pytest.raises(ConfigError):
        FluidChurnConfig(join_degree_min=0)
    with pytest.raises(ConfigError):
        FluidChurnConfig(max_degree=2)
    with pytest.raises(ConfigError):
        GraphState(1, {0: set()})


def test_edge_arrays_cached_until_topology_changes():
    s = GraphState(6, ring(6), churn=FluidChurnConfig(enabled=False),
                   rng=random.Random(0))
    first = s.edge_arrays()
    # no mutation -> the exact same tuple comes back (cache hit)
    assert s.edge_arrays() is first
    version = s.topology_version
    s.add_edge(0, 3)
    assert s.topology_version == version + 1
    second = s.edge_arrays()
    assert second is not first
    assert len(second[0]) == len(first[0]) + 2  # one undirected link = 2 arcs
    s.remove_edge(0, 3)
    third = s.edge_arrays()
    assert third is not second
    assert np.array_equal(third[0], first[0])
    assert np.array_equal(third[1], first[1])


def test_edge_arrays_match_live_adjacency_after_churn():
    from repro.fluid.flows import build_edge_arrays, edge_slice_index

    s = GraphState(30, ring(30), rng=random.Random(3))
    for _ in range(5):
        s.step_churn()
        src, dst, rev, indptr = s.edge_arrays()
        live = {u: set(vs) for u, vs in s.adjacency.items() if s.online[u]}
        ref_src, ref_dst, ref_rev = build_edge_arrays(live)
        assert np.array_equal(src, ref_src)
        assert np.array_equal(dst, ref_dst)
        assert np.array_equal(rev, ref_rev)
        assert np.array_equal(indptr, edge_slice_index(ref_src, s.n))
