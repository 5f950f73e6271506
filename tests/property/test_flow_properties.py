"""Property-based tests on the fluid flow propagation invariants."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fluid.coverage import novelty_schedule
from repro.fluid.flows import build_edge_arrays, propagate_flows
from repro.overlay.topology import TopologyConfig, generate_topology


def run_random_case(n, m, seed, good_rate, attack_rate, capacity, up=None, down=None):
    topo = generate_topology(TopologyConfig(n=n, ba_m=m, seed=seed))
    adj = {u: set(vs) for u, vs in enumerate(topo.adjacency)}
    src, dst, rev = build_edge_arrays(adj)
    rng = random.Random(seed)
    attack = np.zeros(len(src))
    if attack_rate > 0:
        agent = rng.randrange(n)
        mask = src == agent
        if mask.any():
            attack[mask] = attack_rate / mask.sum()
    sigma = novelty_schedule(topo.degrees(), 7, n=n)
    result = propagate_flows(
        src,
        dst,
        rev,
        n,
        good_rate=np.full(n, good_rate),
        attack_edge_inject=attack,
        capacity=np.full(n, capacity),
        ttl=7,
        sigma=sigma,
        upstream_qpm=None if up is None else np.full(n, up),
        downstream_qpm=None if down is None else np.full(n, down),
    )
    return result


case = dict(
    n=st.integers(min_value=8, max_value=60),
    m=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=500),
    good_rate=st.floats(min_value=0.0, max_value=50.0),
    attack_rate=st.floats(min_value=0.0, max_value=50_000.0),
    capacity=st.floats(min_value=10.0, max_value=1e6),
)


@settings(max_examples=25, deadline=None)
@given(**case)
def test_flow_invariants(n, m, seed, good_rate, attack_rate, capacity):
    if n <= m:
        return
    r = run_random_case(n, m, seed, good_rate, attack_rate, capacity)
    # loss factors are probabilities
    assert (0.0 <= r.rho).all() and (r.rho <= 1.0).all()
    assert (0.0 <= r.omega).all() and (r.omega <= 1.0).all()
    assert (0.0 <= r.iota).all() and (r.iota <= 1.0).all()
    # flows are non-negative and delivered never exceeds sent
    assert (r.edge_good >= 0).all() and (r.edge_attack >= 0).all()
    assert (r.edge_total <= r.edge_sent_total + 1e-6).all()
    # drop fraction is a fraction
    assert 0.0 <= r.dropped_fraction <= 1.0
    # good-class per-hop processed reach is non-negative
    assert (r.good_processed_per_hop >= -1e-9).all()
    assert (0.0 <= r.good_path_quality_per_hop).all()
    assert (r.good_path_quality_per_hop <= 1.0 + 1e-9).all()


@settings(max_examples=15, deadline=None)
@given(**case)
def test_capacity_monotonicity(n, m, seed, good_rate, attack_rate, capacity):
    """Raising capacity can only increase delivered volume."""
    if n <= m or (good_rate == 0 and attack_rate == 0):
        return
    tight = run_random_case(n, m, seed, good_rate, attack_rate, capacity)
    loose = run_random_case(n, m, seed, good_rate, attack_rate, capacity * 10)
    assert loose.total_messages_per_min >= tight.total_messages_per_min - 1e-6


@settings(max_examples=15, deadline=None)
@given(**case)
def test_bandwidth_limits_only_reduce(n, m, seed, good_rate, attack_rate, capacity):
    """Adding link constraints can only reduce delivered volume."""
    if n <= m or (good_rate == 0 and attack_rate == 0):
        return
    free = run_random_case(n, m, seed, good_rate, attack_rate, capacity)
    limited = run_random_case(
        n, m, seed, good_rate, attack_rate, capacity, up=500.0, down=500.0
    )
    # Relative tolerance: the fixed-point solver runs a capped number of
    # iterations, so both runs carry O(1e-4) relative convergence error
    # each; the gap between them compounds both runs' errors (observed
    # up to ~3.1e-4 at the iteration cap), so the slack covers 2x that.
    slack = 1e-6 + 6e-4 * abs(free.total_messages_per_min)
    assert limited.total_messages_per_min <= free.total_messages_per_min + slack


@settings(max_examples=15, deadline=None)
@given(**case)
def test_no_injection_no_flow(n, m, seed, good_rate, attack_rate, capacity):
    r = run_random_case(n, m, seed, 0.0, 0.0, capacity)
    assert r.total_messages_per_min == 0.0
    assert r.good_injected == 0.0
    assert r.attack_injected == 0.0


def test_classes_do_not_leak_into_each_other():
    """Hand-computed two-hop flows on the line 0-1-2-3 with attack
    injected on two of the six directed edges only. The kernel carries
    both classes in one stacked [good | attack] vector; every edge must
    still see exactly its own class's forwarded share."""
    adj = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
    src, dst, rev = build_edge_arrays(adj)
    edges = list(zip(src.tolist(), dst.tolist()))
    assert edges == [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
    attack = np.zeros(6)
    attack[edges.index((1, 2))] = 100.0
    attack[edges.index((2, 1))] = 30.0
    r = propagate_flows(
        src, dst, rev, 4,
        good_rate=np.array([10.0, 0.0, 0.0, 4.0]),
        attack_edge_inject=attack,
        capacity=np.full(4, 1e9),
        ttl=2,
        sigma=np.array([1.0, 0.5, 0.25]),
    )
    assert r.iterations == 1  # nothing saturates: rho = omega = iota = 1
    # Age 0 is the injection; age 1 forwards half (sigma[1]) of what arrived,
    # on every out-edge except the one it came in on.
    #                          (0,1) (1,0) (1,2)  (2,1) (2,3) (3,2)
    assert r.edge_good.tolist() == [10.0, 0.0, 5.0, 2.0, 0.0, 4.0]
    assert r.edge_attack.tolist() == [0.0, 15.0, 100.0, 30.0, 50.0, 0.0]
    assert r.edge_sent_total.tolist() == [10.0, 15.0, 105.0, 32.0, 50.0, 4.0]
    # Only good arrivals count as good reach: (10 + 4) * 0.5, (5 + 2) * 0.25.
    assert r.good_processed_per_hop.tolist() == [7.0, 1.75]
    assert r.offered.tolist() == [15.0, 42.0, 109.0, 50.0]
    assert (r.good_injected, r.attack_injected) == (14.0, 130.0)
