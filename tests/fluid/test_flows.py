"""Unit tests for the fluid flow propagation."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fluid.coverage import novelty_schedule
from repro.fluid.flows import build_edge_arrays, propagate_flows


def line_adjacency(n):
    adj = {i: set() for i in range(n)}
    for i in range(n - 1):
        adj[i].add(i + 1)
        adj[i + 1].add(i)
    return adj


def run_flows(adj, n, good=None, attack_edges=None, cap=1e9, ttl=7, **kw):
    src, dst, rev = build_edge_arrays(adj)
    E = len(src)
    good_rate = np.zeros(n) if good is None else np.asarray(good, float)
    attack = np.zeros(E)
    if attack_edges:
        for (u, v), rate in attack_edges.items():
            for e in range(E):
                if src[e] == u and dst[e] == v:
                    attack[e] = rate
    sigma = novelty_schedule([len(v) for v in adj.values()], ttl, n=n)
    return propagate_flows(
        src,
        dst,
        rev,
        n,
        good_rate=good_rate,
        attack_edge_inject=attack,
        capacity=np.full(n, float(cap)),
        ttl=ttl,
        sigma=sigma,
        **kw,
    ), (src, dst, rev)


def test_edge_arrays_symmetric_pairing():
    adj = {0: {1, 2}, 1: {0}, 2: {0}}
    src, dst, rev = build_edge_arrays(adj)
    assert len(src) == 4
    for e in range(4):
        r = rev[e]
        assert src[r] == dst[e] and dst[r] == src[e]


def test_edge_arrays_reject_asymmetry():
    with pytest.raises(ConfigError):
        build_edge_arrays({0: {1}, 1: set()})


def test_edge_arrays_reject_self_loop():
    with pytest.raises(ConfigError):
        build_edge_arrays({0: {0}})


def test_line_propagation_without_losses():
    """On a line with no capacity limits and sigma ~1, a query issued at
    node 0 flows one copy along each hop."""
    n = 8
    adj = line_adjacency(n)
    good = np.zeros(n)
    good[0] = 60.0
    result, (src, dst, rev) = run_flows(adj, n, good=good, ttl=7)
    flows = {(int(src[e]), int(dst[e])): result.edge_good[e] for e in range(len(src))}
    # degree-2 line barely saturates coverage; each forward hop keeps ~rate
    assert flows[(0, 1)] == pytest.approx(60.0)
    assert flows[(1, 2)] > 30.0
    # nothing flows backwards toward the source
    assert flows[(1, 0)] == pytest.approx(0.0, abs=1e-9)


def test_ttl_limits_depth():
    n = 10
    adj = line_adjacency(n)
    good = np.zeros(n)
    good[0] = 60.0
    result, (src, dst, rev) = run_flows(adj, n, good=good, ttl=3)
    flows = {(int(src[e]), int(dst[e])): result.edge_good[e] for e in range(len(src))}
    assert flows[(2, 3)] > 0
    assert flows[(3, 4)] == pytest.approx(0.0, abs=1e-9)  # hop 4 > ttl 3


def test_capacity_throttles_flow():
    n = 8
    adj = line_adjacency(n)
    good = np.zeros(n)
    good[0] = 1000.0
    free, _ = run_flows(adj, n, good=good, cap=1e9)
    tight, _ = run_flows(adj, n, good=good, cap=500.0)
    assert tight.total_messages_per_min < free.total_messages_per_min
    assert tight.dropped_fraction > 0
    assert (tight.rho <= 1.0 + 1e-12).all()
    assert tight.rho.min() < 1.0


def test_attack_injection_on_specific_edge():
    n = 4
    adj = line_adjacency(n)
    result, (src, dst, rev) = run_flows(
        adj, n, attack_edges={(0, 1): 600.0}, cap=1e9
    )
    flows = {(int(src[e]), int(dst[e])): result.edge_attack[e] for e in range(len(src))}
    assert flows[(0, 1)] == pytest.approx(600.0)
    assert flows[(1, 2)] > 0
    assert result.attack_injected == pytest.approx(600.0)
    assert result.good_injected == 0.0


def test_good_and_attack_share_capacity():
    n = 6
    adj = line_adjacency(n)
    good = np.zeros(n)
    good[0] = 100.0
    clean, _ = run_flows(adj, n, good=good, cap=500.0)
    attacked, _ = run_flows(
        adj, n, good=good, attack_edges={(0, 1): 10_000.0}, cap=500.0
    )
    # attack load displaces good flow
    assert attacked.edge_good.sum() < clean.edge_good.sum()
    assert attacked.good_processed_per_hop.sum() < clean.good_processed_per_hop.sum()


def test_upstream_bandwidth_caps_outflow():
    n = 4
    adj = line_adjacency(n)
    good = np.zeros(n)
    good[0] = 1000.0
    src, dst, rev = build_edge_arrays(adj)
    sigma = novelty_schedule([2] * n, 7, n=n)
    up = np.full(n, np.inf)
    up[0] = 100.0  # source can only push 100/min
    result = propagate_flows(
        src, dst, rev, n,
        good_rate=good,
        attack_edge_inject=np.zeros(len(src)),
        capacity=np.full(n, 1e9),
        ttl=7,
        sigma=sigma,
        upstream_qpm=up,
    )
    flows = {(int(src[e]), int(dst[e])): result.edge_good[e] for e in range(len(src))}
    assert flows[(0, 1)] == pytest.approx(100.0, rel=0.05)
    assert result.omega[0] < 1.0


def test_downstream_bandwidth_caps_inflow():
    n = 4
    adj = line_adjacency(n)
    good = np.zeros(n)
    good[0] = 1000.0
    src, dst, rev = build_edge_arrays(adj)
    sigma = novelty_schedule([2] * n, 7, n=n)
    down = np.full(n, np.inf)
    down[1] = 50.0
    result = propagate_flows(
        src, dst, rev, n,
        good_rate=good,
        attack_edge_inject=np.zeros(len(src)),
        capacity=np.full(n, 1e9),
        ttl=7,
        sigma=sigma,
        downstream_qpm=down,
    )
    flows = {(int(src[e]), int(dst[e])): result.edge_good[e] for e in range(len(src))}
    assert flows[(0, 1)] == pytest.approx(50.0, rel=0.05)
    assert result.iota[1] < 1.0


def test_sent_exceeds_delivered_under_congestion():
    n = 4
    adj = line_adjacency(n)
    good = np.zeros(n)
    good[0] = 1000.0
    src, dst, rev = build_edge_arrays(adj)
    sigma = novelty_schedule([2] * n, 7, n=n)
    down = np.full(n, np.inf)
    down[1] = 50.0
    result = propagate_flows(
        src, dst, rev, n,
        good_rate=good,
        attack_edge_inject=np.zeros(len(src)),
        capacity=np.full(n, 1e9),
        ttl=7,
        sigma=sigma,
        downstream_qpm=down,
    )
    assert result.edge_sent_total.sum() > result.edge_total.sum()


def test_empty_graph_is_fine():
    result, _ = run_flows({}, 3, good=[0.0, 0.0, 0.0])
    assert result.total_messages_per_min == 0.0
    assert result.dropped_fraction == 0.0


def test_validation_errors():
    n = 3
    adj = line_adjacency(n)
    src, dst, rev = build_edge_arrays(adj)
    sigma = novelty_schedule([2] * n, 7, n=n)
    ok = dict(
        good_rate=np.zeros(n),
        attack_edge_inject=np.zeros(len(src)),
        capacity=np.ones(n),
        ttl=7,
        sigma=sigma,
    )
    with pytest.raises(ConfigError):
        propagate_flows(src, dst, rev, n, **{**ok, "good_rate": np.zeros(n + 1)})
    with pytest.raises(ConfigError):
        propagate_flows(src, dst, rev, n, **{**ok, "capacity": np.zeros(n)})
    with pytest.raises(ConfigError):
        propagate_flows(src, dst, rev, n, **{**ok, "attack_edge_inject": -np.ones(len(src))})
    with pytest.raises(ConfigError):
        propagate_flows(src, dst, rev, n, **{**ok, "sigma": sigma[:3]})
    with pytest.raises(ConfigError):
        propagate_flows(src, dst, rev, n, max_iterations=0, **ok)


def test_fixed_point_converges():
    """More iterations should not change the answer materially."""
    n = 20
    adj = line_adjacency(n)
    good = np.zeros(n)
    good[0] = 5000.0
    a, _ = run_flows(adj, n, good=good, cap=1000.0, max_iterations=12)
    b, _ = run_flows(adj, n, good=good, cap=1000.0, max_iterations=40)
    assert a.total_messages_per_min == pytest.approx(
        b.total_messages_per_min, rel=0.02
    )


# ---------------------------------------------------------------------------
# vectorized edge-array builder vs hand-written reference arrays
# ---------------------------------------------------------------------------

def random_adjacency(n, p, seed):
    rng = __import__("random").Random(seed)
    adj = {u: set() for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def test_vectorized_builder_matches_reference():
    """(src, dst)-sorted directed edges and the reverse permutation, against
    literals; dict and set iteration order must not matter."""
    cases = [
        ({}, [], [], []),  # no nodes
        ({0: set(), 1: set()}, [], [], []),  # no edges
        ({0: {1}, 1: {0}}, [0, 1], [1, 0], [1, 0]),  # single link
        (
            line_adjacency(4),
            [0, 1, 1, 2, 2, 3], [1, 0, 2, 1, 3, 2], [1, 0, 3, 2, 5, 4],
        ),
        (  # triangle with a tail, nodes listed out of order, a gap at id 3
            {4: {2}, 2: {0, 1, 4}, 1: {2, 0}, 0: {1, 2}},
            [0, 0, 1, 1, 2, 2, 2, 4], [1, 2, 0, 2, 0, 1, 4, 2],
            [2, 4, 0, 5, 1, 3, 7, 6],
        ),
    ]
    for adj, src_ref, dst_ref, rev_ref in cases:
        src, dst, rev = build_edge_arrays(adj)
        assert src.tolist() == src_ref
        assert dst.tolist() == dst_ref
        assert rev.tolist() == rev_ref
        assert src.dtype == dst.dtype == rev.dtype == np.int64
    for n, p, seed in [(13, 0.3, 1), (40, 0.1, 2), (5, 1.0, 3)]:
        adj = random_adjacency(n, p, seed)
        src, dst, rev = build_edge_arrays(adj)
        pairs = list(zip(src.tolist(), dst.tolist()))
        assert pairs == sorted((u, v) for u in adj for v in adj[u])
        assert [pairs[r] for r in rev.tolist()] == [(v, u) for u, v in pairs]


def test_vectorized_builder_rejects_self_loops_and_asymmetry():
    with pytest.raises(ConfigError, match="self-loop at node 0"):
        build_edge_arrays({0: {0}, 1: set()})
    with pytest.raises(ConfigError, match=r"asymmetric adjacency at edge \(0, 1\)"):
        build_edge_arrays({0: {1}, 1: set()})


def test_edge_slice_index_slices_match_masks():
    from repro.fluid.flows import edge_slice_index

    adj = random_adjacency(20, 0.25, 7)
    src, dst, rev = build_edge_arrays(adj)
    indptr = edge_slice_index(src, 20)
    assert indptr.shape == (21,)
    assert indptr[0] == 0 and indptr[-1] == len(src)
    for u in range(20):
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        np.testing.assert_array_equal(np.arange(lo, hi), np.nonzero(src == u)[0])
        assert hi - lo == len(adj[u])
    # out-degrees come straight off the index
    assert np.array_equal(np.diff(indptr), np.bincount(src, minlength=20))


def test_edge_slice_index_requires_sorted_src():
    from repro.fluid.flows import edge_slice_index

    with pytest.raises(ConfigError):
        edge_slice_index(np.array([1, 0], dtype=np.int64), 2)
    # empty edge set is fine
    empty = edge_slice_index(np.array([], dtype=np.int64), 3)
    assert np.array_equal(empty, np.zeros(4, dtype=np.int64))
