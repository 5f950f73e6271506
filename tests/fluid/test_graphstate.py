"""Unit tests for the fluid graph state (churn + snapshots)."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fluid.graphstate import FluidChurnConfig, GraphState
from repro.overlay.topology import TopologyConfig, generate_topology


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


# ---------------------------------------------------------------------------
# the churn stream: inlined draws consume the same words
# ---------------------------------------------------------------------------

def _churn_sha256(state):
    doc = (
        [sorted(state.adjacency[u]) for u in range(state.n)],
        state.online.tolist(),
        [sorted(state.snapshots[u]) for u in range(state.n)],
        sorted(state._isolated_since.items()),
        state.joins,
        state.leaves,
        state._rng.getstate(),
    )
    return hashlib.sha256(repr(doc).encode()).hexdigest()


_PINNED_CHURN = {
    "default": FluidChurnConfig(),
    # Joiners often meet saturated candidates and run out of attempts.
    "saturating": FluidChurnConfig(
        leave_prob_per_min=0.3, join_prob_per_min=0.3,
        join_degree_min=3, join_degree_max=4, max_degree=4,
    ),
    # A one-value degree span still draws (and may reject) its bit.
    "fixed-degree": FluidChurnConfig(
        join_degree_min=2, join_degree_max=2, max_degree=5, reconnect_delay_min=0,
    ),
}


@pytest.mark.parametrize(
    "churn, seed, digest",
    [
        ("default", 3, "599b66c92a411a1c8f6838ba3e66e56e2259a397fafffb9453f5f02f24f45aed"),
        ("default", 11, "70d852fc3ae6ea8792ebc9a4f3a3eaa9f9737265470e816e8d3f74de118b69ef"),
        ("saturating", 3, "e8a57e8855dc00b86cae0312ad905ef60c580b8c8dc69505fab4ea566caa8205"),
        ("saturating", 11, "6419617af7a2679318a79496b61f00e799a964e0b391b242da657f0e8669b839"),
        ("fixed-degree", 3, "690415713f04f18b125916741ce7bd2d7cd86afc286c8c6048f3d4b97b2ac07b"),
        ("fixed-degree", 11, "6650fdb8fc1ce26d50636d6dd11c4526c432077d1a384d742891393e74645eb5"),
    ],
)
def test_churn_stream_is_pinned(churn, seed, digest):
    """Twenty churn + exchange minutes on a 300-peer BA overlay end in the
    adjacency, online flags, snapshots and churn-stream position these
    digests were recorded from (before the joins' draws were inlined)."""
    topo = generate_topology(TopologyConfig(n=300, seed=seed))
    s = GraphState(
        300,
        {u: set(vs) for u, vs in enumerate(topo.adjacency)},
        churn=_PINNED_CHURN[churn],
        exchange_period_min=2,
        rng=random.Random(seed),
    )
    s.pinned = set(range(5))
    for _ in range(20):
        s.step_churn()
        s.step_exchange()
    assert _churn_sha256(s) == digest


# ---------------------------------------------------------------------------
# the changed set: republication and staleness against a full recomputation
# ---------------------------------------------------------------------------

def _full_staleness(state, snapshots):
    """Every online peer's published list against its live one."""
    errs = []
    for u in np.flatnonzero(state.online).tolist():
        snap, live = snapshots[u], state.adjacency[u]
        if snap == live:
            if live:
                errs.append(0.0)
        else:
            errs.append(len(snap ^ live) / len(snap | live))
    return float(np.mean(errs)) if errs else 0.0


_N = 24
_node = st.integers(0, _N - 1)
_op = st.one_of(
    st.tuples(st.just("add"), _node, _node),
    st.tuples(st.just("remove"), _node, _node),
    st.tuples(st.just("expel"), _node),
    st.tuples(st.just("stale"), _node, st.frozensets(_node, max_size=4)),
    st.tuples(st.just("churn")),
    st.tuples(st.just("exchange")),
)


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(_op, max_size=60),
    period=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_changed_set_matches_a_full_recomputation(ops, period, seed):
    """After any mix of edge adds and removes, expulsions, hand-published
    stale lists, churn minutes (leaves, joins, reconnects) and exchanges,
    the snapshots and staleness equal a model that re-freezes every due
    peer and compares every online one."""
    s = GraphState(
        _N,
        ring(_N),
        churn=FluidChurnConfig(
            leave_prob_per_min=0.3, join_prob_per_min=0.5, reconnect_delay_min=0
        ),
        exchange_period_min=period,
        rng=random.Random(seed),
    )
    ref = dict(s.snapshots)
    for op in ops:
        kind = op[0]
        if kind == "add":
            u, v = op[1], op[2]
            if u != v and s.online[u] and s.online[v]:
                s.add_edge(u, v)
        elif kind == "remove":
            s.remove_edge(op[1], op[2])
        elif kind == "expel":
            s.disconnect_all(op[1])
            s.online[op[1]] = False
        elif kind == "stale":
            s.publish(op[1], op[2])
            ref[op[1]] = op[2]
        elif kind == "churn":
            s.step_churn()
        else:
            online = np.flatnonzero(s.online)
            due = online[(s.minute + online) % period == 0].tolist()
            for u in due:
                ref[u] = frozenset(s.adjacency[u])
            assert s.step_exchange() == len(due)
        assert s.snapshots == ref
        assert s.snapshot_staleness() == _full_staleness(s, ref)


# ---------------------------------------------------------------------------
# checkpoint / restore
# ---------------------------------------------------------------------------

def _churned_state(seed=5):
    s = GraphState(40, ring(40), exchange_period_min=2, rng=random.Random(seed))
    s.pinned = {0, 1}
    for _ in range(6):
        s.step_churn()
        s.step_exchange()
    s.remove_edge(*next((u, v) for u in range(40) for v in s.adjacency[u]))
    return s


def test_restore_continues_exactly_where_the_checkpoint_froze():
    s = _churned_state()
    restored = GraphState.restore(s.checkpoint())
    assert restored.checkpoint() == s.checkpoint()
    for _ in range(5):
        s.step_churn()
        s.step_exchange()
        restored.step_churn()
        restored.step_exchange()
        assert _churn_sha256(restored) == _churn_sha256(s)
        assert restored.snapshot_staleness() == s.snapshot_staleness()
        assert np.array_equal(restored.edge_arrays()[0], s.edge_arrays()[0])


def test_restored_states_share_no_mutable_part():
    checkpoint = _churned_state().checkpoint()
    a = GraphState.restore(checkpoint)
    b = GraphState.restore(checkpoint)
    a.disconnect_all(next(u for u in range(40) if a.adjacency[u]))
    a.online[:] = False
    a.pinned.clear()
    a._rng.random()
    a.publish(3, {7})
    assert b.checkpoint() == checkpoint
    assert GraphState.restore(checkpoint).checkpoint() == checkpoint
