"""Unit tests for the wave kernel of the batched SoA flood engine.

The des == des-soa contract lives in ``tests/property/test_soa_equivalence.py``;
these tests pin what that suite cannot see: the engine's own event and
batch counts, the two hit-drop branches, the edge ids its chunks carry,
the hop-window edges -- chunk order inside a wave, and the minute
roll, DD-POLICE conclusions and the end of the run cutting a window --
and the tie-breaks of the batch sorts, which must keep arrival order
however numpy orders equal keys.
"""

import gc
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from repro.experiments.runner import DESConfig
from repro.overlay.ids import PeerId
from repro.overlay.network import NetworkConfig, OverlayNetwork
from repro.overlay.soa_network import (
    HITS,
    MISSING,
    ORIGIN,
    QUERIES,
    SoaFloodEngine,
)
from repro.overlay.topology import TopologyConfig, generate_topology
from repro.simkit.engine import Simulator


def _config(network=None, ba_m=2, **kwargs):
    n = 150
    return DESConfig(
        n=n,
        seed=3,
        topology=TopologyConfig(n=n, seed=3, ba_m=ba_m),
        network=NetworkConfig(
            hop_latency_jitter_s=0.0, default_ttl=3, **(network or {})
        ),
        **kwargs,
    )


def _attacked_config():
    return _config(
        duration_s=70.0,
        num_agents=2,
        attack_start_s=0.0,
        attack_rate_qpm=2000.0,
        defense="ddpolice",
    )


def _count_calls(obj, name):
    """Wrap ``obj.name`` in place; returns the list its calls land in."""
    calls = []
    inner = getattr(obj, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    setattr(obj, name, wrapper)
    return calls


def test_pinned_run_keeps_its_event_and_delivery_counts():
    # One heap event per wave plus the control plane: a kernel change
    # that splits, merges or drops a wave moves these numbers. The
    # seen-map inserts and token grants count the hop-window batches
    # (grants: one per batch and per-peer round), so a change in how
    # waves are batched moves those.
    engine = SoaFloodEngine(_attacked_config())
    inserts = _count_calls(engine.seen, "insert_new")
    grants = _count_calls(engine.bucket, "grant")
    engine.run()
    assert engine.waves_processed == 485
    assert engine.sim.events_fired == 617
    assert len(inserts) == 322  # 381 with one batch per wave
    assert len(grants) == 362  # 375 with one batch per wave
    stats = engine.stats
    assert stats.messages_delivered == 224_466
    assert stats.queries_dropped_duplicate == 36_233
    assert stats.hit_messages == 189
    assert stats.edges_cut == 2
    # numpy scalars would break the JSON digests downstream
    assert all(type(v) is int for v in asdict(stats).values())


@pytest.mark.parametrize(
    "model", ["ba", "waxman", "random", "two_tier", "hard_cutoff", "bittorrent"]
)
def test_fan_out_order_is_the_des_neighbor_set_order(model):
    """Each peer's prototype edges list its neighbours in the order the
    message DES's ``Peer.neighbors`` set iterates them, which decides
    the dedup winners one hop on."""
    n = 150
    topology = TopologyConfig(n=n, seed=3, model=model)
    engine = SoaFloodEngine(
        DESConfig(
            n=n,
            seed=3,
            topology=topology,
            network=NetworkConfig(hop_latency_jitter_s=0.0),
        )
    )
    network = OverlayNetwork(Simulator(), generate_topology(topology))
    indptr = engine._indptr
    for u in range(n):
        replay = engine._dst[engine._proto_edge[indptr[u] : indptr[u + 1]]]
        des = [v.value for v in network.peers[PeerId(u)].neighbors]
        assert replay.tolist() == des, u


def _idle_engine(**kwargs):
    """An engine with no workload started: waves only come from the test."""
    return SoaFloodEngine(_config(duration_s=kwargs.pop("duration_s", 10.0), **kwargs))


def _deliver_hit(engine, qid, at):
    engine._push(1.0, (0.0, 0), HITS, np.array([qid]), np.array([at]))
    engine.sim.run(until=1.0)


def test_hit_without_a_route_entry_is_dropped_once():
    engine = _idle_engine()
    _deliver_hit(engine, qid=7, at=4)
    assert engine.stats.hit_messages == 1
    assert engine.stats.hits_dropped_no_route == 1
    assert not engine._waves  # nothing was forwarded


def test_hit_whose_arrival_edge_was_cut_is_dropped_once():
    engine = _idle_engine()
    arrival = int(engine._rev[engine._indptr[4]])  # an edge into peer 4
    assert engine._dst[arrival] == 4
    engine.seen.insert_new(np.array([7 * engine.n + 4]), np.array([arrival]))
    engine.edge_alive[[arrival, engine._rev[arrival]]] = False
    _deliver_hit(engine, qid=7, at=4)
    assert engine.stats.hits_dropped_no_route == 1
    assert not engine._waves


def test_hit_follows_the_reverse_of_its_arrival_edge():
    engine = _idle_engine()
    arrival = int(engine._rev[engine._indptr[4]])
    parent = int(engine._src[arrival])
    engine.seen.insert_new(np.array([7 * engine.n + 4]), np.array([arrival]))
    _deliver_hit(engine, qid=7, at=4)
    assert engine.stats.hits_dropped_no_route == 0
    ((_, hits),) = engine._waves.values()
    assert [(q.tolist(), at.tolist()) for _tag, q, at in hits] == [([7], [parent])]


class _CheckedEngine(SoaFloodEngine):
    """Checks every delivered query copy against the seen/route map."""

    copies_checked = 0

    def _process_queries(self, times, w, qid, edge, ttl, obj, size):
        super()._process_queries(times, w, qid, edge, ttl, obj, size)
        # The edge's source is the sender: it must hold the query, as
        # its origin (full TTL) or with an arrival edge of its own, and
        # a relay never sends back up that arrival edge.
        sender = self._src[edge]
        route = self.seen.lookup(qid * self.n + sender, missing=MISSING)
        assert (route != MISSING).all()
        assert (ttl[route == ORIGIN] == self._default_ttl).all()
        relayed = route >= 0
        assert (self._dst[route[relayed]] == sender[relayed]).all()
        assert (edge[relayed] != self._rev[route[relayed]]).all()
        assert (ttl[relayed] < self._default_ttl).all()
        # rows run in window-timestamp order
        assert (np.diff(w) >= 0).all() and 0 <= w[0] and w[-1] < len(times)
        self.copies_checked += len(qid)


def test_every_chunk_edge_leaves_from_a_peer_that_holds_the_query():
    engine = _CheckedEngine(_attacked_config())
    engine.run()
    assert engine.copies_checked == engine.stats.query_messages > 100_000


# ----------------------------------------------------------------------
# hop-window edges
# ----------------------------------------------------------------------
def _out_edges(engine, u):
    """Directed edge ids ``u -> v``, ``v`` ascending."""
    return np.arange(engine._indptr[u], engine._indptr[u + 1])


def _in_edges(engine, u):
    """Directed edge ids ``v -> u``, ``v`` ascending."""
    return engine._rev[_out_edges(engine, u)]


def _push_copy(engine, t, edge, qid, ttl=1):
    """One query copy in flight on ``edge``, delivered at ``t``."""
    cols = np.array([[qid], [edge], [ttl], [-1], [30]], dtype=np.int64)
    engine._push(t, (0.0, 0), QUERIES, *cols)


def _open_window(engine, t):
    """A wave at ``t`` that touches nothing: one hit without a route."""
    engine._push(t, (0.0, 0), HITS, np.array([10**6]), np.array([0]))


def _senders(engine, t, qid):
    """Peers with a copy of ``qid`` buffered for delivery at ``t``."""
    qchunks, _ = engine._waves.get(t, ([], []))
    return {
        int(s)
        for _tag, q, e, *_ in qchunks
        for s in engine._src[e[q == qid]].tolist()
    }


def test_chunks_of_one_wave_run_in_producer_event_order():
    # Peer p has one token. An issue at b (time te) and a relay at a
    # (time t > te) both reach p at the same float instant te + hop ==
    # t + hop. The DES fires the issue first, so its copy takes the
    # token; the batch opened at t0 < te pushed the relay's copy before
    # the issue ran, and only the chunk tags put it back behind.
    engine = _idle_engine(network={"processing_qpm_good": 60.0})
    hop = engine._hop
    te = 1.97
    while True:  # an ulp-close pair whose sums with hop coincide
        t = float(np.nextafter(te, 3.0))
        if te + hop == t + hop:
            break
        te = t
    t0 = 1.95
    assert t0 < te < t < t0 + hop
    p = 0
    into_p = _in_edges(engine, p)
    a, b = engine._src[into_p[:2]].tolist()
    e_xa = next(e for e in _in_edges(engine, a).tolist() if engine._src[e] != p)
    _open_window(engine, t0)
    _push_copy(engine, t, e_xa, qid=100, ttl=3)  # a relays it to p
    engine.sim.schedule_at(te, engine._issue, b)  # qid 0, b sends it to p
    arrive = t + hop
    engine.sim.run(until=arrive)
    assert engine.stats.queries_dropped_capacity >= 1
    assert p in _senders(engine, arrive + hop, qid=0)
    assert p not in _senders(engine, arrive + hop, qid=100)


def test_a_minute_roll_cuts_the_hop_window():
    # The roll at 60 s fires before any same-or-later wave, so the copy
    # delivered at 60.01 counts in the new minute's In window.
    engine = _idle_engine(duration_s=120.0)
    e1, e2 = _in_edges(engine, 0)[:2].tolist()
    _push_copy(engine, 59.98, e1, qid=1)
    _push_copy(engine, 60.01, e2, qid=2)
    engine.sim.run(until=60.02)
    assert engine.minute_index == 1
    assert engine.stats.query_messages == 2
    assert engine.win_in[e1] == 0 and engine.win_in[e2] == 1


def test_a_conclusion_cuts_the_hop_window():
    # A police round at t=0 convicts peer j; the observers' conclusions
    # fire one hop later and cut j's edges. A copy in flight on j -> m
    # delivering after that still lands, but on a dead edge, so it is
    # not counted in m's In window.
    engine = _idle_engine(defense="ddpolice", duration_s=120.0)
    hop = engine._hop
    out = _out_edges(engine, 0)
    prev_in = np.zeros(engine._E, dtype=np.int64)
    prev_in[out] = 10_000
    engine._police_round(np.zeros(engine._E, dtype=np.int64), prev_in)
    (tc,) = engine._conclude_times
    e_jm = int(out[0])
    _open_window(engine, tc - 0.4 * hop)
    _push_copy(engine, tc + 0.2 * hop, e_jm, qid=1)
    engine.sim.run(until=tc + hop)
    assert engine.stats.edges_cut == len(out)
    assert not engine.edge_alive[e_jm]
    assert engine.stats.query_messages == 1
    assert engine.win_in[e_jm] == 0


def test_the_run_end_cuts_the_hop_window():
    # sim.run(until=duration_s) fires nothing later, so neither may a
    # batch opened before the end.
    engine = _idle_engine(duration_s=10.0)
    e1, e2 = _in_edges(engine, 0)[:2].tolist()
    _push_copy(engine, 9.98, e1, qid=1)
    _push_copy(engine, 10.01, e2, qid=2)
    engine.sim.run(until=engine.config.duration_s)
    assert engine.stats.query_messages == 1
    assert list(engine._waves) == [10.01]


# ----------------------------------------------------------------------
# tie-breaks of the batch sorts
# ----------------------------------------------------------------------
# Each test crowds more than 16 equal sort keys into one batch, so
# numpy's small-array insertion sort cannot hide an unstable order.
def _hub_engine(**network):
    """An idle engine on a topology whose hub has 40 neighbours."""
    engine = _idle_engine(ba_m=3, network=network)
    hub = int(engine._deg.argmax())
    assert engine._deg[hub] == 40
    return engine, hub


def _push_rows(engine, t, qid, edge, ttl):
    size = np.full(len(qid), 30)
    engine._push(t, (0.0, 0), QUERIES, qid, edge, ttl, np.full(len(qid), -1), size)


def test_a_crowded_key_keeps_the_route_of_its_earliest_arrival():
    # Three queries reach the hub 40 times each in one wave, once on
    # every in-edge, interleaved in a different order per query: the
    # route is the edge of each query's first copy.
    engine, hub = _hub_engine()
    rng = np.random.default_rng(8)
    into_hub = _in_edges(engine, hub)
    orders = {q: rng.permutation(into_hub) for q in (5, 6, 7)}
    qid = np.tile(list(orders), 40)
    edge = np.stack(list(orders.values()), axis=1).ravel()
    _push_rows(engine, 1.0, qid, edge, np.ones(len(qid), dtype=np.int64))
    engine.sim.run(until=1.0)
    assert engine.stats.queries_dropped_duplicate == 3 * 39
    routes = engine.seen.lookup(np.array(list(orders)) * engine.n + hub)
    assert routes.tolist() == [int(order[0]) for order in orders.values()]


def test_a_binding_bucket_passes_the_earliest_arrivals_of_a_crowded_peer():
    # The hub holds 10 tokens and 40 fresh queries reach it in one wave,
    # interleaved with single copies to its neighbours: the first 10 to
    # arrive pass (and are forwarded), the other 30 drop.
    engine, hub = _hub_engine(processing_qpm_good=600.0)
    into_hub = _in_edges(engine, hub)
    others = _out_edges(engine, hub)
    qid = np.arange(100, 180)
    edge = np.stack([into_hub[::-1], others], axis=1).ravel()
    ttl = np.tile([2, 1], 40)
    _push_rows(engine, 1.0, qid, edge, ttl)
    engine.sim.run(until=1.0)
    assert engine.stats.queries_dropped_capacity == 30
    forwarded = [q for q in qid[::2].tolist() if hub in _senders(engine, 1.0 + engine._hop, q)]
    assert forwarded == qid[::2][:10].tolist()


def test_build_peak_stays_near_what_the_engine_keeps():
    # The topology's sets and the CSR/replay temporaries are freed before
    # the run state is allocated, so building a 20,000-peer m=3 overlay
    # peaks at a small multiple of what the engine holds afterwards.
    n = 20_000
    config = DESConfig(
        n=n,
        seed=29,
        topology=TopologyConfig(n=n, seed=29, ba_m=3),
        network=NetworkConfig(hop_latency_jitter_s=0.0, default_ttl=3),
    )
    SoaFloodEngine(_config())  # imports and first-call caches, untraced
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        engine = SoaFloodEngine(config)
        kept, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert engine.n == n
    assert peak <= 2.6 * kept, (peak / 1e6, kept / 1e6)
