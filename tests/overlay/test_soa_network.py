"""Unit tests for the wave kernel of the batched SoA flood engine.

The des == des-soa contract lives in ``tests/property/test_soa_equivalence.py``;
these tests pin what that suite cannot see: the engine's own event
count, the two hit-drop branches, and the edge ids its chunks carry.
"""

from dataclasses import asdict

import numpy as np

from repro.experiments.runner import DESConfig
from repro.overlay.network import NetworkConfig
from repro.overlay.soa_network import (
    MISSING,
    ORIGIN,
    SoaFloodEngine,
    run_soa_experiment,
)
from repro.overlay.topology import TopologyConfig


def _config(**kwargs):
    n = 150
    return DESConfig(
        n=n,
        seed=3,
        topology=TopologyConfig(n=n, seed=3, ba_m=2),
        network=NetworkConfig(hop_latency_jitter_s=0.0, default_ttl=3),
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


def test_pinned_run_keeps_its_event_and_delivery_counts():
    # One heap event per wave plus the control plane: a kernel change
    # that splits, merges or drops a wave moves these numbers.
    run = run_soa_experiment(_attacked_config())
    assert run.waves_processed == 485
    assert run.heap_events == 617
    assert run.stats.messages_delivered == 224_466
    assert run.stats.queries_dropped_duplicate == 36_233
    assert run.stats.hit_messages == 189
    assert run.stats.edges_cut == 2
    # numpy scalars would break the JSON digests downstream
    assert all(type(v) is int for v in asdict(run.stats).values())


def _idle_engine():
    """An engine with no workload started: waves only come from the test."""
    return SoaFloodEngine(_config(duration_s=10.0))


def _deliver_hit(engine, qid, at):
    engine._push_hits(1.0, np.array([qid]), np.array([at]))
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
    assert [(q.tolist(), at.tolist()) for q, at in hits] == [([7], [parent])]


class _CheckedEngine(SoaFloodEngine):
    """Checks every delivered query copy against the seen/route map."""

    copies_checked = 0

    def _process_queries(self, t, chunks):
        super()._process_queries(t, chunks)
        for qid, edge, ttl, _obj, _size in chunks:
            # The edge's source is the sender: it must hold the query,
            # as its origin (full TTL) or with an arrival edge of its
            # own, and a relay never sends back up that arrival edge.
            sender = self._src[edge]
            route = self.seen.lookup(qid * self.n + sender, missing=MISSING)
            assert (route != MISSING).all()
            assert (ttl[route == ORIGIN] == self._default_ttl).all()
            relayed = route >= 0
            assert (self._dst[route[relayed]] == sender[relayed]).all()
            assert (edge[relayed] != self._rev[route[relayed]]).all()
            assert (ttl[relayed] < self._default_ttl).all()
            self.copies_checked += len(qid)


def test_every_chunk_edge_leaves_from_a_peer_that_holds_the_query():
    engine = _CheckedEngine(_attacked_config())
    engine.run()
    assert engine.copies_checked == engine.stats.query_messages > 100_000
