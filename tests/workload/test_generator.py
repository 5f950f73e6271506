"""Unit tests for the query workload generator."""

import pytest

from repro.errors import ConfigError
from repro.overlay.ids import PeerId
from repro.workload.generator import QueryWorkload, WorkloadConfig
from tests.conftest import make_network


def ring(n):
    return {i: {(i + 1) % n} for i in range(n)}


def test_poisson_rate_approximately_honored():
    sim, net = make_network(ring(20), seed=1)
    wl = QueryWorkload(sim, net, WorkloadConfig(queries_per_minute=3.0, seed=1))
    wl.start()
    sim.run(until=600.0)
    # 20 peers x 3/min x 10 min = 600 expected
    assert wl.issued == pytest.approx(600, rel=0.2)


def test_paper_rate_default():
    assert WorkloadConfig().queries_per_minute == 0.3


def test_excluded_peers_issue_nothing():
    sim, net = make_network(ring(5), seed=2)
    wl = QueryWorkload(
        sim,
        net,
        WorkloadConfig(queries_per_minute=10.0, seed=2),
        exclude={PeerId(0)},
    )
    wl.start()
    sim.run(until=120.0)
    assert net.peers[PeerId(0)].counters.queries_issued == 0
    assert wl.issued > 0


def test_offline_peers_skip_but_resume():
    sim, net = make_network(ring(5), seed=4)
    net.peers[PeerId(0)].go_offline()
    wl = QueryWorkload(sim, net, WorkloadConfig(queries_per_minute=30.0, seed=4))
    wl.start()
    sim.run(until=60.0)
    assert net.peers[PeerId(0)].counters.queries_issued == 0
    net.peers[PeerId(0)].go_online()
    net.peers[PeerId(0)].add_neighbor(PeerId(1))
    net.peers[PeerId(1)].add_neighbor(PeerId(0))
    sim.run(until=240.0)
    assert net.peers[PeerId(0)].counters.queries_issued > 0


def test_queries_target_catalog_objects():
    sim, net = make_network(ring(5), seed=5)
    wl = QueryWorkload(sim, net, WorkloadConfig(queries_per_minute=30.0, seed=5))
    wl.start()
    sim.run(until=60.0)
    assert net.query_records
    assert all(r.object_id is not None for r in net.query_records.values())


def test_config_validation():
    with pytest.raises(ConfigError):
        WorkloadConfig(queries_per_minute=0)
