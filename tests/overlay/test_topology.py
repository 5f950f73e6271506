"""Unit tests for BRITE-like topology generation."""

import hashlib
import random

import pytest

from repro.errors import TopologyError
from repro.overlay.topology import (
    DEGREE_CUTOFF,
    Topology,
    TopologyConfig,
    barabasi_albert,
    bittorrent_like,
    degree_statistics,
    generate_topology,
    hard_cutoff_scale_free,
    random_regularish,
    waxman,
)


def test_ba_basic_invariants():
    topo = barabasi_albert(200, 3, random.Random(1))
    assert topo.n == 200
    assert topo.check_symmetric()
    assert topo.is_connected()
    # every non-seed node has degree >= m
    assert all(topo.degree(u) >= 3 for u in range(200))


def test_ba_mean_degree_close_to_2m():
    topo = barabasi_albert(2000, 3, random.Random(2))
    stats = degree_statistics(topo)
    assert 5.5 <= stats["mean"] <= 6.5  # paper: average 6


def test_ba_paper_degree_profile():
    """Most peers have 3-4 neighbors, a few have tens (Section 3.5)."""
    topo = barabasi_albert(2000, 3, random.Random(3))
    stats = degree_statistics(topo)
    assert stats["mode"] in (3.0, 4.0)
    assert stats["frac_3_or_4"] > 0.4
    assert stats["max"] >= 20  # heavy tail
    assert 0 < stats["frac_tens"] < 0.3


def test_ba_requires_n_greater_than_m():
    with pytest.raises(TopologyError):
        barabasi_albert(3, 3, random.Random(0))


def test_waxman_connected_after_stitching():
    topo = waxman(100, alpha=0.1, beta=0.3, rng=random.Random(4))
    assert topo.is_connected()
    assert topo.check_symmetric()


def test_waxman_parameter_validation():
    with pytest.raises(TopologyError):
        waxman(10, alpha=0.0, beta=0.5, rng=random.Random(0))
    with pytest.raises(TopologyError):
        waxman(10, alpha=0.5, beta=1.5, rng=random.Random(0))


def test_random_regularish_mean_degree():
    topo = random_regularish(500, 6.0, random.Random(5))
    stats = degree_statistics(topo)
    assert 5.0 <= stats["mean"] <= 7.0
    assert topo.is_connected()


def test_hard_cutoff_truncates_the_tail():
    topo = hard_cutoff_scale_free(300, 2, 8, random.Random(5))
    assert topo.is_connected()
    degrees = [len(a) for a in topo.adjacency]
    assert max(degrees) <= 8  # no mega-hubs
    # An uncapped BA graph of the same size does grow a hub past the
    # cutoff, so the cap is doing real work.
    ba = barabasi_albert(300, 2, random.Random(5))
    assert max(len(a) for a in ba.adjacency) > 8


def test_hard_cutoff_validation():
    with pytest.raises(TopologyError):
        hard_cutoff_scale_free(10, 2, 2, random.Random(0))  # cutoff <= m
    with pytest.raises(TopologyError):
        hard_cutoff_scale_free(2, 2, 5, random.Random(0))  # n <= m
    with pytest.raises(TopologyError):  # the configured cutoff <= m
        generate_topology(
            TopologyConfig(n=50, model="hard_cutoff", ba_m=DEGREE_CUTOFF)
        )


def test_bittorrent_degrees_bounded_and_connected():
    topo = bittorrent_like(200, 4, 12, random.Random(7))
    assert topo.is_connected()
    degrees = [len(a) for a in topo.adjacency]
    assert max(degrees) <= 12
    # Flat-random swarm profile, not Gnutella's heavy tail: the mean
    # sits well above min_peers because later joiners keep attaching.
    assert sum(degrees) / len(degrees) >= 4


def test_bittorrent_validation():
    with pytest.raises(TopologyError):
        bittorrent_like(20, 0, 5, random.Random(0))
    with pytest.raises(TopologyError):
        bittorrent_like(20, 6, 5, random.Random(0))


def test_generate_topology_dispatch():
    for model in ("ba", "waxman", "random", "hard_cutoff", "bittorrent"):
        topo = generate_topology(TopologyConfig(n=120, model=model, seed=9))
        assert topo.n == 120
        assert topo.is_connected()
        assert topo.kind == model


def test_generate_topology_deterministic():
    a = generate_topology(TopologyConfig(n=100, seed=11))
    b = generate_topology(TopologyConfig(n=100, seed=11))
    assert a.adjacency == b.adjacency


def test_generate_topology_seed_sensitivity():
    a = generate_topology(TopologyConfig(n=100, seed=11))
    b = generate_topology(TopologyConfig(n=100, seed=12))
    assert a.adjacency != b.adjacency


def test_config_validation():
    with pytest.raises(TopologyError):
        TopologyConfig(n=1)
    with pytest.raises(TopologyError):
        TopologyConfig(model="grid")
    with pytest.raises(TopologyError):
        TopologyConfig(n=3, ba_m=3)


def test_edge_surgery():
    topo = Topology(n=3, adjacency=[set(), set(), set()])
    topo.add_edge(0, 1)
    assert topo.has_edge(0, 1) and topo.has_edge(1, 0)
    assert topo.edge_count() == 1
    topo.remove_edge(0, 1)
    assert not topo.has_edge(0, 1)
    with pytest.raises(TopologyError):
        topo.add_edge(1, 1)


def test_edges_iterates_each_once():
    topo = barabasi_albert(50, 2, random.Random(6))
    edges = list(topo.edges())
    assert len(edges) == topo.edge_count()
    assert all(u < v for u, v in edges)
    assert len(set(edges)) == len(edges)


def test_connected_component():
    topo = Topology(n=4, adjacency=[{1}, {0}, {3}, {2}])
    assert topo.connected_component(0) == {0, 1}
    assert not topo.is_connected()


def test_degree_statistics_empty_rejected():
    with pytest.raises(TopologyError):
        degree_statistics(Topology(n=0, adjacency=[]))


#: sha256 of each generated topology's adjacency, one line per node with
#: the neighbours in set iteration order. Recorded from the generators
#: before their draws were inlined; the DES floods in that order, and
#: des-soa replays it, so any change here moves every message-level run.
TOPOLOGY_DIGESTS = {
    ("ba", 500, 1, 7): "afc884b2556890b0e33b81c445136c0c5e79f930606c5243094c2853e161d794",
    ("ba", 2000, 2, 1): "36941db0427cbfc367483b9028ea4284ce2d07057e1ca24b8f80a44d43075b10",
    ("ba", 20000, 3, 0): "29094e987ac0b73e63e9d3bfdfbada6eb219a05f3b8ca1243124c9d2dcebf554",
    ("ba", 3000, 5, 29): "7cd586d8ce93cdfd220675110a2a04d77d4c21436942e52fb8cb2aa52e18d3fd",
    ("hard_cutoff", 500, 2, 11): "13408ab70355797fd41fc5c8744ac10d5a8b1e981cfa5a104899b1a12e997cee",
    ("hard_cutoff", 3000, 3, 5): "4de05527fa205d3f1d2c87d1461b76a6f6411a6daf178f2784e88899534f418b",
    ("two_tier", 1000, 3, 2): "92cad6e478dafe3df59265bd368bd137b21b8f26f6c1a3b0e24a30ed6b6c648b",
    ("bittorrent", 500, 3, 4): "4b9731e9139ca7a470d7de4731a03ba5015561d635ba20d31f006f2f45eb6425",
    ("random", 300, 3, 9): "1c23671925dacd91134b873e180462a582af0a8416526caabe4bd6f501caa035",
    ("waxman", 120, 3, 6): "ca5c9547a427adb610ad4f3a8c074436958bb209e6a9e6fcb5c9d8a108210bb0",
}


@pytest.mark.parametrize("case", sorted(TOPOLOGY_DIGESTS))
def test_generate_topology_output_is_pinned(case):
    model, n, m, seed = case
    topo = generate_topology(TopologyConfig(n=n, model=model, ba_m=m, seed=seed))
    text = "\n".join(",".join(map(str, vs)) for vs in topo.adjacency)
    assert hashlib.sha256(text.encode()).hexdigest() == TOPOLOGY_DIGESTS[case]
