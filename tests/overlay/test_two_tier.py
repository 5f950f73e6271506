"""Unit tests for the super-peer (two-tier) topology."""

import random

import pytest

from repro.errors import TopologyError
from repro.overlay.topology import TopologyConfig, generate_topology, two_tier


@pytest.fixture(scope="module")
def topo():
    return two_tier(400, 0.15, random.Random(1))


def test_connected_and_symmetric(topo):
    assert topo.is_connected()
    assert topo.check_symmetric()
    assert topo.kind == "two_tier"


def test_leaves_attach_only_to_supers(topo):
    n_super = 60  # 400 * 0.15
    for leaf in range(n_super, 400):
        neighbors = topo.neighbors(leaf)
        assert 1 <= len(neighbors) <= 2
        assert all(v < n_super for v in neighbors)


def test_backbone_is_flooding_mesh(topo):
    n_super = 60
    super_degrees = [
        sum(1 for v in topo.neighbors(s) if v < n_super) for s in range(n_super)
    ]
    # supers keep BA-like backbone connectivity among themselves
    assert min(super_degrees) >= 3
    assert sum(super_degrees) / n_super >= 5.0


def test_supers_carry_leaves(topo):
    n_super = 60
    leaf_loads = [
        sum(1 for v in topo.neighbors(s) if v >= n_super) for s in range(n_super)
    ]
    assert sum(leaf_loads) >= 340  # every leaf attached
    assert max(leaf_loads) <= 30  # cap respected


def test_generate_topology_two_tier():
    topo = generate_topology(TopologyConfig(n=300, model="two_tier", seed=3))
    assert topo.kind == "two_tier"
    assert topo.is_connected()


def test_validation():
    with pytest.raises(TopologyError):
        two_tier(100, 0.0, random.Random(0))
    with pytest.raises(TopologyError):
        two_tier(4, 0.99, random.Random(0))


def test_deterministic():
    a = two_tier(200, 0.2, random.Random(7))
    b = two_tier(200, 0.2, random.Random(7))
    assert a.adjacency == b.adjacency
