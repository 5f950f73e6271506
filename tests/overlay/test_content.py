"""Unit tests for the content catalog."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.overlay.content import (
    ContentCatalog,
    ContentConfig,
    replica_counts,
    zipf_popularity,
)


@pytest.fixture
def catalog():
    return ContentCatalog(ContentConfig(num_objects=50, seed=1), n_peers=200)


def test_popularity_is_zipf_normalized(catalog):
    assert sum(catalog.popularity) == pytest.approx(1.0)
    # strictly decreasing by rank
    assert all(a >= b for a, b in zip(catalog.popularity, catalog.popularity[1:]))


def test_every_object_has_replicas(catalog):
    for obj in range(50):
        assert len(catalog.replica_holders[obj]) >= 1


def test_replica_cap_respected():
    cfg = ContentConfig(num_objects=20, replicas_max_fraction=0.05, seed=2)
    cat = ContentCatalog(cfg, n_peers=1000)
    for obj in range(20):
        assert len(cat.replica_holders[obj]) <= 50


def test_popular_objects_have_more_replicas(catalog):
    assert len(catalog.replica_holders[0]) >= len(catalog.replica_holders[49])


def test_keywords_roundtrip(catalog):
    for obj in (0, 7, 49):
        kws = catalog.keywords_for(obj)
        assert catalog.find_object(kws) == obj


def test_unknown_keywords_resolve_to_none(catalog):
    assert catalog.find_object(("bogus", "xq1n5")) is None
    assert catalog.find_object(("id50",)) is None  # past num_objects


def test_keywords_for_out_of_range(catalog):
    with pytest.raises(ConfigError):
        catalog.keywords_for(50)


def test_sample_object_respects_popularity(catalog):
    rng = random.Random(3)
    counts = [0] * 50
    for _ in range(5000):
        counts[catalog.sample_object(rng)] += 1
    assert counts[0] > counts[49]
    assert sum(counts) == 5000


def test_reverse_index_consistent(catalog):
    for obj, holders in enumerate(catalog.replica_holders):
        for peer in holders:
            assert obj in catalog.peer_objects[peer]
    for peer, objs in catalog.peer_objects.items():
        for obj in objs:
            assert catalog.peer_has(peer, obj)


def test_relocate_replicas_preserves_counts(catalog):
    rng = random.Random(4)
    victim = next(iter(catalog.peer_objects))
    before = {obj: len(catalog.replica_holders[obj]) for obj in range(50)}
    owned = set(catalog.peer_objects[victim])
    alive = [p for p in range(200) if p != victim]
    catalog.relocate_replicas(victim, alive, rng)
    assert victim not in catalog.peer_objects
    for obj in owned:
        assert victim not in catalog.replica_holders[obj]
        # count stays within 1 of the original (collision with existing holder)
        assert abs(len(catalog.replica_holders[obj]) - before[obj]) <= 1


def test_relocate_before_the_first_index_read_keeps_the_index_consistent(catalog):
    """The peer -> objects index is built on first read; a relocation that
    comes first builds it from the placement it is about to change, and
    ends with the same placement and index as a catalog whose index was
    read up front."""
    read_first = ContentCatalog(ContentConfig(num_objects=50, seed=1), n_peers=200)
    victim = min(read_first.peer_objects)
    assert "peer_objects" not in vars(catalog)
    alive = [p for p in range(200) if p != victim]
    for cat in (catalog, read_first):
        cat.relocate_replicas(victim, alive, random.Random(4))
    assert catalog.replica_holders == read_first.replica_holders
    assert catalog.peer_objects == read_first.peer_objects
    expected = {}
    for obj, holders in enumerate(catalog.replica_holders):
        for peer in holders:
            expected.setdefault(peer, set()).add(obj)
    assert catalog.peer_objects == expected


def test_config_validation():
    with pytest.raises(ConfigError):
        ContentConfig(num_objects=0)
    with pytest.raises(ConfigError):
        ContentConfig(replication_ratio=0)
    with pytest.raises(ConfigError):
        ContentConfig(replicas_max_fraction=0)


def test_catalog_rejects_bad_n():
    with pytest.raises(ConfigError):
        ContentCatalog(ContentConfig(), n_peers=0)


@settings(max_examples=60, deadline=None)
@given(
    num_objects=st.integers(1, 300),
    ratio=st.floats(0.001, 1.0),
    max_fraction=st.floats(0.001, 1.0),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**16),
)
def test_replica_counts_are_the_catalog_placement_sizes(
    num_objects, ratio, max_fraction, n, seed
):
    """The fluid model reads counts without placing replicas; they are the
    sizes of the holder sets a catalog places, by one formula."""
    cfg = ContentConfig(
        num_objects=num_objects,
        replication_ratio=ratio,
        replicas_max_fraction=max_fraction,
        seed=seed,
    )
    catalog = ContentCatalog(cfg, n)
    assert replica_counts(cfg, n) == [len(h) for h in catalog.replica_holders]
    assert zipf_popularity(cfg) == catalog.popularity


def _placement_sha256(catalog):
    doc = ([sorted(h) for h in catalog.replica_holders], catalog.popularity)
    return hashlib.sha256(repr(doc).encode()).hexdigest()


@pytest.mark.parametrize(
    "cfg, n, digest",
    [
        (ContentConfig(seed=7), 600,
         "639d9f412c6b35139c05d2226a78c450f1120cd2d682fe46d4e06c720cc45288"),
        (ContentConfig(num_objects=60, seed=3), 200,
         "6fde15e89f862737161392be0b7697c0d914d7639699066f2fa13b799070a8b8"),
        (ContentConfig(num_objects=100, replication_ratio=0.05, seed=1), 2000,
         "7c5dcbcda03b5f1a6eecfcd3c86f9bacbd731691fdf19746f29b27c750cb4995"),
    ],
)
def test_catalog_placement_is_pinned(cfg, n, digest):
    """The des and live backends place replicas with the catalog's own
    ``sample`` draws: the holder sets and popularity stay the ones these
    digests were recorded from."""
    assert _placement_sha256(ContentCatalog(cfg, n)) == digest
