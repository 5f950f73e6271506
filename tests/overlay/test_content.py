"""Unit tests for the content catalog."""

import random

import pytest

from repro.errors import ConfigError
from repro.overlay.content import ContentCatalog, ContentConfig


@pytest.fixture
def catalog():
    return ContentCatalog(ContentConfig(num_objects=50, seed=1), n_peers=200)


def test_popularity_is_zipf_normalized(catalog):
    assert sum(catalog.popularity) == pytest.approx(1.0)
    # strictly decreasing by rank
    assert all(a >= b for a, b in zip(catalog.popularity, catalog.popularity[1:]))


def test_every_object_has_replicas(catalog):
    for obj in range(50):
        assert catalog.replica_count(obj) >= 1


def test_replica_cap_respected():
    cfg = ContentConfig(num_objects=20, replicas_max_fraction=0.05, seed=2)
    cat = ContentCatalog(cfg, n_peers=1000)
    for obj in range(20):
        assert cat.replica_count(obj) <= 50


def test_popular_objects_have_more_replicas(catalog):
    assert catalog.replica_count(0) >= catalog.replica_count(49)


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
    before = {obj: catalog.replica_count(obj) for obj in range(50)}
    owned = set(catalog.peer_objects[victim])
    alive = [p for p in range(200) if p != victim]
    catalog.relocate_replicas(victim, alive, rng)
    assert victim not in catalog.peer_objects
    for obj in owned:
        assert victim not in catalog.replica_holders[obj]
        # count stays within 1 of the original (collision with existing holder)
        assert abs(catalog.replica_count(obj) - before[obj]) <= 1


def test_config_validation():
    with pytest.raises(ConfigError):
        ContentConfig(num_objects=0)
    with pytest.raises(ConfigError):
        ContentConfig(zipf_s=0)
    with pytest.raises(ConfigError):
        ContentConfig(replication_ratio=0)
    with pytest.raises(ConfigError):
        ContentConfig(replicas_max_fraction=0)


def test_catalog_rejects_bad_n():
    with pytest.raises(ConfigError):
        ContentCatalog(ContentConfig(), n_peers=0)
