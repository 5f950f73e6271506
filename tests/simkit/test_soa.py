"""Unit tests for the struct-of-arrays primitives behind the batched engine."""

import random

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.overlay.capacity import TokenBucket
from repro.simkit.soa import Int64Map, TokenBucketArray, _hashes


# ----------------------------------------------------------------------
# Int64Map vs dict oracle
# ----------------------------------------------------------------------
def test_int64map_matches_dict_oracle_under_random_batches():
    rng = random.Random(42)
    table = Int64Map(initial_log2_cap=4, epoch_s=1e9)  # never rotates
    oracle = {}
    for _ in range(50):
        batch = rng.sample(range(10_000), rng.randint(1, 200))
        keys = np.unique(np.array(batch, dtype=np.int64))
        vals = np.arange(len(keys), dtype=np.int64)
        fresh = table.insert_new(keys, vals)
        for k, v, f in zip(keys.tolist(), vals.tolist(), fresh.tolist()):
            assert f == (k not in oracle)
            oracle.setdefault(k, v)
        probe = np.array(
            rng.sample(range(12_000), 300), dtype=np.int64
        )
        got = table.lookup(probe, missing=-3)
        want = [oracle.get(k, -3) for k in probe.tolist()]
        assert got.tolist() == want
    assert table.size == len(oracle)


def test_int64map_first_writer_wins_on_reinsert():
    table = Int64Map(initial_log2_cap=4, epoch_s=1e9)
    keys = np.array([7, 8, 9], dtype=np.int64)
    assert table.insert_new(keys, np.array([1, 2, 3])).all()
    fresh = table.insert_new(keys, np.array([10, 20, 30]))
    assert not fresh.any()
    assert table.lookup(keys).tolist() == [1, 2, 3]


def test_int64map_rotation_retires_only_stale_generations():
    table = Int64Map(initial_log2_cap=4, epoch_s=1.0)
    a = np.array([1, 2], dtype=np.int64)
    b = np.array([3, 4], dtype=np.int64)
    table.insert_new(a, a)
    table.maybe_rotate(1.0)  # a -> previous generation
    table.insert_new(b, b)
    # both generations visible: a is a duplicate, values still found
    assert not table.insert_new(a, a * 10).any()
    assert table.lookup(np.array([1, 3])).tolist() == [1, 3]
    table.maybe_rotate(2.0)  # a dropped, b -> previous
    assert table.lookup(np.array([1, 3]), missing=-3).tolist() == [-3, 3]
    # a re-inserts as fresh after falling off both generations
    assert table.insert_new(a, a * 10).all()
    assert table.rotations == 2


def test_int64map_handles_slot_collisions_in_one_batch():
    # With a 16-slot initial table and >16 keys, several keys of one
    # batch must contend for slots; growth keeps load factor <= 0.5.
    table = Int64Map(initial_log2_cap=4, epoch_s=1e9)
    keys = np.arange(0, 4096, 7, dtype=np.int64)
    fresh = table.insert_new(keys, keys * 2)
    assert fresh.all()
    assert table.lookup(keys).tolist() == (keys * 2).tolist()


def test_int64map_matches_generational_dict_oracle_while_rotating():
    # The oracle keeps one dict per generation and rotates on the same
    # clock, so a key that fell off both generations is fresh again.
    rng = random.Random(11)
    table = Int64Map(initial_log2_cap=4, epoch_s=1.0)
    current, previous = {}, {}
    now = epoch_start = 0.0
    for _ in range(120):
        now += rng.random() * 0.6
        if now - epoch_start >= 1.0:
            current, previous, epoch_start = {}, current, now
        table.maybe_rotate(now)
        keys = np.unique(
            np.array(rng.sample(range(600), rng.randint(1, 120)), dtype=np.int64)
        )
        vals = np.array([rng.randint(-2, 10**9) for _ in keys], dtype=np.int64)
        fresh = table.insert_new(keys, vals)
        for k, v, f in zip(keys.tolist(), vals.tolist(), fresh.tolist()):
            assert f == (k not in current and k not in previous)
            if f:
                current[k] = v
        probe = np.array(rng.sample(range(700), 200), dtype=np.int64)
        want = [current.get(k, previous.get(k, -3)) for k in probe.tolist()]
        assert table.lookup(probe, missing=-3).tolist() == want
        assert table.size == len(current) + len(previous)
    assert table.rotations > 20


def test_int64map_many_claimants_of_one_empty_slot_insert_once_each():
    # Keys chosen to hash to the same home slot of the 2**10 table: all
    # of them see it empty in the first round and claim it together.
    table = Int64Map(initial_log2_cap=10, epoch_s=1e9)
    cand = np.arange(200_000, dtype=np.int64)
    home = _hashes(cand) >> np.uint64(64 - 10)
    keys = cand[home == home[0]][:40]
    assert len(keys) == 40
    fresh = table.insert_new(keys, keys + 5)
    assert fresh.all()
    assert table.size == 40
    assert table.lookup(keys).tolist() == (keys + 5).tolist()
    assert int((table._current.keys >= 0).sum()) == 40
    assert not table.insert_new(keys, keys).any()
    assert table.size == 40


def test_int64map_batch_mixing_previous_current_and_new_keys():
    table = Int64Map(initial_log2_cap=4, epoch_s=1.0)
    old = np.arange(0, 30, dtype=np.int64)
    live = np.arange(100, 130, dtype=np.int64)
    new = np.arange(200, 230, dtype=np.int64)
    table.insert_new(old, old + 1)
    table.maybe_rotate(1.0)  # old -> previous generation
    table.insert_new(live, live + 2)
    batch = np.concatenate([new[:10], old, live, new[10:]])
    fresh = table.insert_new(batch, np.full(len(batch), 9, dtype=np.int64))
    assert fresh.tolist() == [True] * 10 + [False] * 60 + [True] * 20
    assert table.size == 90
    assert table.lookup(old).tolist() == (old + 1).tolist()
    assert table.lookup(live).tolist() == (live + 2).tolist()
    assert table.lookup(new).tolist() == [9] * 30


def test_int64map_rejects_bad_config():
    with pytest.raises(ConfigError):
        Int64Map(epoch_s=0.0)
    with pytest.raises(ConfigError):
        Int64Map(initial_log2_cap=2)


# ----------------------------------------------------------------------
# TokenBucketArray vs the sequential TokenBucket
# ----------------------------------------------------------------------
def test_token_bucket_array_matches_sequential_bucket_exactly():
    rng = random.Random(7)
    rate = 123.4
    n = 5
    seq = [TokenBucket(rate_per_min=rate) for _ in range(n)]
    arr = TokenBucketArray(n, rate)
    now = 0.0
    for _ in range(200):
        now += rng.random() * 0.3
        # counts >= 1: the engine only includes peers with at least one
        # fresh arrival, so both sides refill at identical time points
        # (the exactness contract; a zero-count refill would round the
        # capped-linear path differently in the last ulp).
        peers = sorted(rng.sample(range(n), rng.randint(1, n)))
        counts = [rng.randint(1, 4) for _ in peers]
        granted = arr.grant(
            np.array(peers, dtype=np.int64),
            np.array(counts, dtype=np.int64),
            now,
        )
        for p, c, g in zip(peers, counts, granted.tolist()):
            want = sum(1 for _ in range(c) if seq[p].try_consume(now))
            assert g == want, (p, c, now)
    # internal float state must agree too, or later grants would drift
    for p in range(n):
        assert arr.tokens[p] == seq[p]._tokens


def test_token_bucket_array_per_peer_now_matches_sequential_bucket_exactly():
    # One grant call with a time per peer, as a hop-window round issues
    # it: each peer's own clock advances at its own pace, and the float
    # state still equals the scalar bucket's consume sequence.
    rng = random.Random(13)
    rate = 77.7
    n = 6
    seq = [TokenBucket(rate_per_min=rate) for _ in range(n)]
    arr = TokenBucketArray(n, rate)
    clock = [0.0] * n
    for _ in range(200):
        peers = sorted(rng.sample(range(n), rng.randint(1, n)))
        for p in peers:
            clock[p] += rng.random() * 0.4
        now = [clock[p] for p in peers]
        counts = [rng.randint(1, 4) for _ in peers]
        granted = arr.grant(
            np.array(peers, dtype=np.int64),
            np.array(counts, dtype=np.int64),
            np.array(now, dtype=np.float64),
        )
        for p, c, t, g in zip(peers, counts, now, granted.tolist()):
            want = sum(1 for _ in range(c) if seq[p].try_consume(t))
            assert g == want, (p, c, t)
    for p in range(n):
        assert arr.tokens[p] == seq[p]._tokens
        assert arr.last[p] == clock[p]


def test_token_bucket_array_rejects_nonpositive_rate():
    with pytest.raises(ConfigError):
        TokenBucketArray(3, 0.0)
