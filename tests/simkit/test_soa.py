"""Unit tests for the struct-of-arrays primitives behind the batched engine."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.overlay.capacity import TokenBucket
from repro.simkit.soa import Int64Map, TokenBucketArray


# ----------------------------------------------------------------------
# Int64Map vs dict oracle
# ----------------------------------------------------------------------
def test_int64map_matches_dict_oracle_under_random_batches():
    rng = random.Random(42)
    table = Int64Map(epoch_s=1e9)  # never rotates
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
    table = Int64Map(epoch_s=1e9)
    keys = np.array([7, 8, 9], dtype=np.int64)
    assert table.insert_new(keys, np.array([1, 2, 3])).all()
    fresh = table.insert_new(keys, np.array([10, 20, 30]))
    assert not fresh.any()
    assert table.lookup(keys).tolist() == [1, 2, 3]


def test_int64map_rotation_retires_only_stale_generations():
    table = Int64Map(epoch_s=1.0)
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


def test_int64map_inserts_a_large_unsorted_batch_at_once():
    table = Int64Map(epoch_s=1e9)
    keys = np.random.default_rng(5).permutation(np.arange(0, 4096, 7, dtype=np.int64))
    fresh = table.insert_new(keys, keys * 2)
    assert fresh.all()
    assert table.lookup(keys).tolist() == (keys * 2).tolist()


def test_int64map_matches_generational_dict_oracle_while_rotating():
    # The oracle keeps one dict per generation and rotates on the same
    # clock, so a key that fell off both generations is fresh again.
    rng = random.Random(11)
    table = Int64Map(epoch_s=1.0)
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


def test_int64map_generations_stay_sorted_with_values_aligned():
    # Batches arrive as the engine's dedup hands them over: the window's
    # keys sorted, then the origin keys of fresh issues appended (larger
    # qids, so the batch as a whole is unsorted), partly overlapping
    # what is stored.
    rng = np.random.default_rng(3)
    table = Int64Map(epoch_s=1.0)
    current, previous = {}, {}
    for step in range(1, 61):
        if step % 20 == 0:  # an epoch per 20 batches
            table.maybe_rotate(step / 20)
            current, previous = {}, current
        window = np.unique(rng.integers(0, 50_000, rng.integers(1, 400)))
        origins = rng.choice(np.arange(50_000, 60_000), rng.integers(0, 30), replace=False)
        keys = np.concatenate([window, origins]).astype(np.int64)
        vals = np.concatenate(
            [rng.integers(0, 10**6, len(window)), np.full(len(origins), -2)]
        ).astype(np.int64)
        fresh = table.insert_new(keys, vals)
        for k, v, f in zip(keys.tolist(), vals.tolist(), fresh.tolist()):
            assert f == (k not in current and k not in previous)
            if f:
                current[k] = v
        for gen, oracle in ((table._current, current), (table._previous, previous)):
            assert (np.diff(gen.keys) > 0).all()
            assert gen.keys.tolist() == sorted(oracle)
            assert gen.vals.tolist() == [oracle[k] for k in gen.keys.tolist()]
    assert table.rotations == 3


_KEYS = st.lists(st.integers(min_value=0, max_value=300), max_size=40, unique=True)


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=0.8), _KEYS, _KEYS), max_size=25
    )
)
def test_int64map_property_matches_a_generational_dict_oracle(steps):
    table = Int64Map(epoch_s=1.0)
    current, previous = {}, {}
    now = epoch_start = 0.0
    for i, (gap, inserts, probes) in enumerate(steps):
        now += gap
        if now - epoch_start >= 1.0:
            current, previous, epoch_start = {}, current, now
        table.maybe_rotate(now)
        vals = [i * 1000 + j for j in range(len(inserts))]
        fresh = table.insert_new(np.array(inserts, dtype=np.int64), np.array(vals))
        want_fresh = [k not in current and k not in previous for k in inserts]
        assert fresh.tolist() == want_fresh
        for k, v, f in zip(inserts, vals, want_fresh):
            if f:
                current[k] = v
        got = table.lookup(np.array(probes, dtype=np.int64), missing=-3)
        assert got.tolist() == [current.get(k, previous.get(k, -3)) for k in probes]
        assert table.size == len(current) + len(previous)


def test_int64map_batch_mixing_previous_current_and_new_keys():
    table = Int64Map(epoch_s=1.0)
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
