"""Struct-of-arrays primitives for the batched flood engine.

The SoA backend (:mod:`repro.overlay.soa_network`) advances flooding in
*hop windows*: every message delivery less than one hop after the
earliest pending one is processed as one vectorized step. That step
needs two primitives that have no per-element Python cost:

* :class:`Int64Map` -- an int64 -> int64 map over sorted key arrays
  with fully vectorized batch insert/lookup. It backs the unified
  seen-set / reverse-route table (key ``qid * n + peer``, value = the
  directed edge the query arrived on, or the ``ORIGIN`` sentinel for own
  issues). Because flood state is only live for one query lifetime
  (``2 * TTL * hop_latency`` seconds), the map is *generational*: two
  sorted arrays rotate on an epoch clock and lookups consult both, so
  memory is bounded by two epochs of insert volume instead of the whole
  run.
* :class:`TokenBucketArray` -- per-peer token buckets in two float64
  arrays, refilled lazily and in bulk. Matches
  :class:`repro.overlay.capacity.TokenBucket` float-for-float when
  refill points coincide (capped linear refill composes path
  independently, so it does).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.errors import ConfigError


class _Generation:
    """One generation: sorted, duplicate-free keys with values aligned."""

    __slots__ = ("keys", "vals")

    def __init__(self, keys: np.ndarray, vals: np.ndarray) -> None:
        self.keys = keys
        self.vals = vals

    @classmethod
    def empty(cls) -> "_Generation":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def find(self, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(pos, hit)``: each query key's insertion point and whether
        it is stored there. Sorted queries search fastest."""
        pos = self.keys.searchsorted(query)
        if not len(self.keys):
            return pos, np.zeros(len(pos), dtype=bool)
        # A key past the last one probes the last slot instead; the
        # equality test rejects it there.
        hit = self.keys[np.minimum(pos, len(self.keys) - 1)] == query
        return pos, hit

    def merged(
        self, keys: np.ndarray, vals: np.ndarray, pos: np.ndarray
    ) -> "_Generation":
        """This generation plus sorted, absent ``keys`` (insertion points
        ``pos``): new key ``i`` lands at ``pos[i] + i`` and the old keys
        fill the remaining slots in order."""
        if not len(keys):
            return self
        if not len(self.keys):
            return _Generation(keys, vals)
        total = len(self.keys) + len(keys)
        dest = pos + np.arange(len(keys))
        old = np.ones(total, dtype=bool)
        old[dest] = False
        out_keys = np.empty(total, dtype=np.int64)
        out_vals = np.empty(total, dtype=np.int64)
        out_keys[dest] = keys
        out_keys[old] = self.keys
        out_vals[dest] = vals
        out_vals[old] = self.vals
        return _Generation(out_keys, out_vals)


class Int64Map:
    """Generational vectorized int64 -> int64 map (seen-set + routes).

    Two generations (``current``/``previous``) rotate on an epoch clock:
    inserts go to ``current``; lookups and duplicate checks consult both.
    Each generation is a sorted key array with its values aligned, so a
    membership test is one ``searchsorted`` plus one equality test, and
    an insert merges the batch's fresh keys in. A key is copied by every
    later merge of its generation, and a generation lives one epoch.
    Entries survive between one and two epochs -- choose ``epoch_s``
    longer than the flood lifetime (``2 * TTL * hop_latency``) and the
    rotation is semantically invisible, exactly like the DES peers' LRU
    ``_seen`` caches whose capacity is never binding.
    """

    def __init__(self, *, epoch_s: float = 2.0) -> None:
        if epoch_s <= 0:
            raise ConfigError("epoch_s must be positive")
        self.epoch_s = float(epoch_s)
        self._current = _Generation.empty()
        self._previous = _Generation.empty()
        self._epoch_start = 0.0
        self.rotations = 0

    # ------------------------------------------------------------------
    def maybe_rotate(self, now: float) -> None:
        """Retire the previous generation once an epoch has elapsed."""
        if now - self._epoch_start >= self.epoch_s:
            self._previous = self._current
            self._current = _Generation.empty()
            self._epoch_start = now
            self.rotations += 1

    # ------------------------------------------------------------------
    def insert_new(self, keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Insert batch-unique ``keys``; True where the key was unseen.

        A key already present in either generation is a duplicate: it is
        not reinserted and its stored value is untouched (first writer
        wins, matching the DES reverse-route table, which is only written
        on first sight of a GUID).
        """
        keys = np.asarray(keys, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.int64)
        order = keys.argsort()
        keys = keys[order]
        pos, in_current = self._current.find(keys)
        fresh = ~(in_current | self._previous.find(keys)[1])
        self._current = self._current.merged(
            keys[fresh], vals[order[fresh]], pos[fresh]
        )
        out = np.empty(len(keys), dtype=bool)
        out[order] = fresh
        return out

    def lookup(self, keys: np.ndarray, missing: int = -3) -> np.ndarray:
        """Values for ``keys``; ``missing`` where absent from both
        generations."""
        keys = np.asarray(keys, dtype=np.int64)
        out = np.full(len(keys), missing, dtype=np.int64)
        # An entry can only exist in one generation (inserts check both),
        # so the order of the two passes is moot.
        for gen in (self._previous, self._current):
            pos, hit = gen.find(keys)
            out[hit] = gen.vals[pos[hit]]
        return out

    @property
    def size(self) -> int:
        return len(self._current.keys) + len(self._previous.keys)


class TokenBucketArray:
    """Per-peer token buckets in flat arrays (capacity clamp, Section 2.3).

    Mirrors :class:`repro.overlay.capacity.TokenBucket`: depth defaults
    to one second of tokens, buckets start full, refill is capped-linear.
    Refill is lazy -- only peers touched by a wave are updated -- which
    is float-exact against the sequential bucket because capped linear
    refill composes path-independently between consumption points.
    """

    def __init__(self, n: int, rate_per_min: float, burst: float = 0.0) -> None:
        if rate_per_min <= 0:
            raise ConfigError(f"rate must be positive, got {rate_per_min}")
        if burst <= 0:
            burst = rate_per_min / 60.0
        self.rate_per_sec = rate_per_min / 60.0
        self.burst = float(burst)
        self.tokens = np.full(n, self.burst, dtype=np.float64)
        self.last = np.zeros(n, dtype=np.float64)

    def grant(
        self, peers: np.ndarray, counts: np.ndarray, now: Union[float, np.ndarray]
    ) -> np.ndarray:
        """Refill ``peers`` (unique) at ``now``; grant up to ``counts`` tokens.

        ``now`` is one time for every peer or one per peer. Returns the
        integer number granted per peer. Matches running
        ``try_consume(now[i])`` ``counts[i]`` times on the sequential
        bucket: the bucket admits ``floor(tokens + 1e-12)`` unit
        consumes, and failed consumes still advance the refill clock.
        """
        t = self.tokens[peers]
        dt = now - self.last[peers]
        # DES tolerates out-of-order stamps by skipping refill; each
        # peer's grants are time-ordered so dt >= 0 always, but clip for
        # safety.
        np.maximum(dt, 0.0, out=dt)
        t = np.minimum(self.burst, t + dt * self.rate_per_sec)
        avail = np.floor(t + 1e-12).astype(np.int64)
        granted = np.minimum(np.asarray(counts, dtype=np.int64), avail)
        self.tokens[peers] = t - granted
        self.last[peers] = now
        return granted
