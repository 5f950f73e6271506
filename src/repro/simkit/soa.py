"""Struct-of-arrays primitives for the batched flood engine.

The SoA backend (:mod:`repro.overlay.soa_network`) advances flooding in
*hop windows*: every message delivery less than one hop after the
earliest pending one is processed as one vectorized step. That step
needs two primitives that have no per-element Python cost:

* :class:`Int64Map` -- an open-addressing int64 -> int64 hash table with
  fully vectorized batch insert/lookup. It backs the unified seen-set /
  reverse-route table (key ``qid * n + peer``, value = the directed
  edge the query arrived on, or the ``ORIGIN`` sentinel for own issues).
  Because flood state is only live for one query lifetime
  (``2 * TTL * hop_latency`` seconds), the map is *generational*: two
  tables rotate on an epoch clock and lookups consult both, so memory is
  bounded by two epochs of insert volume instead of the whole run.
* :class:`TokenBucketArray` -- per-peer token buckets in two float64
  arrays, refilled lazily and in bulk. Matches
  :class:`repro.overlay.capacity.TokenBucket` float-for-float when
  refill points coincide (capped linear refill composes path
  independently, so it does).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError

#: Empty-slot key sentinel (keys must be non-negative).
EMPTY = np.int64(-1)

#: Fibonacci multiplier for int64 hashing (2^64 / golden ratio, odd).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _hashes(keys: np.ndarray) -> np.ndarray:
    """Fibonacci hashes of int64 keys; a table keeps its top bits."""
    return keys.astype(np.uint64) * _GOLDEN


class _Table:
    """One open-addressing generation: parallel key/value arrays.

    Every probe takes ``h = _hashes(keys)`` from its caller, so one
    product serves both generations.
    """

    __slots__ = ("keys", "vals", "log2_cap", "shift", "mask", "size")

    def __init__(self, log2_cap: int) -> None:
        cap = 1 << log2_cap
        self.keys = np.full(cap, EMPTY, dtype=np.int64)
        self.vals = np.empty(cap, dtype=np.int64)
        self.log2_cap = log2_cap
        self.shift = np.uint64(64 - log2_cap)
        self.mask = np.int64(cap - 1)
        self.size = 0

    # -- vectorized probing -------------------------------------------------
    def find(
        self, query_keys: np.ndarray, h: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Membership mask for ``query_keys``; with ``out``, the values of
        the found keys are also written into it (missing untouched)."""
        slots = (h >> self.shift).astype(np.int64)
        table_keys = self.keys[slots]
        hit = table_keys == query_keys
        if out is not None:
            out[hit] = self.vals[slots[hit]]
        live = ~hit & (table_keys != EMPTY)
        rows = None  # probes still running, once some have finished
        while live.any():
            rows = live.nonzero()[0] if rows is None else rows[live]
            slots = (slots[live] + 1) & self.mask
            table_keys = self.keys[slots]
            found = table_keys == query_keys[rows]
            found_rows = rows[found]
            hit[found_rows] = True
            if out is not None:
                out[found_rows] = self.vals[slots[found]]
            live = ~found & (table_keys != EMPTY)
        return hit

    def _claim(
        self, slots: np.ndarray, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One probe round: ``(won, settled)`` masks over the probes.

        Every probe that sees an empty slot writes its key there; when
        several contend, one write survives and the read-back tells each
        claimant whether it was theirs. ``settled`` probes found their
        key in the slot, either stored earlier or just won.
        """
        empty = self.keys[slots] == EMPTY
        self.keys[slots[empty]] = keys[empty]
        settled = self.keys[slots] == keys
        return empty & settled, settled

    def insert_unique(
        self, keys: np.ndarray, vals: np.ndarray, h: np.ndarray
    ) -> np.ndarray:
        """Insert batch-unique keys; return the freshly-inserted mask.

        ``keys`` must contain no within-batch duplicates. Keys already
        present keep their stored value (first writer wins, matching the
        DES reverse-route table, which is only written on first sight of
        a GUID). Probes that lose a claim or meet another key advance one
        slot; every round settles a probe or advances it, and the load
        factor stays <= 0.5, so the loop terminates.
        """
        slots = (h >> self.shift).astype(np.int64)
        fresh, settled = self._claim(slots, keys)
        self.vals[slots[fresh]] = vals[fresh]
        rows = None
        while not settled.all():
            live = ~settled
            rows = live.nonzero()[0] if rows is None else rows[live]
            slots = (slots[live] + 1) & self.mask
            won, settled = self._claim(slots, keys[rows])
            won_rows = rows[won]
            fresh[won_rows] = True
            self.vals[slots[won]] = vals[won_rows]
        self.size += int(np.count_nonzero(fresh))
        return fresh


class Int64Map:
    """Generational vectorized int64 -> int64 map (seen-set + routes).

    Two generations (``current``/``previous``) rotate on an epoch clock:
    inserts go to ``current``; lookups and duplicate checks consult both.
    Entries therefore survive between one and two epochs -- choose
    ``epoch_s`` longer than the flood lifetime (``2 * TTL * hop_latency``)
    and the rotation is semantically invisible, exactly like the DES
    peers' LRU ``_seen`` caches whose capacity is never binding.
    """

    def __init__(self, *, initial_log2_cap: int = 10, epoch_s: float = 2.0) -> None:
        if epoch_s <= 0:
            raise ConfigError("epoch_s must be positive")
        if initial_log2_cap < 4:
            raise ConfigError("initial_log2_cap must be >= 4")
        self._initial_log2_cap = initial_log2_cap
        self.epoch_s = float(epoch_s)
        self._current = _Table(initial_log2_cap)
        self._previous = _Table(initial_log2_cap)
        self._epoch_start = 0.0
        self.rotations = 0

    # ------------------------------------------------------------------
    def maybe_rotate(self, now: float) -> None:
        """Retire the previous generation once an epoch has elapsed."""
        if now - self._epoch_start >= self.epoch_s:
            self._previous = self._current
            self._current = _Table(max(self._initial_log2_cap, self._previous.log2_cap))
            self._epoch_start = now
            self.rotations += 1

    def _grow_current(self, incoming: int) -> None:
        cur = self._current
        needed = cur.size + incoming
        log2 = cur.log2_cap
        while needed * 2 > (1 << log2):  # keep load factor <= 0.5
            log2 += 1
        if log2 == cur.log2_cap:
            return
        bigger = _Table(log2)
        if cur.size:
            occupied = cur.keys != EMPTY
            old_keys = cur.keys[occupied]
            bigger.insert_unique(old_keys, cur.vals[occupied], _hashes(old_keys))
        self._current = bigger

    # ------------------------------------------------------------------
    def insert_new(self, keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Insert batch-unique ``keys``; True where the key was unseen.

        A key already present in either generation is a duplicate: it is
        not reinserted and its stored value is untouched.
        """
        keys = np.asarray(keys, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.int64)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        self._grow_current(len(keys))
        cur = self._current
        h = _hashes(keys)
        if not self._previous.size:
            return cur.insert_unique(keys, vals, h)
        todo = ~self._previous.find(keys, h)
        fresh = np.zeros(len(keys), dtype=bool)
        fresh[todo] = cur.insert_unique(keys[todo], vals[todo], h[todo])
        return fresh

    def lookup(self, keys: np.ndarray, missing: int = -3) -> np.ndarray:
        """Values for ``keys``; ``missing`` where absent from both tables."""
        keys = np.asarray(keys, dtype=np.int64)
        out = np.full(len(keys), missing, dtype=np.int64)
        h = _hashes(keys)
        # An entry can only exist in one generation (inserts check both),
        # so the order of the two passes is moot.
        if self._previous.size:
            self._previous.find(keys, h, out)
        self._current.find(keys, h, out)
        return out

    @property
    def size(self) -> int:
        return self._current.size + self._previous.size


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
