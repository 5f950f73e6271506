"""Origin-aware incremental query accounting (the paper-scale metrics path).

The paper's headline metric S(t) (Section 3.6, Figures 10-12) is the
success rate of *users'* queries. Attack agents originate bogus queries
too, and those must never enter the denominator: a flood of unanswerable
queries would otherwise depress measured S(t) mechanically, turning the
"damage" figures into an artifact of the measurement instead of degraded
service. Every issued query is therefore classified at issue time --
``GOOD`` (a regular peer) or ``ATTACK`` (a registered attack origin) --
and every aggregate is kept per class.

Accounting is O(1) per event, not O(records) per minute:

* issue and first-response events update per-window per-class counters
  plus lifetime running totals;
* when a window's grace period elapses, the window is *finalized*: its
  :class:`MinuteMetrics` row is emitted and the queries issued in it are
  retired from the network's live ``query_records`` table (their keys are
  returned to the caller for deletion). Memory for settled queries is
  bounded by ``grace + 1`` windows regardless of run length.

Responses arriving after their window was finalized are counted in
``late_responses`` but change neither the window row nor the lifetime
totals: each window is evaluated once, ``grace`` minutes after it closed
(the cutoff of the full-scan oracle whose output is frozen in
``tests/metrics/fixtures/minute_rows.json``).

``rows`` is the only per-minute view of a message-level run: the ``des``
and ``des-soa`` run objects both expose their accounting, and every
reader (result extraction, tests, examples) derives its series from the
rows directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError

#: Traffic-class indices (list positions in the window buckets).
GOOD = 0
ATTACK = 1
_CLASSES = (GOOD, ATTACK)

#: Accepted ``traffic=`` selector values on the summary accessors.
TRAFFIC_CLASSES = ("good", "attack", "all")


@dataclass(slots=True)
class ClassTotals:
    """Lifetime running aggregates for one traffic class."""

    issued: int = 0
    succeeded: int = 0
    response_time_sum: float = 0.0

    def merged_with(self, other: "ClassTotals") -> "ClassTotals":
        return ClassTotals(
            issued=self.issued + other.issued,
            succeeded=self.succeeded + other.succeeded,
            response_time_sum=self.response_time_sum + other.response_time_sum,
        )

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.issued if self.issued else 0.0

    @property
    def mean_response_time(self) -> Optional[float]:
        if self.succeeded == 0:
            return None
        return self.response_time_sum / self.succeeded


@dataclass
class MinuteMetrics:
    """Derived metrics for one completed minute, split by query origin.

    ``queries_issued`` / ``queries_succeeded`` / ``mean_response_time_s``
    describe **good-origin** traffic -- the paper's default. The
    ``attack_*`` fields carry the same aggregates for agent-originated
    queries, and the ``all_*`` properties recombine both classes for
    diagnostics (the pre-fix behaviour).
    """

    minute: int
    time_s: float
    messages: int
    bytes_transferred: int
    queries_issued: int
    queries_succeeded: int
    mean_response_time_s: Optional[float]
    attack_queries_issued: int = 0
    attack_queries_succeeded: int = 0
    attack_mean_response_time_s: Optional[float] = None

    @property
    def success_rate(self) -> float:
        """S(t) = qs(t)/qw(t) over this minute, good-origin queries only."""
        if self.queries_issued == 0:
            return 0.0
        return self.queries_succeeded / self.queries_issued

    @property
    def all_queries_issued(self) -> int:
        return self.queries_issued + self.attack_queries_issued

    @property
    def all_queries_succeeded(self) -> int:
        return self.queries_succeeded + self.attack_queries_succeeded

    @property
    def all_success_rate(self) -> float:
        """All-traffic denominator: every origin, agents included (diagnostic)."""
        if self.all_queries_issued == 0:
            return 0.0
        return self.all_queries_succeeded / self.all_queries_issued


class _WindowBucket:
    """Per-class counters for one minute window, O(1) to update."""

    __slots__ = ("index", "issued", "succeeded", "rt_sum", "record_keys")

    def __init__(self, index: int, track_keys: bool) -> None:
        self.index = index
        self.issued = [0, 0]
        self.succeeded = [0, 0]
        self.rt_sum = [0.0, 0.0]
        self.record_keys: Optional[List[bytes]] = [] if track_keys else None


class QueryAccounting:
    """Streaming per-window / lifetime query aggregates.

    Owned by the overlay network, which feeds it three event streams
    (issue, first response, minute rollover) and applies the retirement
    lists it returns. Readers take ``rows`` -- nothing scans records.
    """

    def __init__(self, *, grace_minutes: int = 1, retire_records: bool = True) -> None:
        if grace_minutes < 0:
            raise ConfigError("grace_minutes must be non-negative")
        self.grace_minutes = grace_minutes
        self.retire_records = retire_records
        self.rows: List[MinuteMetrics] = []
        self.late_responses = 0
        self._totals = [ClassTotals(), ClassTotals()]
        self._buckets: Dict[int, _WindowBucket] = {}
        self._rolls = 0
        self._roll_times: List[float] = [0.0]
        self._last_messages = 0
        self._last_bytes = 0

    # ------------------------------------------------------------------
    # event stream
    # ------------------------------------------------------------------
    def on_issued(self, key: bytes, is_attack: bool) -> int:
        """Record one issued query; returns its window index."""
        cls = ATTACK if is_attack else GOOD
        totals = self._totals[cls]
        totals.issued += 1
        window = self._rolls
        bucket = self._buckets.get(window)
        if bucket is None:
            bucket = self._buckets[window] = _WindowBucket(
                window, self.retire_records
            )
        bucket.issued[cls] += 1
        if bucket.record_keys is not None:
            bucket.record_keys.append(key)
        return window

    def on_issued_many(self, count: int, is_attack: bool) -> int:
        """Bulk :meth:`on_issued` for ``count`` keyless queries.

        Used by the batched SoA backend, whose attack generators issue
        whole per-second batches in one call. Requires record retirement
        to be off (there are no per-query keys to track), which keeps the
        retirement contract sound.
        """
        if count < 0:
            raise ConfigError("count must be non-negative")
        if self.retire_records:
            raise ConfigError(
                "on_issued_many requires retire_records=False (bulk issues "
                "carry no record keys to retire)"
            )
        cls = ATTACK if is_attack else GOOD
        self._totals[cls].issued += count
        window = self._rolls
        bucket = self._buckets.get(window)
        if bucket is None:
            bucket = self._buckets[window] = _WindowBucket(
                window, self.retire_records
            )
        bucket.issued[cls] += count
        return window

    def on_first_response(
        self, window: int, is_attack: bool, response_time: float
    ) -> None:
        """Record the first response for a query issued in ``window``."""
        cls = ATTACK if is_attack else GOOD
        bucket = self._buckets.get(window)
        if bucket is None:
            # The window was already finalized (only reachable when record
            # retirement is off and a response straggles past the grace
            # cutoff). The row is immutable history; count and move on.
            self.late_responses += 1
            return
        bucket.succeeded[cls] += 1
        bucket.rt_sum[cls] += response_time
        totals = self._totals[cls]
        totals.succeeded += 1
        totals.response_time_sum += response_time

    def on_minute_rolled(
        self, now: float, messages_delivered: int, bytes_transferred: int
    ) -> Sequence[bytes]:
        """Advance the window clock; finalize the window leaving grace.

        Returns the record keys to retire from the live query table
        (empty when nothing finalized or retirement is off).
        """
        self._rolls += 1
        self._roll_times.append(now)
        target = self._rolls - self.grace_minutes  # 1-based window number
        if target < 1:
            return ()
        bucket = self._buckets.pop(target - 1, None)
        if bucket is None:
            bucket = _WindowBucket(target - 1, track_keys=False)
        g, a = GOOD, ATTACK
        self.rows.append(
            MinuteMetrics(
                minute=target,
                time_s=self._roll_times[target],
                messages=messages_delivered - self._last_messages,
                bytes_transferred=bytes_transferred - self._last_bytes,
                queries_issued=bucket.issued[g],
                queries_succeeded=bucket.succeeded[g],
                mean_response_time_s=(
                    bucket.rt_sum[g] / bucket.succeeded[g]
                    if bucket.succeeded[g]
                    else None
                ),
                attack_queries_issued=bucket.issued[a],
                attack_queries_succeeded=bucket.succeeded[a],
                attack_mean_response_time_s=(
                    bucket.rt_sum[a] / bucket.succeeded[a]
                    if bucket.succeeded[a]
                    else None
                ),
            )
        )
        self._last_messages = messages_delivered
        self._last_bytes = bytes_transferred
        return bucket.record_keys or ()

    # ------------------------------------------------------------------
    # whole-run summaries
    # ------------------------------------------------------------------
    def totals(self, traffic: str = "good") -> ClassTotals:
        """Lifetime aggregates for ``traffic`` in {'good', 'attack', 'all'}."""
        if traffic == "good":
            return self._totals[GOOD]
        if traffic == "attack":
            return self._totals[ATTACK]
        if traffic == "all":
            return self._totals[GOOD].merged_with(self._totals[ATTACK])
        raise ConfigError(
            f"unknown traffic class {traffic!r} (expected one of {TRAFFIC_CLASSES})"
        )

    def success_rate(self, traffic: str = "good") -> float:
        return self.totals(traffic).success_rate

    def mean_response_time(self, traffic: str = "good") -> Optional[float]:
        return self.totals(traffic).mean_response_time

    @property
    def live_window_count(self) -> int:
        """Number of unfinalized window buckets (bounded by grace + 1)."""
        return len(self._buckets)
