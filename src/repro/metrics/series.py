"""Simple time series container (damage curves and their recovery time)."""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigError


class TimeSeries:
    """Append-only (time, value) series with window reductions.

    Times must be appended in non-decreasing order (simulation time is
    monotone), enabling O(log n) window queries.
    """

    def __init__(self, points: Optional[Iterable[Tuple[float, float]]] = None) -> None:
        self._times: List[float] = []
        self._values: List[float] = []
        if points:
            for t, v in points:
                self.append(t, v)

    def append(self, t: float, value: float) -> None:
        if self._times and t < self._times[-1]:
            raise ConfigError(
                f"time series must be appended in order: {t} < {self._times[-1]}"
            )
        self._times.append(float(t))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> List[float]:
        return list(self._times)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def last(self) -> Tuple[float, float]:
        if not self._times:
            raise ConfigError("empty time series")
        return self._times[-1], self._values[-1]

    # ------------------------------------------------------------------
    def window(self, t0: float, t1: float) -> "TimeSeries":
        """Points with t0 <= t < t1."""
        lo = bisect_left(self._times, t0)
        hi = bisect_left(self._times, t1)
        out = TimeSeries()
        out._times = self._times[lo:hi]
        out._values = self._values[lo:hi]
        return out

    def mean(self) -> float:
        if not self._values:
            raise ConfigError("mean of empty time series")
        return sum(self._values) / len(self._values)

    def total(self) -> float:
        return sum(self._values)

    def max(self) -> float:
        if not self._values:
            raise ConfigError("max of empty time series")
        return max(self._values)
