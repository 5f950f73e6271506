"""Query-trace capture in the monitoring-node log format.

Section 2.3 describes a traffic-monitoring super node (a modified LimeWire
client with logging) that recorded 13,075,339 queries over 24 hours into a
112 MB log. The DDoS agent prototype replays queries from that log.

We reproduce the pipeline: :func:`synthesize_trace` generates a log with
the same *statistical* content (timestamped, Zipf-popular search strings,
~8.6 bytes/record overhead matching the reported 112 MB / 13.1 M ratio);
:class:`QueryTraceReader` streams it back for the testbed's replaying
sender (:mod:`repro.testbed.pipeline`).

Format: one record per line, tab-separated::

    <timestamp_s>\t<guid_hex>\t<search string>

Files ending in ``.gz`` are transparently gzip-compressed (the real
capture was 112 MB of text; compression matters at that size).
"""

from __future__ import annotations

import gzip
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro.errors import ConfigError, WireFormatError
from repro.overlay.content import ContentCatalog, ContentConfig


@dataclass(frozen=True)
class TraceRecord:
    """One logged query."""

    timestamp_s: float
    guid_hex: str
    search_string: str

    def __post_init__(self) -> None:
        if self.timestamp_s < 0:
            raise ConfigError("timestamp must be non-negative")
        if len(self.guid_hex) != 32:
            raise ConfigError(f"guid_hex must be 32 hex chars, got {len(self.guid_hex)}")

    def to_line(self) -> str:
        return f"{self.timestamp_s:.3f}\t{self.guid_hex}\t{self.search_string}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise WireFormatError(f"malformed trace line: {line!r}")
        ts, guid_hex, search = parts
        try:
            return cls(float(ts), guid_hex, search)
        except ValueError as exc:
            raise WireFormatError(f"malformed trace line: {line!r}") from exc


def _open_text(path: Path, mode: str):
    """Open a trace file, gzip-compressed if it ends in .gz."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return path.open(mode, encoding="utf-8")


class QueryTraceWriter:
    """Append-only trace log writer (gzip when the path ends in .gz)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = _open_text(self.path, "w")
        self.records_written = 0

    def write(self, record: TraceRecord) -> None:
        self._fh.write(record.to_line() + "\n")
        self.records_written += 1

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "QueryTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class QueryTraceReader:
    """Streams a trace log; supports cyclic replay for the DDoS agent.

    "The querying thread reads queries from the log file collected by the
    monitoring node and issues these queries" -- Section 2.3.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise ConfigError(f"trace file not found: {self.path}")

    def __iter__(self) -> Iterator[TraceRecord]:
        with _open_text(self.path, "r") as fh:
            for line in fh:
                if line.strip():
                    yield TraceRecord.from_line(line)

    def read_all(self) -> List[TraceRecord]:
        return list(self)

    def replay_cyclic(self, limit: int) -> Iterator[TraceRecord]:
        """Yield ``limit`` records, cycling through the file as needed."""
        if limit < 0:
            raise ConfigError("limit must be non-negative")
        yielded = 0
        while yielded < limit:
            empty = True
            for rec in self:
                empty = False
                yield rec
                yielded += 1
                if yielded >= limit:
                    return
            if empty:
                raise ConfigError(f"trace file {self.path} is empty")


def synthesize_trace(
    path: Union[str, Path],
    *,
    num_queries: int = 10_000,
    duration_s: float = 86_400.0,
    catalog: Optional[ContentCatalog] = None,
    seed: int = 0,
) -> Path:
    """Generate a monitoring-node-style trace file.

    Timestamps are uniform over ``duration_s`` (sorted); search strings are
    drawn from the catalog's Zipf popularity, mirroring the real capture.
    """
    if num_queries < 1:
        raise ConfigError("num_queries must be >= 1")
    if duration_s <= 0:
        raise ConfigError("duration_s must be positive")
    rng = random.Random(seed)
    catalog = catalog or ContentCatalog(ContentConfig(seed=seed), n_peers=1000)
    times = sorted(rng.uniform(0, duration_s) for _ in range(num_queries))
    with QueryTraceWriter(path) as writer:
        for ts in times:
            obj = catalog.sample_object(rng)
            guid_hex = "%032x" % rng.getrandbits(128)
            writer.write(
                TraceRecord(ts, guid_hex, " ".join(catalog.keywords_for(obj)))
            )
    return Path(path)
