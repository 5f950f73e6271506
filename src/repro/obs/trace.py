"""Structured tracing: typed records and pluggable sinks.

A trace is a stream of flat, schema-versioned dicts. Every record carries

* ``v``    -- the schema version (:data:`SCHEMA_VERSION`),
* ``seq``  -- a per-tracer monotone sequence number,
* ``t``    -- the *simulated* time the record refers to (seconds),
* ``kind`` -- a dotted event name (``police.cut``, ``net.minute``, ...),

plus arbitrary caller-supplied fields (JSON scalars or flat lists). The
flat shape keeps traces greppable and ``jq``-able.

The :class:`Tracer` forwards every record to its sinks.
:class:`JsonlSink` appends one JSON object per line; :class:`MemorySink`
collects records in a list for tests.

Tracing records state -- it never draws randomness and never mutates the
simulation, so a traced run is bit-identical to an untraced one.
"""

from __future__ import annotations

import json
import math
from collections import Counter as _Counter
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import ConfigError

#: Version stamped into every record; bump on incompatible field changes.
SCHEMA_VERSION = 1

#: Keys the tracer assigns itself; caller fields must not collide.
RESERVED_KEYS = frozenset({"v", "seq", "t", "kind"})

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _check_field_value(key: str, value: Any) -> None:
    if isinstance(value, _SCALAR_TYPES):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            if not isinstance(item, _SCALAR_TYPES):
                raise ConfigError(
                    f"trace field {key!r} holds a non-scalar list item "
                    f"({type(item).__name__}); flatten it first"
                )
        return
    raise ConfigError(
        f"trace field {key!r} must be a JSON scalar or flat list, "
        f"got {type(value).__name__}"
    )


def validate_record(record: Dict[str, Any]) -> None:
    """Check one trace record against the schema; raises :class:`ConfigError`.

    Used by tests and the CI trace-smoke job to assert that emitted
    JSONL parses back into well-formed records.
    """
    if not isinstance(record, dict):
        raise ConfigError(f"trace record must be a dict, got {type(record).__name__}")
    if record.get("v") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported trace schema version {record.get('v')!r}")
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ConfigError(f"trace record seq must be a non-negative int, got {seq!r}")
    kind = record.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ConfigError(f"trace record kind must be a non-empty string, got {kind!r}")
    t = record.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        raise ConfigError(f"trace record t must be a number, got {t!r}")
    if isinstance(t, float) and not math.isfinite(t):
        raise ConfigError(f"trace record t must be finite, got {t!r}")
    for key, value in record.items():
        if not isinstance(key, str):
            raise ConfigError(f"trace record key {key!r} is not a string")
        if key in RESERVED_KEYS:
            continue
        _check_field_value(key, value)


class MemorySink:
    """Collects records in a plain list (for tests and in-run inspection)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.closed = False

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


class JsonlSink:
    """Appends one compact JSON object per line.

    Each record is flushed as it is written, so a crashed run leaves at
    worst one truncated final line (skipped by :func:`iter_records`).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        self._file.write(line)
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class Tracer:
    """Emits trace records into the attached sinks.

    >>> sink = MemorySink()
    >>> tracer = Tracer(sinks=[sink])
    >>> _ = tracer.event("police.cut", t=1.0, observer=3, suspect=7)
    >>> [r["kind"] for r in sink.records]
    ['police.cut']
    """

    def __init__(self, *, sinks: Sequence[Any] = (), run: Optional[str] = None) -> None:
        self._sinks = list(sinks)
        self._run = run
        self._seq = 0
        self._closed = False

    def event(self, kind: str, *, t: float = 0.0, **fields: Any) -> Dict[str, Any]:
        """Emit one point-in-time record."""
        if not kind:
            raise ConfigError("trace kind must be non-empty")
        clash = RESERVED_KEYS.intersection(fields)
        if clash:
            raise ConfigError(
                f"trace fields collide with reserved keys: {sorted(clash)}"
            )
        record: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "t": float(t),
            "kind": kind,
        }
        if self._run is not None:
            record["run"] = self._run
        record.update(fields)
        self._seq += 1
        for sink in self._sinks:
            sink.write(record)
        return record

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for sink in self._sinks:
            sink.close()


# ---------------------------------------------------------------------------
# reading traces back
# ---------------------------------------------------------------------------

def iter_records(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield records from a JSONL trace file, skipping a truncated tail.

    A mid-record truncation (crashed writer) only ever affects the final
    line; any malformed line *before* the last one is a real corruption
    and raises :class:`ConfigError`.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                return  # truncated final line from an interrupted run
            raise ConfigError(f"{path}: malformed trace record on line {i + 1}")


def summarize_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Per-kind counts and time range of a JSONL trace file.

    Returns ``{"records": N, "t_min": ..., "t_max": ..., "kinds":
    {kind: count}}``. Every record is schema-validated on the way
    through, so a passing summary doubles as a file-level validity check.
    """
    kinds: _Counter = _Counter()
    total = 0
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    for record in iter_records(path):
        validate_record(record)
        kinds[record["kind"]] += 1
        total += 1
        t = float(record["t"])
        t_min = t if t_min is None else min(t_min, t)
        t_max = t if t_max is None else max(t_max, t)
    return {
        "records": total,
        "t_min": t_min,
        "t_max": t_max,
        "kinds": dict(sorted(kinds.items())),
    }
