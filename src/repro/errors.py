"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(ReproError, ValueError):
    """Invalid configuration value or inconsistent parameter combination."""


class ProtocolError(ReproError):
    """Violation of the overlay or DD-POLICE protocol state machine."""


class WireFormatError(ProtocolError, ValueError):
    """Malformed on-the-wire message bytes.

    Subclasses :class:`ProtocolError`: a corrupted frame is a protocol
    violation, and callers of the decoders are guaranteed to never see
    anything outside the ProtocolError hierarchy (no ``struct.error``,
    no bare ``ValueError``/``IndexError``).
    """


class TopologyError(ReproError, ValueError):
    """Infeasible or inconsistent topology request."""


class MetricsError(ReproError, ValueError):
    """A metrics query selected an empty or undefined sample.

    Raised instead of ``ZeroDivisionError``/silent ``nan`` when an
    aggregation window contains no rows (e.g. ``mean_over(first_minute)``
    with ``first_minute`` past the end of the run).
    """


class ExecError(ReproError, RuntimeError):
    """Failure inside the parallel experiment executor (:mod:`repro.exec`)."""


class WorkerCrashError(ExecError):
    """A worker process died without returning a result (segfault, OOM
    kill, interpreter abort). The pool is torn down and the error names
    the first task of the chunk that was lost."""
