"""Opt-in profiling scopes around the hot loops.

A :class:`Profiler` hands out named ``scope()`` context managers that
always record wall time (``time.perf_counter``) and, when built with
``cprofile=True``, additionally run :mod:`cProfile` over the block and
keep the top-N rows (by cumulative time) as text. Reports accumulate on
the profiler and are JSON-able; a run's reports stay on its
:class:`~repro.obs.config.Observability` bundle (``run.obs.profiler``).

Profiling is strictly opt-in: nothing in this module runs unless a
config asked for it, and the simulators guard every scope behind a
single ``is not None`` branch.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

from repro.errors import ConfigError


class Profiler:
    """Accumulates per-scope wall times and optional cProfile extracts.

    >>> prof = Profiler()
    >>> with prof.scope("des.run"):
    ...     pass
    >>> prof.reports[0]["scope"]
    'des.run'
    """

    def __init__(self, *, cprofile: bool = False, top: int = 20) -> None:
        if top < 1:
            raise ConfigError(f"top must be >= 1, got {top}")
        self.cprofile = cprofile
        self.top = top
        self.reports: List[Dict[str, Any]] = []

    @contextmanager
    def scope(self, name: str, **labels: Any) -> Iterator[None]:
        """Profile one block; appends a report dict on exit.

        The report carries ``scope``, ``wall_s``, any ``labels``, and --
        under ``cprofile=True`` -- ``profile_top``: the formatted top-N
        cumulative-time rows.
        """
        if not name:
            raise ConfigError("profile scope name must be non-empty")
        prof = None
        if self.cprofile:
            prof = cProfile.Profile()
            prof.enable()
        started = time.perf_counter()
        try:
            yield
        finally:
            wall_s = time.perf_counter() - started
            report: Dict[str, Any] = {"scope": name, "wall_s": wall_s}
            report.update(labels)
            if prof is not None:
                prof.disable()
                report["profile_top"] = self._format_top(prof)
            self.reports.append(report)

    def _format_top(self, prof: cProfile.Profile) -> str:
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.sort_stats("cumulative").print_stats(self.top)
        return buf.getvalue()

    def dump(self) -> List[Dict[str, Any]]:
        """All reports so far (JSON-able; safe to pickle across workers)."""
        return list(self.reports)
