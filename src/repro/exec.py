"""Deterministic task-based parallel experiment executor.

The paper's methodology is an embarrassingly parallel grid -- 100
topologies, agent counts 10..200, multi-trial averaging -- so every sweep
in :mod:`repro.experiments` is expressible as ``pmap(fn, tasks)`` over
*pure* tasks: each task carries its own config (including a seed derived
with :func:`repro.simkit.rng.derive_seed`), touches no shared mutable
state, and returns a picklable value.

Design rules that keep parallel runs bit-identical to serial ones:

* **Determinism lives in the tasks, never in the schedule.** Each task's
  randomness comes only from seeds embedded in the task payload, so the
  result of task *i* cannot depend on which worker ran it or when.
* **Ordered reassembly.** ``pmap`` always returns ``[fn(t) for t in
  tasks]`` in task order, regardless of completion order.
* **Serial in-process fallback.** ``workers=1`` (the default) runs the
  plain list comprehension in the calling process: no subprocesses, no
  pickling, byte-identical to the pre-executor code path.
* **Typed failure surfacing.** A dead worker raises
  :class:`~repro.errors.WorkerCrashError` and its pool is discarded; an
  exception *inside* ``fn`` is re-raised as-is (same behavior as the
  serial path).

Worker processes use the ``spawn`` start method: children re-import the
module that defines ``fn`` instead of forking the parent's (possibly
inconsistent) heap, which is the only start method that is safe on every
platform and under threaded callers. Consequently ``fn`` and every task
must be picklable -- module-level functions and frozen dataclasses, not
closures. Pools are cached per worker count so repeated ``pmap`` calls
amortize interpreter startup.

``pmap`` takes one option, ``workers``: it is the only one the sweeps
pass. A run is observed from outside -- ``repro run --profile`` wraps
the whole call, ``perfbench`` wraps ``pmap`` by path -- so the executor
carries no deadline, progress hook, stats record or per-chunk profiler.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, ExecError, WorkerCrashError

#: Environment variable holding the default worker count for sweeps that
#: do not pass ``workers`` explicitly (``run_spec`` callers, CLI).
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit argument, else ``$REPRO_WORKERS``,
    else 1 (serial).

    ``workers=0`` / ``REPRO_WORKERS=0`` means "one per CPU".
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    if workers < 0:
        raise ConfigError("workers must be >= 0")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


#: Dispatch units per worker: enough that stragglers rebalance, few
#: enough that per-chunk IPC stays amortized.
_CHUNKS_PER_WORKER = 4


def _chunk_bounds(n_tasks: int, chunk_size: int) -> List[Tuple[int, int]]:
    return [(lo, min(lo + chunk_size, n_tasks)) for lo in range(0, n_tasks, chunk_size)]


def _run_chunk(fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
    """Worker-side body: run one chunk serially, preserving order."""
    return [fn(task) for task in tasks]


# ---------------------------------------------------------------------------
# pool cache
# ---------------------------------------------------------------------------

_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        import multiprocessing

        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        )
        _POOLS[workers] = pool
    return pool


def _discard_pool(workers: int) -> None:
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every cached worker pool (called automatically at exit)."""
    for workers in list(_POOLS):
        _discard_pool(workers)


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# pmap
# ---------------------------------------------------------------------------

def pmap(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    workers: Optional[int] = None,
) -> List[Any]:
    """Map ``fn`` over ``tasks``, optionally on a process pool.

    Parameters
    ----------
    fn:
        A *pure*, picklable (module-level) function of one task.
    tasks:
        Task payloads; each must be picklable when ``workers > 1``.
    workers:
        Process count (see :func:`resolve_workers`); 1 = serial in-process.

    Returns ``[fn(t) for t in tasks]`` in task order.
    """
    workers = resolve_workers(workers)
    tasks = list(tasks)
    total = len(tasks)
    if workers == 1 or total <= 1:
        return [fn(task) for task in tasks]

    bounds = _chunk_bounds(total, max(1, total // (workers * _CHUNKS_PER_WORKER)))
    pool = _pool(workers)
    slots: List[Any] = [None] * total
    try:
        future_bounds = {
            pool.submit(_run_chunk, fn, tasks[lo:hi]): (lo, hi) for lo, hi in bounds
        }
    except BrokenProcessPool as exc:  # pool died before accepting work
        _discard_pool(workers)
        raise WorkerCrashError(f"worker pool broken at submit: {exc}") from exc

    try:
        for future in as_completed(future_bounds):
            lo, hi = future_bounds[future]
            try:
                chunk_results = future.result()
            except BrokenProcessPool as exc:
                raise WorkerCrashError(
                    f"worker crashed while running tasks [{lo}, {hi}): {exc}"
                ) from exc
            if len(chunk_results) != hi - lo:
                raise ExecError(
                    f"chunk [{lo}, {hi}) returned {len(chunk_results)} results"
                )
            slots[lo:hi] = chunk_results
    except BaseException as exc:
        for future in future_bounds:
            future.cancel()
        if isinstance(exc, WorkerCrashError):
            _discard_pool(workers)
        raise
    return slots
