"""Unit tests for the deterministic parallel executor (:mod:`repro.exec`)."""

import os

import pytest

from repro.errors import ConfigError, WorkerCrashError
from repro.exec import WORKERS_ENV, _POOLS, _chunk_bounds, pmap, resolve_workers


# Worker payload functions must live at module level so the spawn start
# method can re-import them in the child process.
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("task three exploded")
    return x


def _kill_worker(x):
    os._exit(13)


def _pid(x):
    return os.getpid()


# ---------------------------------------------------------------------------
# resolve_workers
# ---------------------------------------------------------------------------

def test_resolve_workers_defaults_to_serial(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(3) == 3


def test_resolve_workers_reads_env(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "5")
    assert resolve_workers() == 5
    # explicit argument wins over the environment
    assert resolve_workers(2) == 2


def test_resolve_workers_zero_means_cpu_count(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(0) == (os.cpu_count() or 1)
    monkeypatch.setenv(WORKERS_ENV, "0")
    assert resolve_workers() == (os.cpu_count() or 1)


def test_resolve_workers_rejects_garbage(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "many")
    with pytest.raises(ConfigError, match=WORKERS_ENV):
        resolve_workers()
    with pytest.raises(ConfigError):
        resolve_workers(-1)


# ---------------------------------------------------------------------------
# serial path
# ---------------------------------------------------------------------------

def test_serial_pmap_matches_list_comprehension():
    tasks = list(range(17))
    assert pmap(_square, tasks, workers=1) == [t * t for t in tasks]
    # lambdas are fine serially (no pickling involved)
    assert pmap(lambda x: x + 1, [1, 2, 3], workers=1) == [2, 3, 4]


def test_serial_pmap_propagates_task_exception():
    with pytest.raises(ValueError, match="task three exploded"):
        pmap(_fail_on_three, [1, 2, 3, 4], workers=1)


def test_serial_pmap_runs_in_process():
    pids = pmap(_pid, [1, 2, 3], workers=1)
    assert pids == [os.getpid()] * 3


def test_empty_task_list():
    assert pmap(_square, [], workers=1) == []
    # the parallel branch also short-circuits on <= 1 task
    assert pmap(_square, [], workers=4) == []
    assert pmap(_square, [6], workers=4) == [36]


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------

def test_chunk_bounds_cover_exactly():
    assert _chunk_bounds(10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert _chunk_bounds(4, 4) == [(0, 4)]
    assert _chunk_bounds(0, 3) == []


# ---------------------------------------------------------------------------
# parallel path (spawns real worker processes -- keep these few and small)
# ---------------------------------------------------------------------------

def test_parallel_pmap_ordered_and_equal_to_serial():
    # 23 tasks on 2 workers: twelve chunks of two (the last of one), so
    # reassembly has real completion-order freedom to undo
    tasks = list(range(23))
    assert pmap(_square, tasks, workers=2) == pmap(_square, tasks, workers=1)
    # the spawn pool is cached for the next call
    assert 2 in _POOLS


def test_parallel_pmap_propagates_task_exception():
    with pytest.raises(ValueError, match="task three exploded"):
        pmap(_fail_on_three, [1, 2, 3, 4], workers=2)


def test_parallel_worker_crash_is_typed():
    with pytest.raises(WorkerCrashError):
        pmap(_kill_worker, [1, 2], workers=2)
    # the broken pool is discarded: the next call builds a fresh one
    assert 2 not in _POOLS
    assert pmap(_square, [1, 2], workers=2) == [1, 4]
