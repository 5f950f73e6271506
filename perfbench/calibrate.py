"""A fixed piece of work that tells how fast the host is right now.

This shared host changes speed by 30-40% for minutes at a time (the same
``des_attack_police_500`` unit read 3.35 s, then 4.6 s, then 3.35 s again
within four minutes of one session), which no median inside a 22-second
run can see past. So every unit times this loop just before and just after
its workload, and its host-time metrics are scaled by ``REFERENCE_S`` over
that reading: they read as seconds on a host that runs the loop in
``REFERENCE_S``. The raw seconds and the factor stay in the ledger.

The loop is a bit under one third interpreter work (a heap of tuples and
a dict of counters, the message DES's diet) and the rest numpy work on a
hundred thousand int64 (unique, stable argsort, scatter-add: the soa
engine's diet). Over 250 units measured beside separate readings of the
two parts, a mix between one fifth and two fifths interpreter left the
least spread on all four workloads; a mostly-interpreter loop
over-corrects ``soa_attack_police_20k``, whose time is numpy call
overhead. The loop belongs to the benchmark, so a change to the program
cannot move it.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

import numpy as np

#: What one reading took on the host this benchmark was written on, at
#: its calm speed; it only fixes the unit of the scaled metrics.
REFERENCE_S = 0.058


def _loop() -> None:
    heap: list = []
    seen: dict = {}
    x = 12345
    for i in range(20_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(heap, (x, i))
        seen[x & 1023] = seen.get(x & 1023, 0) + 1
        if i & 1:
            heappop(heap)
    # small enough never to be the child's peak RSS
    keys = (np.arange(100_000, dtype=np.int64) * 2654435761) % 65_521
    for _ in range(6):
        np.unique(keys, return_index=True)
        order = np.argsort(keys, kind="stable")
        counts = np.zeros(65_521, dtype=np.int64)
        np.add.at(counts, keys[order[:50_000]], 1)


def reading() -> float:
    """Host seconds for the loop: the best of three, so a blip shorter
    than the reading does not pass for the host's speed."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - started)
    return best
