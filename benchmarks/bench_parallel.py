"""Parallel executor + fluid hot-path performance evidence.

Two measurements back the executor work:

1. **Sweep wall-clock, serial vs workers.** The registered ``fig12``
   spec at smoke scale (15 fluid cases) dispatched through
   :func:`repro.exec.pmap` at 1, 2 and 4 workers. The three runs must
   return *exactly* equal rows and tables -- determinism lives in the
   per-task seeds, so the schedule cannot leak into the numbers.
   Speedup is only asserted when the machine actually has >= 4 CPUs: on
   fewer cores process parallelism cannot beat serial (spawn + pickling
   overhead with zero extra compute), and the table records the honest
   numbers either way.

2. **Fluid hot-path, before vs after.** One paper-scale minute loop
   (n = 20,000, 100 agents) timed under :func:`legacy_hot_path` (the
   pre-optimization per-minute rebuild/mask-scan path) and under the
   cached edge-array + CSR-slice + vectorized-metrics path, asserting
   the rows stay bit-identical and throughput improves >= 1.4x.
"""

import os
import time

from benchmarks.conftest import publish
from repro.experiments.library import run_spec
from repro.experiments.reporting import render_table
from repro.fluid.model import FluidConfig, FluidSimulation, legacy_hot_path
from repro.obs.manifest import build_manifest

HOT_PATH_CFG = FluidConfig(
    n=20_000, seed=5, num_agents=100, attack_start_min=2, churn_warmup_min=3
)
HOT_PATH_MINUTES = 8


def _sweep(workers):
    return run_spec("fig12", scale="smoke", workers=workers, cache=False)


def _timed_run(cfg, minutes):
    sim = FluidSimulation(cfg)
    start = time.perf_counter()
    sim.run(minutes)
    return sim, time.perf_counter() - start


def test_parallel_sweep_and_hot_path(benchmark, results_dir):
    cores = os.cpu_count() or 1

    serial = benchmark.pedantic(lambda: _sweep(1), rounds=1, iterations=1)
    two, four = _sweep(2), _sweep(4)
    wall_1, wall_2, wall_4 = serial.duration_s, two.duration_s, four.duration_s
    # the executor's core contract: the schedule never leaks into results
    assert serial.data == two.data == four.data
    assert serial.tables == two.tables == four.tables

    fast_sim, fast_s = _timed_run(HOT_PATH_CFG, HOT_PATH_MINUTES)
    with legacy_hot_path():
        legacy_sim, legacy_s = _timed_run(HOT_PATH_CFG, HOT_PATH_MINUTES)
    assert fast_sim.rows == legacy_sim.rows
    hot_speedup = legacy_s / fast_s
    assert hot_speedup >= 1.4, f"hot-path speedup only {hot_speedup:.2f}x"

    sweep_table = render_table(
        ["workers", "wall (s)", "speedup", "results"],
        [
            [1, round(wall_1, 2), "1.00x", "reference"],
            [2, round(wall_2, 2), f"{wall_1 / wall_2:.2f}x", "identical"],
            [4, round(wall_4, 2), f"{wall_1 / wall_4:.2f}x", "identical"],
        ],
        title=(
            f"parallel sweep: fig12 at smoke scale, {serial.cases} cases "
            f"on {cores} CPU core(s)"
        ),
    )
    hot_table = render_table(
        ["hot path", "wall (s)", "min/s", "speedup"],
        [
            ["legacy", round(legacy_s, 2),
             round(HOT_PATH_MINUTES / legacy_s, 2), "1.00x"],
            ["cached+vectorized", round(fast_s, 2),
             round(HOT_PATH_MINUTES / fast_s, 2), f"{hot_speedup:.2f}x"],
        ],
        title=(
            f"fluid minute loop: n={HOT_PATH_CFG.n:,}, "
            f"{HOT_PATH_CFG.num_agents} agents, {HOT_PATH_MINUTES} minutes"
        ),
    )
    note = (
        f"host: {cores} CPU core(s). Worker speedup requires real cores; "
        "on a single-core host the spawn/pickling overhead makes the "
        "parallel path slower, while results stay bit-identical (asserted "
        "above). Rows of the legacy and optimized fluid paths are "
        "bit-identical (asserted above)."
    )
    manifest = build_manifest(
        kind="bench-parallel",
        config={
            "sweep_spec": serial.spec,
            "hot_path_cfg": HOT_PATH_CFG,
            "hot_path_minutes": HOT_PATH_MINUTES,
        },
        seed=serial.spec.seed,
        seed_derivation=["trial", "<t>"],
        workers=4,
        tasks=serial.cases,
        duration_s=wall_1 + wall_2 + wall_4 + fast_s + legacy_s,
        extra={"cores": cores, "hot_speedup": round(hot_speedup, 3)},
    )
    publish(
        results_dir,
        "parallel",
        sweep_table + "\n\n" + hot_table + "\n\n" + note,
        manifest=manifest,
    )

    if cores >= 4:
        assert wall_4 < wall_1 / 2.5, (
            f"4-worker speedup only {wall_1 / wall_4:.2f}x on {cores} cores"
        )
