"""Parallel executor performance evidence.

**Sweep wall-clock, serial vs workers.** The registered ``fig12`` spec at
smoke scale (15 fluid cases) dispatched through :func:`repro.exec.pmap`
at 1, 2 and 4 workers. The three runs must return *exactly* equal rows
and tables -- determinism lives in the per-task seeds, so the schedule
cannot leak into the numbers. Speedup is only asserted when the machine
actually has >= 4 CPUs: on fewer cores process parallelism cannot beat
serial (spawn + pickling overhead with zero extra compute), and the
table records the honest numbers either way.

The fluid minute loop itself is measured by the benchmark harness
(``python3 -m perfbench run --workload fluid_cli_fig9_fig12``; see
docs/PERF.md, "The fluid hot path"), not here.
"""

import os

from benchmarks.conftest import publish
from repro.experiments.library import run_spec
from repro.experiments.reporting import render_table
from repro.obs.manifest import build_manifest


def _sweep(workers):
    return run_spec("fig12", scale="smoke", workers=workers, cache=False)


def test_parallel_sweep(benchmark, results_dir):
    cores = os.cpu_count() or 1

    serial = benchmark.pedantic(lambda: _sweep(1), rounds=1, iterations=1)
    two, four = _sweep(2), _sweep(4)
    wall_1, wall_2, wall_4 = serial.duration_s, two.duration_s, four.duration_s
    # the executor's core contract: the schedule never leaks into results
    assert serial.data == two.data == four.data
    assert serial.tables == two.tables == four.tables

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
    note = (
        f"host: {cores} CPU core(s). Worker speedup requires spare cores and "
        "tasks long enough to amortise spawn + pickling; without them the "
        "parallel path is slower, while results stay bit-identical "
        "(asserted above)."
    )
    manifest = build_manifest(
        kind="bench-parallel",
        config={"sweep_spec": serial.spec},
        seed=serial.spec.seed,
        seed_derivation=["trial", "<t>"],
        workers=4,
        tasks=serial.cases,
        duration_s=wall_1 + wall_2 + wall_4,
        extra={"cores": cores},
    )
    publish(
        results_dir,
        "parallel",
        sweep_table + "\n\n" + note,
        manifest=manifest,
    )

    if cores >= 4:
        assert wall_4 < wall_1 / 2.5, (
            f"4-worker speedup only {wall_1 / wall_4:.2f}x on {cores} cores"
        )
