"""Section 3.6 scale claim + engine throughput.

"in a real-world P2P system that usually has about 2 million peers
online at any time, less than one thousand DDoS compromised peers could
stress the system greatly" -- i.e. the damage depends on the agent
*density*, not the absolute count. This bench shows damage at a fixed
0.5% density is roughly scale-invariant across network sizes, which is
what licenses the extrapolation, and measures engine throughput growth.

It also sweeps engine x population for the two message-level backends:
the per-event DES (``message``) and the batched struct-of-arrays engine
(``soa``, registered as backend ``des-soa``). Rows report events/sec and
peak RSS. The N=20,000 message run doubles as the CI smoke gate; the
N=500,000 soa row runs the fig9 attack scenario (BA m=1 topology, the
smallest paper agent density, 2,000 qpm per agent) for a full simulated
attacked minute in one process. Select one engine with ``--engine``.
"""

import multiprocessing
import resource
import time
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest

from benchmarks.conftest import publish
from repro.experiments.reporting import render_table
from repro.obs.manifest import build_manifest
from repro.experiments.runner import DESConfig, run_des_experiment
from repro.fluid.model import FluidConfig, FluidSimulation
from repro.metrics.damage import damage_rate
from repro.overlay.network import NetworkConfig
from repro.overlay.soa_network import run_soa_experiment
from repro.overlay.topology import TopologyConfig
from repro.workload.generator import WorkloadConfig


def damage_at_scale(n: int, density: float = 0.005, seed: int = 29) -> float:
    agents = max(1, round(density * n))
    base = FluidConfig(n=n, seed=seed, attack_start_min=4)
    clean = FluidSimulation(base)
    clean.run(12)
    attacked = FluidSimulation(replace(base, num_agents=agents))
    attacked.run(12)
    s0 = np.mean([r.success_rate for r in clean.rows[-6:]])
    s1 = np.mean([r.success_rate for r in attacked.rows[-6:]])
    return damage_rate(float(s0), float(min(s1, s0)))


def des_throughput(n: int, duration_s: float, ttl: int, seed: int = 29) -> dict:
    """One workload-only DES run; wall-clock throughput + peak RSS.

    TTL is reduced below the protocol default of 7 to keep flood sizes
    tractable at paper scale -- the measured quantity is engine + metrics
    overhead per delivered event, which TTL does not change.
    """
    cfg = DESConfig(
        n=n,
        duration_s=duration_s,
        seed=seed,
        topology=TopologyConfig(n=n, seed=seed),
        network=NetworkConfig(default_ttl=ttl),
        workload=WorkloadConfig(queries_per_minute=0.3, seed=seed),
    )
    start = time.perf_counter()
    run = run_des_experiment(cfg)
    wall_s = time.perf_counter() - start
    # ru_maxrss is KB on Linux; good enough cross-run resolution without
    # a third-party dependency
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "engine": "message",
        "n": n,
        "agents": 0,
        "ttl": ttl,
        "sim_s": duration_s,
        "events": run.sim.events_fired,
        "wall_s": wall_s,
        "events_per_s": run.sim.events_fired / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "live_records": len(run.network.query_records),
        "issued": run.network.accounting.totals("all").issued,
        "live_windows": run.network.accounting.live_window_count,
    }


def soa_throughput(
    n: int,
    duration_s: float,
    ttl: int,
    seed: int = 29,
    *,
    num_agents: int = 0,
    attack_start_s: float = 0.0,
    attack_rate_qpm: float = 2_000.0,
    ba_m: Optional[int] = None,
) -> dict:
    """One batched-SoA run; events = deliveries + sparse heap events.

    The SoA engine fires one heap event per wave, so ``sim.events_fired``
    is not comparable to the message DES; delivered messages are the
    common unit (the message DES fires one event per delivery).
    """
    topo = (
        TopologyConfig(n=n, seed=seed)
        if ba_m is None
        else TopologyConfig(n=n, seed=seed, ba_m=ba_m)
    )
    cfg = DESConfig(
        n=n,
        duration_s=duration_s,
        seed=seed,
        topology=topo,
        network=NetworkConfig(default_ttl=ttl, hop_latency_jitter_s=0.0),
        workload=WorkloadConfig(queries_per_minute=0.3, seed=seed),
        num_agents=num_agents,
        attack_start_s=attack_start_s,
        attack_rate_qpm=attack_rate_qpm,
    )
    run = run_soa_experiment(cfg)
    events = run.stats.messages_delivered + run.heap_events
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "engine": "soa",
        "n": n,
        "agents": num_agents,
        "ttl": ttl,
        "sim_s": duration_s,
        "events": events,
        "wall_s": run.wall_s,
        "events_per_s": events / run.wall_s,
        "peak_rss_mb": peak_rss_mb,
        "waves": run.waves_processed,
        "attack_issued": run.accounting.totals("attack").issued,
        "attacked_sim_s": (
            max(0.0, duration_s - attack_start_s) if num_agents else 0.0
        ),
        "live_windows": run.accounting.live_window_count,
    }


#: engine sweep per scale: (n, sim_s, ttl, extra soa kwargs). The bench
#: rows are the committed results/scaling.txt numbers; smoke keeps CI
#: fast. Each row runs in its own spawn child (see ``_isolated``) so
#: its peak-RSS figure is per-row truth.
_FIG9_500K = dict(num_agents=250, attack_start_s=60.0, ba_m=1)
ENGINE_SWEEP = {
    "bench": {
        # 2,000 peers for two+ minute-rolls (shows record retirement
        # kicking in), the paper's 20,000-peer size as the smoke run,
        # then a short ttl=3 anchor for the like-for-like soa speedup
        "message": [
            (2_000, 120.0, 3, {}),
            (20_000, 60.0, 2, {}),
            (20_000, 20.0, 3, {}),
        ],
        # same 2k/20k configs, then scale the message DES cannot reach:
        # 100k workload flood and the 500k fig9 attack (smallest paper
        # density 0.05% -> 250 agents at 2,000 qpm, one attacked minute)
        "soa": [
            (2_000, 120.0, 3, {}),
            (20_000, 60.0, 3, {}),
            (100_000, 60.0, 3, {}),
            (500_000, 125.0, 3, _FIG9_500K),
        ],
    },
    "smoke": {
        "message": [(1_000, 30.0, 3, {})],
        "soa": [
            (1_000, 30.0, 3, {}),
            (20_000, 30.0, 2, {}),
        ],
    },
}
ENGINE_SWEEP["paper"] = ENGINE_SWEEP["bench"]


def _isolated(fn, *args, **kwargs):
    """Run one throughput row in a fresh spawn child.

    ``ru_maxrss`` is a process-lifetime high-water mark, so rows run
    in-process would each report the max of every *earlier* row too;
    a child process makes the peak-RSS column per-row truth.
    """
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        return pool.apply(fn, args, kwargs)


@pytest.fixture(scope="module")
def scaling_rows():
    return [[n, round(damage_at_scale(n), 1)] for n in (500, 1000, 2000, 4000)]


@pytest.fixture(scope="module")
def des_rows(engine_filter, scale):
    if engine_filter == "soa":
        return []
    return [
        _isolated(des_throughput, n, duration_s=sim_s, ttl=ttl)
        for n, sim_s, ttl, _ in ENGINE_SWEEP[scale.name]["message"]
    ]


@pytest.fixture(scope="module")
def soa_rows(engine_filter, scale):
    if engine_filter == "message":
        return []
    return [
        _isolated(soa_throughput, n, duration_s=sim_s, ttl=ttl, **extra)
        for n, sim_s, ttl, extra in ENGINE_SWEEP[scale.name]["soa"]
    ]


def _engine_table(rows) -> str:
    return render_table(
        [
            "engine",
            "peers",
            "agents",
            "ttl",
            "sim s",
            "events",
            "events/s",
            "peak RSS MB",
        ],
        [
            [
                r["engine"],
                r["n"],
                r["agents"],
                r["ttl"],
                int(r["sim_s"]),
                r["events"],
                f"{r['events_per_s']:,.0f}",
                round(r["peak_rss_mb"]),
            ]
            for r in rows
        ],
        title=(
            "Engine throughput: per-event message DES vs batched SoA "
            "(workload flood; the 500k soa row is the fig9 attack)"
        ),
    )


def test_scaling_table(results_dir, scaling_rows, des_rows, soa_rows):
    engine_rows = des_rows + soa_rows
    text = render_table(
        ["peers", "damage at 0.5% agents (%)"],
        scaling_rows,
        title="Section 3.6: damage vs network size at fixed agent density",
    )
    manifest = build_manifest(
        kind="bench-scaling",
        config={
            "density": 0.005,
            "fluid_sizes": [500, 1000, 2000, 4000],
            "fluid_minutes": 12,
            "engine_runs": [
                {
                    "engine": r["engine"],
                    "n": r["n"],
                    "agents": r["agents"],
                    "ttl": r["ttl"],
                    "sim_s": r["sim_s"],
                }
                for r in engine_rows
            ],
        },
        seed=29,
        tasks=len(scaling_rows) + len(engine_rows),
        duration_s=sum(r["wall_s"] for r in engine_rows),
        counters={
            f"{r['engine']}.events_n{r['n']}_ttl{r['ttl']}": r["events"]
            for r in engine_rows
        },
    )
    body = text + "\n" + _engine_table(engine_rows)
    publish(results_dir, "scaling", body, manifest=manifest)


def test_des_paper_scale_smoke(des_rows):
    """CI gate: the paper's 20,000-peer network runs in the DES."""
    if not des_rows:
        pytest.skip("message engine deselected via --engine")
    big = next((r for r in des_rows if r["n"] == 20_000 and r["ttl"] == 2), None)
    if big is None:
        pytest.skip("paper-scale message row not in this scale's sweep")
    small = des_rows[0]
    assert big["events"] > 100_000  # the run actually simulated traffic
    assert big["events_per_s"] > 1_000  # loose floor; CI machines vary
    # bounded-memory claim: never more than grace+1 unfinalized windows
    assert big["live_windows"] <= 2
    assert small["live_windows"] <= 2
    # the 2-minute run saw retirement: settled window-1 records are gone,
    # so the live table holds well under the full issued count
    assert small["live_records"] < 0.75 * small["issued"]


def test_soa_speedup_vs_message_des(des_rows, soa_rows):
    """Acceptance gate: >= 10x events/s over the message DES at n=20,000.

    Compared like for like -- same population, topology seed, workload,
    and TTL; only the engine differs.
    """
    msg = next((r for r in des_rows if r["n"] == 20_000 and r["ttl"] == 3), None)
    soa = next((r for r in soa_rows if r["n"] == 20_000 and r["ttl"] == 3), None)
    if msg is None or soa is None:
        pytest.skip("20k ttl=3 anchor rows not in this sweep (scale/--engine)")
    speedup = soa["events_per_s"] / msg["events_per_s"]
    assert speedup >= 10.0, (
        f"soa {soa['events_per_s']:,.0f} ev/s vs "
        f"message {msg['events_per_s']:,.0f} ev/s = {speedup:.1f}x"
    )


def test_soa_smoke(soa_rows):
    """The batched engine runs a 20,000-peer flood in any CI lane."""
    if not soa_rows:
        pytest.skip("soa engine deselected via --engine")
    big = max(soa_rows, key=lambda r: r["n"])
    assert big["n"] >= 20_000
    assert big["events"] > 50_000
    assert big["live_windows"] <= 2
    assert big["waves"] > 0


def test_soa_fig9_attack_at_half_million(soa_rows):
    """Acceptance gate: >= 1 simulated attacked minute at n >= 500,000."""
    big = next((r for r in soa_rows if r["n"] >= 500_000), None)
    if big is None:
        pytest.skip("500k fig9 row not in this sweep (scale/--engine)")
    assert big["agents"] >= 250  # the smallest paper density at 500k
    assert big["attacked_sim_s"] >= 60.0
    assert big["attack_issued"] > 0  # the agents actually flooded
    assert big["events"] > 10_000_000


def test_damage_density_roughly_scale_invariant(scaling_rows):
    damages = [d for _, d in scaling_rows]
    assert all(d > 10 for d in damages), damages
    # no systematic vanishing with scale: the largest network still takes
    # at least half the damage of the smallest
    assert damages[-1] > 0.4 * damages[0]


def test_bench_minute_cost_by_scale(benchmark):
    """Throughput anchor: one simulated minute at n=4000."""
    sim = FluidSimulation(FluidConfig(n=4000, num_agents=20, seed=29))
    sim.run(2)
    benchmark(sim.step)
