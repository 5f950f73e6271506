"""Paper-size and host-time gates of the message-level engines and pmap.

Every test here carries the ``paper_scale`` marker, which the default
run deselects; select them with ``pytest -m paper_scale``. Host time is
perfbench's to measure and publish (``python3 -m perfbench run``): these
gates only hold the claims that a paper-size run completes with bounded
memory and that the batched engine keeps its lead, on whatever host runs
them. Each engine run happens in a fresh spawn child, so one run's heap
never inflates the next one's.

The message-level runs are workload floods (0.3 queries/min per peer, no
agents) on BA overlays, except the n=500,000 run, which is the fig9
attack: BA m=1, the smallest paper agent density (250 agents at 2,000
queries/min each) and one full attacked minute.
"""

import multiprocessing
import os
import time

import pytest

from repro.experiments.runner import DESConfig
from repro.overlay.network import NetworkConfig
from repro.overlay.topology import TopologyConfig
from repro.workload.generator import WorkloadConfig

pytestmark = pytest.mark.paper_scale

SEED = 29


def des_run(n: int, duration_s: float, ttl: int) -> dict:
    """One workload-only message DES run: events/s and what it retains.

    TTL is below the protocol default of 7 to keep flood sizes
    tractable at paper scale; the measured quantity is engine + metrics
    overhead per delivered event, which TTL does not change.
    """
    from repro.experiments.runner import run_des_experiment

    cfg = DESConfig(
        n=n,
        duration_s=duration_s,
        seed=SEED,
        topology=TopologyConfig(n=n, seed=SEED),
        network=NetworkConfig(default_ttl=ttl),
        workload=WorkloadConfig(queries_per_minute=0.3, seed=SEED),
    )
    start = time.perf_counter()
    run = run_des_experiment(cfg)
    wall_s = time.perf_counter() - start
    return {
        "events": run.sim.events_fired,
        "events_per_s": run.sim.events_fired / wall_s,
        "live_records": len(run.network.query_records),
        "issued": run.network.accounting.totals("all").issued,
        "live_windows": run.network.accounting.live_window_count,
    }


def soa_run(
    n: int,
    duration_s: float,
    ttl: int,
    *,
    num_agents: int = 0,
    attack_start_s: float = 0.0,
    ba_m: int = 3,
) -> dict:
    """One des-soa run; events = deliveries + sparse heap events.

    The soa engine fires one heap event per wave, so ``events_fired`` is
    not comparable to the message DES; delivered messages are the common
    unit (the message DES fires one event per delivery).
    """
    from repro.overlay.soa_network import run_soa_experiment

    cfg = DESConfig(
        n=n,
        duration_s=duration_s,
        seed=SEED,
        topology=TopologyConfig(n=n, seed=SEED, ba_m=ba_m),
        network=NetworkConfig(default_ttl=ttl, hop_latency_jitter_s=0.0),
        workload=WorkloadConfig(queries_per_minute=0.3, seed=SEED),
        num_agents=num_agents,
        attack_start_s=attack_start_s,
        attack_rate_qpm=2_000.0,
    )
    run = run_soa_experiment(cfg)
    events = run.stats.messages_delivered + run.heap_events
    return {
        "agents": num_agents,
        "events": events,
        "events_per_s": events / run.wall_s,
        "waves": run.waves_processed,
        "attack_issued": run.accounting.totals("attack").issued,
        "attacked_sim_s": max(0.0, duration_s - attack_start_s) if num_agents else 0.0,
        "live_windows": run.accounting.live_window_count,
    }


def isolated(fn, *args, **kwargs):
    """Run one engine run in a fresh spawn child."""
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        return pool.apply(fn, args, kwargs)


def test_des_bounded_memory_at_paper_scale():
    """The paper's 20,000-peer network runs in the message DES with
    bounded metrics memory: never more than grace + 1 unfinalized windows."""
    big = isolated(des_run, 20_000, 60.0, 2)
    assert big["events"] > 100_000  # the run actually simulated traffic
    assert big["events_per_s"] > 1_000  # loose floor; hosts vary
    assert big["live_windows"] <= 2


def test_des_retires_settled_records():
    """A two-minute run at n=2,000 sees record retirement: settled
    window-1 records are gone, so the live table holds well under the
    full issued count."""
    small = isolated(des_run, 2_000, 120.0, 3)
    assert small["live_windows"] <= 2
    assert small["live_records"] < 0.75 * small["issued"]


def test_soa_smoke_at_paper_scale():
    """The batched engine runs a 20,000-peer flood."""
    run = isolated(soa_run, 20_000, 30.0, 2)
    assert run["events"] > 50_000
    assert run["live_windows"] <= 2
    assert run["waves"] > 0


def test_soa_speedup_vs_message_des():
    """>= 10x events/s over the message DES at n=20,000, TTL 3: same
    population, topology seed and workload; only the engine differs."""
    msg = isolated(des_run, 20_000, 20.0, 3)
    soa = isolated(soa_run, 20_000, 60.0, 3)
    speedup = soa["events_per_s"] / msg["events_per_s"]
    assert speedup >= 10.0, (
        f"soa {soa['events_per_s']:,.0f} ev/s vs "
        f"message {msg['events_per_s']:,.0f} ev/s = {speedup:.1f}x"
    )


def test_soa_attacked_minute_at_half_million():
    """>= 1 simulated attacked minute of the fig9 attack at n=500,000."""
    run = isolated(
        soa_run, 500_000, 125.0, 3, num_agents=250, attack_start_s=60.0, ba_m=1
    )
    assert run["agents"] >= 250  # the smallest paper density at 500k
    assert run["attacked_sim_s"] >= 60.0
    assert run["attack_issued"] > 0  # the agents actually flooded
    assert run["events"] > 10_000_000


def test_pmap_speedup_on_four_cores():
    """fig12 at smoke scale (15 fluid cases) at 1, 2 and 4 workers returns
    exactly equal rows and tables; with >= 4 cores, 4 workers also beat
    serial by 2.5x. On fewer cores spawn + pickling cannot pay off, so
    only the determinism half is checked."""
    from repro.experiments.library import run_spec

    runs = [
        run_spec("fig12", scale="smoke", workers=w, cache=False) for w in (1, 2, 4)
    ]
    serial, two, four = runs
    assert serial.data == two.data == four.data
    assert serial.tables == two.tables == four.tables
    cores = os.cpu_count() or 1
    if cores >= 4:
        assert four.duration_s < serial.duration_s / 2.5, (
            f"4-worker speedup only {serial.duration_s / four.duration_s:.2f}x "
            f"on {cores} cores"
        )
