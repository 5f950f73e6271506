"""The incremental accounting rows against the frozen full-scan oracle.

The incremental metrics path (O(1) per event, bounded memory) replaced a
per-minute scan over every retained ``QueryRecord``. That scan
(``LegacyMetricsCollector`` behind ``DESConfig(metrics_mode="legacy")``)
was kept in ``src`` only as the oracle of this file and is deleted;
``tests/metrics/fixtures/minute_rows.json`` is its *output*: for each
config in ``CASES``, the rows the legacy collector published plus the
run's two whole-run success rates, floats by ``repr``. It was written at
commit ``a109d29`` (the last one with the collector) by running every
case under ``metrics_mode="legacy"`` and writing ``run.collector.minutes``
in the layout of :func:`dump`; the incremental rows of that same commit
passed this file against it before the collector was removed (and
re-dumping them reproduces the file byte for byte). Identical seeds give
identical event streams and accounting never perturbs the simulation it
measures, so the rows here must still equal the full scan's -- on plain
workloads, under churn plus an attack flood, and with injected message
loss under DD-POLICE.

The oracle is gone, so the fixture cannot be regenerated from it; after
an *intended* change of simulated behaviour, running this file as a
script re-bases it on the incremental rows::

    PYTHONPATH=src python tests/property/test_metrics_equivalence.py
"""

import json
from pathlib import Path

import pytest

from repro.churn.lifetimes import LifetimeConfig
from repro.churn.process import ChurnConfig
from repro.experiments.runner import DESConfig, run_des_experiment
from repro.faults.plan import FaultPlan
from repro.overlay.topology import TopologyConfig
from repro.workload.generator import WorkloadConfig

TOL = 1e-9
FIXTURE = Path(__file__).parents[1] / "metrics" / "fixtures" / "minute_rows.json"

_EXACT = (
    "minute",
    "messages",
    "bytes_transferred",
    "queries_issued",
    "queries_succeeded",
    "attack_queries_issued",
    "attack_queries_succeeded",
)
_FLOATS = ("time_s", "mean_response_time_s", "attack_mean_response_time_s")


def _config(seed: int, **overrides) -> DESConfig:
    base = dict(
        n=40,
        duration_s=360.0,
        seed=seed,
        topology=TopologyConfig(n=40, seed=seed),
        workload=WorkloadConfig(queries_per_minute=4.0, seed=seed),
    )
    base.update(overrides)
    return DESConfig(**base)


def _churn(seed: int, mean_on_s: float, mean_off_s: float) -> ChurnConfig:
    return ChurnConfig(
        lifetime=LifetimeConfig(family="exponential", mean_s=mean_on_s),
        offtime=LifetimeConfig(family="exponential", mean_s=mean_off_s),
        enabled=True,
        seed=seed,
    )


CASES = {
    **{f"plain-{seed}": _config(seed) for seed in (0, 7, 23)},
    **{
        f"churn-attack-{seed}": _config(
            seed,
            churn=_churn(seed, 180.0, 90.0),
            num_agents=3,
            attack_start_s=90.0,
            attack_rate_qpm=1_500.0,
        )
        for seed in (11, 42)
    },
    "faults-defense-5": _config(
        5,
        churn=_churn(5, 200.0, 100.0),
        num_agents=2,
        attack_start_s=60.0,
        attack_rate_qpm=1_000.0,
        defense="ddpolice",
        faults=FaultPlan.message_loss(0.02, start_s=30.0),
    ),
}


def _frozen(value):
    return repr(value) if isinstance(value, float) else value


def dump(run) -> dict:
    """The fixture entry of one finished run (floats by ``repr``)."""
    return {
        "rows": [
            {attr: _frozen(getattr(m, attr)) for attr in _EXACT + _FLOATS}
            for m in run.accounting.rows
        ],
        "success_rate": repr(run.success_rate),
        "success_rate_all_traffic": repr(run.success_rate_all_traffic),
    }


def _run_against_fixture(name: str):
    frozen = json.loads(FIXTURE.read_text())[name]
    run = run_des_experiment(CASES[name])
    rows = run.accounting.rows
    assert len(rows) == len(frozen["rows"]) > 0
    for i, (row, want) in enumerate(zip(rows, frozen["rows"])):
        for attr in _EXACT:
            assert getattr(row, attr) == want[attr], (i, attr)
        for attr in _FLOATS:
            x, y = getattr(row, attr), want[attr]
            if x is None or y is None:
                assert x is None and y is None, (i, attr)
            else:
                assert x == pytest.approx(float(y), abs=TOL), (i, attr)
    # whole-run summaries agree too
    assert run.success_rate == pytest.approx(float(frozen["success_rate"]), abs=TOL)
    assert run.success_rate_all_traffic == pytest.approx(
        float(frozen["success_rate_all_traffic"]), abs=TOL
    )
    return run


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_equivalence_plain_workload(seed):
    _run_against_fixture(f"plain-{seed}")


@pytest.mark.slow
@pytest.mark.parametrize("seed", [11, 42])
def test_equivalence_under_churn_and_attack(seed):
    run = _run_against_fixture(f"churn-attack-{seed}")
    # the scenario must actually exercise the attack class
    assert any(m.attack_queries_issued for m in run.accounting.rows)


@pytest.mark.slow
def test_equivalence_with_faults_and_defense():
    _run_against_fixture("faults-defense-5")


def test_incremental_memory_stays_bounded():
    run = run_des_experiment(_config(3, duration_s=240.0))
    assert run.accounting.live_window_count <= 2  # grace + 1
    # only queries from unfinalized windows remain live
    rolls = int(run.config.duration_s // 60.0)
    tail_start = (rolls - 1) * 60.0
    for rec in run.network.query_records.values():
        assert rec.issued_at >= tail_start - 60.0


if __name__ == "__main__":
    frozen = {name: dump(run_des_experiment(config)) for name, config in CASES.items()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(frozen, indent=1) + "\n")
