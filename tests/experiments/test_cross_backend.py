"""Cross-backend smoke: the fluid and DES engines agree directionally.

The paper's figures run on the fluid model; the message-level DES is
the ground-truth oracle at small N. Running the *same* registered
agent-sweep scenario through both backends at n=400 must reproduce the
paper's qualitative claims on each: the attack inflates traffic cost
and depresses the success rate, and DD-POLICE restores the success rate
to near its no-attack level.

Rates are scaled for the message-level run (the DESConfig convention:
keep ratios, not absolutes): agents send 600 qpm -- above the paper's
500 qpm warning threshold so detection fires -- and ``capacity_qpm``
is lowered so that the flood saturates peer processing at this scale
exactly as the paper's 20,000 qpm nominal attack saturates the
Section 2.3 capacity anchors at full scale.
"""

import pytest

from repro.experiments.library import run_spec
from repro.experiments.scenarios import Scale
from repro.experiments.spec import ExperimentSpec, GridSpec, WorkloadSpec


def _spec(backend: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"cross-backend-{backend}",
        scenario="agent-sweep",
        backend=backend,
        seed=5,
        scale=Scale(
            name="xback", n_peers=400, sim_minutes=6, attack_start_min=1
        ),
        workload=WorkloadSpec(
            queries_per_minute=0.3,
            attack_rate_qpm=600.0,
            capacity_qpm=400.0,
            cheat_strategy="honest",
        ),
        grid=GridSpec(agent_counts=(1,)),
    )


@pytest.fixture(scope="module", params=["fluid", "des"])
def row(request):
    run = run_spec(_spec(request.param), workers=4, cache=False)
    assert run.cases == 3
    return run.data[0]


def test_attack_raises_traffic_cost(row):
    assert row.traffic_attack_k > 1.5 * row.traffic_no_ddos_k, row


def test_attack_depresses_success_rate(row):
    assert row.success_attack < row.success_no_ddos - 0.04, row


def test_ddpolice_recovers_success_rate(row):
    assert row.success_defended > row.success_attack + 0.04, row
    assert row.success_defended > row.success_no_ddos - 0.03, row
