"""Cross-backend validation: the live UDP testbed agrees with the DES.

The message-level DES is the repo's ground-truth oracle; the ``live``
backend replays the same registered agent-sweep scenario over real
loopback sockets and OS processes. Running one spec through both must
reproduce the paper's qualitative Figure 9-11 claims on each: the
attack inflates traffic and depresses the success rate, and DD-POLICE
cuts the flooder and restores the success rate toward its no-attack
level.

The spec exercises the documented live scale adaptation: the abstract
scenario runs n=100 peers, the swarm caps at the ``LiveSpec`` size
(10 processes) with the agent count scaled to keep attack density.
Workload rates keep the no-attack regime under the per-peer capacity
on the DES side (flooding delivers every query to every peer, so 3
qpm x 100 peers ~ 300 qpm incoming) while the 2000-qpm flooder
saturates its neighborhood on both backends.

The live swarm measures real wall-clock behaviour, so its numbers are
nondeterministic run to run and load-sensitive. Measured
``success_defended - success_attack`` per swarm, all on a 2-core Intel
Xeon @ 2.10 GHz VM (Linux 6.18, Python 3.11):

* idle, for ISSUE 17: 0.322, 0.257, 0.248, 0.388, 0.250;
* idle, while writing this test: 0.112, 0.317, 0.239, 0.239, 0.225;
* under load, at the PR 15 re-anchor: 0.055, 0.081, 0.066, -0.011.

So one swarm against the DES's 0.1 margin fails whenever the host is
busy. The ``live`` parameter therefore runs ``LIVE_SWARMS`` swarms, takes
every success-rate and traffic comparison from the per-field *median*,
asks of the recovery only its direction, and adds the structural outcome
the shared-t=0 barrier makes stable in every single swarm: the flooder is
cut, so defended traffic stays below attacked traffic (same ten swarms
while writing: 0.55-0.56 against 4.57-4.69 thousand messages/min).
"""

import statistics

import pytest

from repro.core.config import DDPoliceConfig
from repro.experiments.library import run_spec
from repro.experiments.scenarios import Scale
from repro.experiments.spec import ExperimentSpec, GridSpec, WorkloadSpec
from repro.live.spec import LiveSpec


def _spec(backend: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"live-xback-{backend}",
        scenario="agent-sweep",
        backend=backend,
        seed=7,
        scale=Scale(
            name="xlive", n_peers=100, sim_minutes=8, attack_start_min=1
        ),
        police=DDPoliceConfig(exchange_period_s=30.0, q_threshold_qpm=10.0),
        workload=WorkloadSpec(
            queries_per_minute=3.0,
            attack_rate_qpm=2000.0,
            capacity_qpm=400.0,
            cheat_strategy="honest",
        ),
        grid=GridSpec(agent_counts=(1,)),
        live=LiveSpec(name="xback", n_nodes=10, minute_s=0.5),
    )


#: Swarms behind each live comparison (the DES is deterministic: one run).
LIVE_SWARMS = 3
#: Required ``success_defended - success_attack``: a margin on the exact
#: DES, the direction only on wall-clock swarms (numbers in the docstring).
RECOVERY_MARGIN = {"des": 0.1, "live": 0.0}


@pytest.fixture(scope="module", params=["des", "live"])
def rows(request):
    # The live backend spawns a 10-process swarm per case; one worker
    # keeps the swarms sequential so they never fight for ports or CPU
    # (which would distort the wall-clock minute windows).
    live = request.param == "live"
    runs = [
        run_spec(_spec(request.param), workers=1 if live else 4, cache=False)
        for _ in range(LIVE_SWARMS if live else 1)
    ]
    assert all(run.cases == 3 for run in runs)
    return request.param, [run.data[0] for run in runs]


def _median(rows, field):
    return statistics.median(getattr(row, field) for row in rows)


@pytest.mark.slow
def test_attack_raises_traffic_cost(rows):
    _, rows = rows
    assert _median(rows, "traffic_attack_k") > 1.2 * _median(rows, "traffic_no_ddos_k"), rows


@pytest.mark.slow
def test_attack_depresses_success_rate(rows):
    _, rows = rows
    assert _median(rows, "success_attack") < _median(rows, "success_no_ddos") - 0.1, rows


@pytest.mark.slow
def test_ddpolice_recovers_success_rate(rows):
    backend, rows = rows
    defended = _median(rows, "success_defended")
    assert defended > _median(rows, "success_attack") + RECOVERY_MARGIN[backend], rows
    assert defended > _median(rows, "success_no_ddos") - 0.25, rows
    if backend == "live":  # the DES column also counts the control plane
        for row in rows:
            assert row.traffic_defended_k < row.traffic_attack_k, row
