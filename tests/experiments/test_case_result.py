"""The one ``Case -> CaseResult`` reduction and the contract it gives
every backend.

``case_result`` is the only producer of a :class:`CaseResult`, so fluid,
des and des-soa report fn/fp, the caught count and the censored
detection latency with the same meaning. The contract test reads each
engine's own judgment log next to what ``run_cases`` reported.
"""

import pytest

from repro.core.config import DDPoliceConfig
from repro.errors import MetricsError
from repro.experiments.spec import (
    Case,
    WorkloadSpec,
    _des_config,
    _fluid_config,
    case_result,
    first_cuts,
    run_cases,
)


def test_case_result_empty_window_raises_metrics_error():
    case = Case(n=60, minutes=3, seed=1, num_agents=2, defense="ddpolice", settle_min=5)
    minutes = [(m, 1.0, 0.5, 0.9) for m in (1, 2, 3)]
    with pytest.raises(MetricsError) as err:
        case_result(case, minutes, {}, {7, 9})
    message = str(err.value)
    assert "case-1-k2-ddpolice" in message  # seed, agents, defense
    assert "[1, 2, 3]" in message and "5..3" in message
    with pytest.raises(MetricsError, match="none in the steady-state window"):
        case_result(case, [], {}, set())


def test_case_result_reduces_minutes_and_cuts():
    case = Case(n=60, minutes=4, seed=1, num_agents=2, attack_start_min=1,
                defense="ddpolice", settle_min=2)
    minutes = [(1, 1.0, 0.5, 1.0), (2, 2.0, 0.5, 0.5), (3, 4.0, None, 0.0),
               (4, 6.0, 1.5, 1.0), (5, 99.0, 99.0, 99.0)]
    # Good peer 3 and attacker 9 cut (9 twice: the earliest counts);
    # attacker 7 never cut.
    cuts = first_cuts([(3, 70.0), (9, 200.0), (9, 150.0)])
    assert cuts == {3: 70.0, 9: 150.0}
    result = case_result(case, minutes, cuts, {9, 7})
    assert result.rows == tuple((m[0], m[3]) for m in minutes)
    # Window 2..4: minute 5 lies past the run, minute 3 has no response.
    assert result.steady == (4.0, 1.0, 0.5)
    assert (result.false_negative, result.false_positive) == (1, 1)
    assert (result.caught_attackers, result.total_attackers) == (1, 2)
    assert result.detection_latency_s == (180.0 + 90.0) / 2  # 7 censored


# ---------------------------------------------------------------------------
# the cross-backend contract
# ---------------------------------------------------------------------------

def _engine_run(backend, case):
    """(judgment log, attackers, seconds per log time unit) of one run."""
    if backend == "fluid":
        from repro.fluid.model import FluidSimulation

        sim = FluidSimulation(_fluid_config(case))
        sim.run(case.minutes)
        return sim.judgments, sim.bad_peers, 60.0  # judged in minutes
    if backend == "des":
        from repro.experiments.runner import run_des_experiment

        run = run_des_experiment(_des_config(case))
    else:
        from repro.overlay.soa_network import run_soa_experiment

        run = run_soa_experiment(_des_config(case, hop_latency_jitter_s=0.0))
    return run.judgments, run.bad_peers, 1.0


def _tiny_case(defense):
    return Case(
        n=40,
        minutes=5,
        seed=3,
        num_agents=2,
        attack_start_min=1,
        defense=defense,
        settle_min=2,
        ba_m=1,
        # 60 s: the shortest exchange period the minute-stepped fluid
        # model runs, so the one case runs on all three backends.
        police=DDPoliceConfig(exchange_period_s=60.0, q_threshold_qpm=10.0),
        workload=WorkloadSpec(
            queries_per_minute=3.0, attack_rate_qpm=1000.0, capacity_qpm=400.0
        ),
    )


@pytest.mark.parametrize("backend", ["fluid", "des", "des-soa"])
def test_backends_report_one_contract(backend):
    undefended, defended = run_cases(
        [_tiny_case("none"), _tiny_case("ddpolice")], backend=backend, workers=1
    )
    # No defense, no judgments: nothing is caught and nothing misjudged;
    # every attacker evades for the whole attack span.
    assert (
        undefended.false_negative,
        undefended.false_positive,
        undefended.caught_attackers,
    ) == (0, 0, 0)
    assert undefended.total_attackers == 2
    assert undefended.detection_latency_s == 4 * 60.0

    case = _tiny_case("ddpolice")
    log, bad, unit = _engine_run(backend, case)
    errors = log.error_counts(set(bad))
    assert (defended.false_negative, defended.false_positive) == (
        errors.false_negative,
        errors.false_positive,
    )
    start = case.attack_start_min * 60.0
    censored = case.minutes * 60.0 - start
    samples = []
    for b in sorted(bad, key=int):
        t = log.first_disconnect_time(b)
        samples.append(censored if t is None else max(0.0, t * unit - start))
    assert defended.detection_latency_s == sum(samples) / len(samples)
    assert defended.caught_attackers == len(log.disconnected_suspects() & set(bad))
