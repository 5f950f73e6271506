"""Tests for multi-trial aggregation in the timeline scenarios."""

from repro.experiments.library import run_spec
from repro.experiments.scenarios import SCALES


def rows(name, seed, trials, cut_thresholds=(5.0,)):
    return run_spec(
        name,
        scale="smoke",
        overrides={
            "seed": seed,
            "trials": trials,
            "grid.cut_thresholds": cut_thresholds,
            "grid.minutes": SCALES["smoke"].sim_minutes,
        },
    ).data


def test_damage_timelines_trials_average():
    single = rows("fig12", 21, 1)
    averaged = rows("fig12", 21, 2)
    assert [t.label for t in single] == [t.label for t in averaged]
    assert len(averaged[0].damage_pct) == len(averaged[0].minutes)
    # pre-attack zeros survive averaging
    pre = [
        d for m, d in zip(averaged[0].minutes, averaged[0].damage_pct)
        if m < SCALES["smoke"].attack_start_min
    ]
    assert all(d == 0.0 for d in pre)


def test_damage_timelines_first_trial_matches_single():
    """An empty threshold sweep still yields the undefended timeline."""
    single = rows("fig12", 23, 1, cut_thresholds=())
    assert single[0].label == "no DD-POLICE"


def test_cut_threshold_sweep_trials_sum_errors():
    one = rows("fig13", 25, 1)[0]
    two = rows("fig13", 25, 2)[0]
    # summed counts can only grow with more trials
    assert two.false_negative >= one.false_negative
    assert two.false_judgment == two.false_negative + two.false_positive
