"""Figure 12: damage rate over time, DD-POLICE-{3,7,10} vs no defense.

Paper anchors: without DD-POLICE the damage plateaus high; DD-POLICE-3
converges fastest but with a non-zero floor (good peers misjudged);
DD-POLICE-7 reaches the lowest floor; DD-POLICE-10 converges slowest.
The table is the registered ``fig12`` spec.
"""

import pytest

from benchmarks.conftest import publish
from repro.experiments.library import run_spec


@pytest.fixture(scope="module")
def run(scale):
    return run_spec("fig12", scale=scale.name)


def test_fig12_damage_over_time(results_dir, run, scale):
    publish(
        results_dir, "fig12_damage",
        run.tables["fig12_damage"], manifest=run.manifest,
    )
    timelines = run.data
    undefended = timelines[0]
    post = [
        d
        for m, d in zip(undefended.minutes, undefended.damage_pct)
        if m > scale.attack_start_min
    ]
    assert max(post) > 20.0  # the attack hurts
    # every DD-POLICE variant beats no-defense in the tail
    tail_undef = sum(undefended.damage_pct[-5:])
    for tl in timelines[1:]:
        assert sum(tl.damage_pct[-5:]) < tail_undef


def test_fig12_convergence(run, scale):
    """DD-POLICE pulls damage down within a few minutes of the attack."""

    def settled_mean(tl):
        after = [
            d
            for m, d in zip(tl.minutes, tl.damage_pct)
            if m >= scale.attack_start_min + 5
        ]
        return sum(after) / len(after)

    undefended = settled_mean(run.data[0])
    for tl in run.data[1:]:
        assert settled_mean(tl) < 0.7 * undefended


def test_bench_damage_timeline(benchmark, scale):
    def one_threshold():
        return run_spec(
            "fig12",
            scale=scale.name,
            overrides={
                "trials": 1,
                "grid.cut_thresholds": (5.0,),
                "grid.minutes": scale.attack_start_min + 6,
            },
            cache=False,
        )

    result = benchmark.pedantic(one_threshold, rounds=1, iterations=1)
    assert len(result.data) == 2
