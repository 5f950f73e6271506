"""The fluid minute loop against its frozen contract.

``fixtures/minute_rows.json`` holds, for each case below, the ``repr`` of
every :class:`MinuteRow`, every judgment (cleared ones included) with
``repr(g)`` / ``repr(s)``, and the final ``FluidPoliceStats``. It was
written by running this file as a script on the commit *before* the
array-native minute loop replaced the dict-based one (and deleted the
in-``src`` legacy oracle it used to be compared against), so equality
here is bit-identity with that implementation, floats included.

Regenerate only for an intended change of simulated behaviour::

    PYTHONPATH=src python tests/fluid/test_minute_rows_fixture.py
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.attack.cheating import CheatStrategy
from repro.core.config import DDPoliceConfig
from repro.fluid.model import FluidConfig, FluidSimulation

FIXTURE = Path(__file__).parent / "fixtures" / "minute_rows.json"

_HOT = FluidConfig(
    n=200, seed=7, num_agents=4, attack_start_min=2, churn_warmup_min=4
)
_POLICED = replace(_HOT, seed=5, defense="ddpolice")

#: name -> (config, minutes)
CASES = {
    # The three configs (and 7 minutes) the deleted legacy-path comparison ran.
    "none": (replace(_HOT, defense="none"), 7),
    "naive": (replace(_HOT, defense="naive"), 7),
    "ddpolice": (replace(_HOT, defense="ddpolice"), 7),
    **{
        f"cheat-{strategy.value}": (replace(_POLICED, cheat_strategy=strategy), 5)
        for strategy in CheatStrategy
    },
    "radius2": (
        replace(_POLICED, seed=11, num_agents=8, police=DDPoliceConfig(radius=2)),
        5,
    ),
}


def dump(config: FluidConfig, minutes: int) -> dict:
    sim = FluidSimulation(config)
    if sim.police is not None:
        sim.police.record_clears = True
    rows = sim.run(minutes)
    defense = sim.police or sim.naive
    return {
        "rows": [repr(r) for r in rows],
        "judgments": [
            [j.time, j.observer, j.suspect, repr(j.g_value), repr(j.s_value),
             j.disconnected]
            for j in sim.judgments.judgments
        ],
        "stats": repr(defense.stats) if defense is not None else None,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_minute_rows_match_frozen_contract(name):
    expected = json.loads(FIXTURE.read_text())[name]
    got = dump(*CASES[name])
    assert got["rows"] == expected["rows"]
    assert got["judgments"] == expected["judgments"]
    assert got["stats"] == expected["stats"]


def test_fixture_exercises_the_police_round():
    """A fixture with no judgments would freeze nothing of the g/s path."""
    frozen = json.loads(FIXTURE.read_text())
    assert set(frozen) == set(CASES)
    for name, case in frozen.items():
        if name != "none":
            assert len(case["judgments"]) >= 10, name
    assert any(not j[5] for j in frozen["radius2"]["judgments"])


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(
            {name: dump(*case) for name, case in CASES.items()},
            indent=0, separators=(",", ":"),
        ).replace(",\n", ",")
        + "\n"
    )
