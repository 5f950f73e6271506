"""Self-test of the benchmark harness (``python -m pytest perfbench/tests -q``).

Runs every workload at the ``--tiny`` scale through the same child
processes the benchmark uses, so it checks the harness, not the speed of
the program.
"""

import json
import re
import shutil
import subprocess

import pytest

from perfbench import ROOT, add_src_to_path

add_src_to_path()

from perfbench import compare, harness, trace, workloads  # noqa: E402

BENCHMARK = harness.BENCHMARK
LAYER_NAMES = [name for name, _unit, _better in trace.PER_LAYER]
SEED = 29


# ---------------------------------------------------------------------------
# BENCHMARK.json says what the code does
# ---------------------------------------------------------------------------

def test_benchmark_json_names_match_the_code():
    assert list(BENCHMARK) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    ]
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in trace.PER_LAYER
    ]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        "setup_s", "run_s", "wall_s", "events_per_s", "peak_rss_mb",
    ]


def test_every_workload_has_an_expected_digest_for_its_committed_size():
    for workload in workloads.WORKLOADS.values():
        expected = json.loads(
            (harness.EXPECTED_DIR / f"{workload.name}.json").read_text(encoding="utf-8")
        )
        assert expected["seed"] == SEED and len(expected["digest"]) == 64
        # a size change must come with a regenerated digest
        assert expected["params"] == json.loads(json.dumps(workload.bench))


def test_benchmark_json_stays_inside_the_contract_limits():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(set(names)) == len(names)
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert 2 <= len(BENCHMARK["workloads"]) <= 8 and len(BENCHMARK["per_layer"]) <= 128
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    assert runs * (BENCHMARK["run_seconds"] + 10) <= 3420


# ---------------------------------------------------------------------------
# tiny units through real child processes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def tiny_units(request):
    """Two timed units and one traced unit of one workload, same seed."""
    name = request.param
    units = [
        harness.run_unit(name, SEED, tiny=True),
        harness.run_unit(name, SEED, tiny=True),
        harness.run_unit(name, SEED, traced=True, tiny=True),
    ]
    assert not [u["failed"] for u in units if "failed" in u]
    return name, units


def test_reps_agree_and_tracing_changes_no_simulated_statistic(tiny_units):
    _name, units = tiny_units
    assert len({u["digest"] for u in units}) == 1
    assert units[0]["sim"] == units[1]["sim"] == units[2]["sim"]


def test_traced_unit_emits_every_per_layer_name(tiny_units):
    name, units = tiny_units
    layers = units[2]["layers"]
    assert sorted(layers) == sorted(set(LAYER_NAMES) - set(trace.CROSS_UNIT))
    assert layers["trace.hooks_missing"] == 0
    assert units[0]["layers"] is None
    engine = workloads.WORKLOADS[name].engine
    # the workload enters its own layers and stays out of the others'
    assert (layers["overlay.soa_network.wave.calls"] > 0) == (engine == "soa")
    assert (layers["overlay.network.deliver.query.calls"] > 0) == (engine == "des")
    assert (layers["fluid.model.step.calls"] > 0) == (engine == "fluid")
    if engine != "fluid":
        assert layers["trace.unattributed_share"] <= 0.10


def test_summary_and_contract_line_carry_exactly_the_declared_metrics(tiny_units):
    name, units = tiny_units
    doc = harness.summarize(name, units, SEED, tiny=True)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] == 3
    assert doc["reps"] == 2
    for traced, declared in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        line = json.loads(harness.contract_line(doc, traced))
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert list(line["metrics"]) == [m["name"] for m in declared]
        assert {n: v["unit"] for n, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
    assert all(m["median"] > 0 for m in doc["end_to_end"].values())
    attacked = "agents" in workloads.WORKLOADS[name].tiny
    assert ("attackers_cut_share" in doc["exact"]) == attacked


def test_a_unit_that_disagrees_counts_as_failed(tiny_units):
    name, units = tiny_units
    odd = dict(units[1], digest="0" * 64)
    doc = harness.summarize(name, [units[0], odd, units[2]], SEED, tiny=True)
    assert not doc["correct"] and doc["failed"] == 1
    crashed = {"traced": False, "workers": 1, "failed": "exit 1"}
    doc = harness.summarize(name, [units[0], crashed], SEED, tiny=True)
    assert doc["correct"] and doc["failed"] == 1 and doc["attempted"] == 2
    assert doc["exact"]["failed_share"]["median"] == 0.5


# ---------------------------------------------------------------------------
# the tracer, in this process
# ---------------------------------------------------------------------------

def test_wrappers_come_off_and_span_times_add_up(tmp_path):
    workload = workloads.WORKLOADS["soa_attack_police_20k"]
    assert trace.installed_wrappers() == []
    tracer = trace.Tracer()
    seen_installed = []

    def install():
        tracer.install()
        seen_installed.extend(trace.installed_wrappers())

    try:
        outcome = workloads.execute(
            workload, SEED, tiny=True, workers=1, out_dir=tmp_path, once_imported=install
        )
    finally:
        tracer.uninstall()
    assert len(seen_installed) == len(trace.HOOKS)
    assert trace.installed_wrappers() == []
    assert tracer.missing == []
    # Everything under the run root is dispatch, a top-level named span,
    # or unattributed -- and that is all of it.
    busy, top = trace._BUSY, trace._TOP
    outside_the_run = ("overlay.soa_network.build",)  # engine construction
    named_top = sum(
        rec[top] for span, rec in tracer.spans.items()
        if span not in trace.STRUCTURAL + outside_the_run
    )
    root = tracer.get(trace.SOA_RUN, busy)
    parts = (
        named_top
        + tracer.self_s(trace.RUN)
        + tracer.self_s(trace.FIRE)
        + tracer.self_s(trace.SOA_RUN)
    )
    assert parts == pytest.approx(root, rel=1e-9)
    assert root == pytest.approx(outcome.run_s, rel=0.05)
    layers = trace.layer_metrics(tracer, outcome)
    assert layers["overlay.soa_network.minute_roll.calls"] == 1
    assert layers["overlay.soa_network.conclude.calls"] >= 1
    assert 0 < layers["simkit.soa.int64map.insert.fresh_ratio"] <= 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _m(median, lo, hi, better="lower"):
    return {"median": median, "min": lo, "max": hi, "better": better, "unit": "s", "n": 5}


def test_compare_verdicts():
    base = _m(10.0, 9.8, 10.3)
    assert compare.verdict_timed(base, _m(10.2, 9.9, 10.4), 0.10) == "unchanged"
    assert compare.verdict_timed(base, _m(11.5, 11.2, 11.9), 0.10) == "regressed"
    assert compare.verdict_timed(base, _m(9.0, 8.8, 9.3), 0.10) == "improved"
    # B's runs spread wider than the bound and overlap A's: nothing shown
    assert compare.verdict_timed(base, _m(10.1, 9.0, 11.0), 0.10) == "unresolved"
    rate = _m(100.0, 98.0, 103.0, better="higher")
    assert compare.verdict_timed(rate, _m(80.0, 78.0, 83.0, "higher"), 0.10) == "regressed"
    assert compare.verdict_timed(rate, _m(120.0, 118.0, 121.0, "higher"), 0.10) == "improved"
    assert compare.verdict_exact(_m(0.0, 0.0, 0.0), _m(0.0, 0.0, 0.0)) == "unchanged"
    assert compare.verdict_exact(_m(0.0, 0.0, 0.0), _m(2.0, 2.0, 2.0)) == "regressed"
    assert compare.verdict_exact(_m(0.9, 0.9, 0.9, "higher"), _m(1.0, 1.0, 1.0, "higher")) == "improved"


def test_compare_reads_two_ledgers_and_flags_a_regression(tmp_path, tiny_units):
    name, units = tiny_units
    doc = harness.summarize(name, units, SEED, tiny=True)
    slower = json.loads(json.dumps(doc))
    for field in ("median", "min", "max"):
        slower["end_to_end"]["run_s"][field] *= 2.0
    harness.write_ledger([doc], tmp_path / "a", host={})
    harness.write_ledger([slower], tmp_path / "b", host={})
    rows, regressed = compare.compare(tmp_path / "a", tmp_path / "a")
    assert not regressed and all(" regressed " not in row for row in rows)
    rows, regressed = compare.compare(tmp_path / "a", tmp_path / "b")
    assert regressed
    assert [row.split()[1] for row in rows if " regressed " in row] == ["run_s"]


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def test_a_tree_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", "soa_flood_20k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_fluid_argv_at_full_scale_reproduces_the_committed_tables(tmp_path):
    """The benchmark runs this CLI path shrunk; unshrunk and with the
    registered seeds it is the command that wrote ``results/``."""
    from repro.cli import main

    argv = workloads.fluid_argv({"scale": "bench", "set": ()}, None, 1, tmp_path)
    assert main(argv) == 0
    for table, committed in (
        ("fig09_traffic", "fig09_traffic.txt"),
        ("fig12_damage", "fig12_damage.txt"),
    ):
        assert (tmp_path / f"{table}.txt").read_bytes() == (
            ROOT / "results" / committed
        ).read_bytes()
