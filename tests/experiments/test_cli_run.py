"""Unit tests for the generic `repro run` spec-runner subcommand."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.library import get_scenario, list_scenarios
from repro.experiments.spec import get_spec, list_specs, spec_sha256
from repro.obs.manifest import load_manifest, verify_manifest


def test_run_list_enumerates_every_spec(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    for spec in list_specs():
        assert spec.name in out
        assert spec.scenario in out


def test_run_paths_lists_override_paths(capsys):
    assert main(["run", "--paths"]) == 0
    out = capsys.readouterr().out.splitlines()
    for path in (
        "police.cut_threshold",
        "scale.n_peers",
        "workload.capacity_qpm",
        "grid.loss_fractions",
        "grid.agent_counts",
    ):
        assert path in out
    # Exact is the only evidence representation: nothing selects another.
    assert not [p for p in out if "evidence" in p or "cm_widths" in p]


def test_run_without_specs_is_an_error(capsys):
    assert main(["run"]) == 2
    assert "no specs given" in capsys.readouterr().err


def test_run_unknown_spec_is_an_error(capsys):
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown spec" in err and "fig9" in err


def test_run_unknown_override_path_is_an_error(capsys):
    assert main(["run", "fig5", "--set", "police.cut_treshold=7"]) == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and "cut_threshold" in err
    # The deleted sketch backend's knobs and the deleted second and third
    # sizing layers are unknown paths, not no-ops.
    for removed in (
        "police.evidence.backend=sketch",
        "grid.cm_widths=512",
        "faults.trials=1",
        "matrix.n_peers=20",
        "scale.trials=2",
    ):
        assert main(["run", "fig9", "--set", removed]) == 2
        err = capsys.readouterr().err
        assert f"unknown key {removed.split('=')[0]!r}" in err


def test_run_invalid_override_value_is_an_error(capsys):
    assert main(["run", "fig9", "--scale", "smoke", "--set", "scale.n_peers=9"]) == 2
    assert "invalid --set scale.n_peers" in capsys.readouterr().err
    # Valid field by field, but the agent sweep's steady-state window
    # (from attack_start_min + 4 on) is empty: rejected from the spec
    # alone, before any case runs.
    assert main(["run", "fig9", "--scale", "smoke", "--set", "scale.sim_minutes=7"]) == 2
    captured = capsys.readouterr()
    assert "scale.sim_minutes" in captured.err
    assert "scale.attack_start_min" in captured.err
    assert captured.out == ""
    # The message-level collectors hold the run's last minute back, so
    # there the window from minute 8 needs a ninth: rejected by the first
    # case, before it simulates anything.
    argv = ["run", "fig9", "--scale", "smoke", "--backend", "des-soa"]
    assert main(argv + ["--set", "scale.sim_minutes=8"]) == 2
    captured = capsys.readouterr()
    assert "reports minutes 1..7" in captured.err and captured.out == ""


def test_run_des_soa_rejects_a_trace_it_cannot_write(tmp_path, capsys):
    # des-soa has no trace hooks: a trace path is refused by the engine,
    # before any case simulates, instead of reported as written.
    trace = tmp_path / "run.jsonl"
    argv = ["run", "fig9", "--scale", "smoke", "--backend", "des-soa"]
    assert main(argv + ["--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert "des-soa" in captured.err and "trace" in captured.err
    assert "trace written" not in captured.out
    assert not (tmp_path / "run.manifest.json").exists()


def test_accepted_sizing_overrides_reach_the_run():
    """Every size is read from the one place ``--set`` writes it."""
    from repro.experiments.library import run_spec

    run = run_spec(
        "fault-sweep",
        scale="smoke",
        overrides={
            "scale.n_peers": "20",
            "workload.attack_rate_qpm": "300",
            "grid.agents": "1",
            "grid.loss_fractions": "0",
            "grid.crash_counts": "0",
        },
        workers=1,
        cache=False,
    )
    header = run.tables["fault_sweep"].splitlines()[1]
    assert "scale=smoke  n=20  agents=1 " in header
    assert "attack=300 qpm from minute 1  duration=5 min  trials=1" in header
    assert run.cases == 3 and run.manifest["config"]["scale"]["n_peers"] == 20

    run = run_spec(
        "robustness-matrix",
        scale="smoke",
        overrides={
            "trials": "1",
            "scale.n_peers": "20",
            "grid.agents": "1",
            "grid.defenses": "paper",
            "grid.adversaries": "static",
        },
        workers=1,
        cache=False,
    )
    header = run.tables["robustness_matrix"].splitlines()[1]
    assert "scale=smoke  n=20  agents=1  attack=600 qpm" in header
    assert header.endswith("duration=5 min  trials=1")
    assert run.cases == 2


def test_run_fig5_prints_table_and_provenance(capsys):
    from repro.experiments.library import spec_at_scale

    assert main(["run", "fig5", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    # The hash covers the spec as resolved (scale retarget included).
    sha = spec_sha256(spec_at_scale(get_spec("fig5"), "smoke"))
    assert f"# spec fig5 sha256={sha[:12]}" in out


def test_run_with_override_changes_the_hash(capsys):
    from repro.experiments.library import spec_at_scale

    assert main(
        ["run", "fig5", "--scale", "smoke", "--set", "police.cut_threshold=7"]
    ) == 0
    out = capsys.readouterr().out
    sha = spec_sha256(spec_at_scale(get_spec("fig5"), "smoke"))
    assert sha[:12] not in out


def test_run_out_writes_tables_with_manifest(tmp_path, capsys):
    assert main(["run", "fig5", "--scale", "smoke", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    artifact = tmp_path / "fig05_processed.txt"
    assert artifact.exists()
    assert f"# wrote {artifact}" in out
    assert artifact.read_text().rstrip("\n") in out
    manifest = load_manifest(tmp_path / "fig05_processed.manifest.json")
    assert manifest["kind"] == "spec-run"
    assert manifest["extra"]["spec_name"] == "fig5"
    sidecar_sha = manifest["extra"]["spec_sha256"]
    assert sidecar_sha == json.loads(json.dumps(sidecar_sha))  # plain string


def test_run_manifest_verifies_against_the_resolved_spec(tmp_path):
    from repro.experiments.library import spec_at_scale

    assert main(["run", "fig5", "--scale", "smoke", "--out", str(tmp_path)]) == 0
    manifest = load_manifest(tmp_path / "fig05_processed.manifest.json")
    resolved = spec_at_scale(get_spec("fig5"), "smoke")
    assert verify_manifest(manifest, config=resolved)
    assert manifest["extra"]["spec_sha256"] == spec_sha256(resolved)


def test_run_rejects_bad_assignment_syntax(capsys):
    assert main(["run", "fig5", "--set", "police.cut_threshold"]) == 2
    assert "bad --set assignment" in capsys.readouterr().err


def test_run_backend_choice_validated():
    with pytest.raises(SystemExit):
        main(["run", "fig5", "--backend", "ns3"])


def test_every_committed_scenario_table_is_reachable_from_run_list(capsys):
    """Name-level, no simulation: a table some scenario can render and
    ``results/`` commits must be selected by a spec ``--list`` prints."""
    assert main(["run", "--list"]) == 0
    reachable = set()
    for line in capsys.readouterr().out.splitlines():
        spec = get_spec(line.split()[0])
        reachable.update(spec.tables or get_scenario(spec.scenario).tables)
    renderable = {table for s in list_scenarios() for table in s.tables}
    results = Path(__file__).resolve().parents[2] / "results"
    committed = renderable & {p.stem for p in results.glob("*.txt")}
    assert len(committed) >= 12  # Figs 5, 6, 9-14, exchange + the two studies
    assert committed <= reachable


def test_the_pre_spec_generation_cannot_grow_back():
    import repro.experiments

    for name in ("figures", "sweeps"):
        assert not hasattr(repro.experiments, name)
        assert importlib.util.find_spec(f"repro.experiments.{name}") is None
