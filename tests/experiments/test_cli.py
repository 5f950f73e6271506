"""Unit tests for the ``repro`` CLI: ``run`` flags and ``trace summarize``.

Spec resolution, overrides and ``--out`` are covered in test_cli_run.py.
"""

import pytest

from repro.cli import build_parser, main
from repro.experiments.spec import list_specs


def test_list_command(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    for spec in list_specs():
        assert spec.name in out


def test_list_columns_line_up(capsys):
    """Every ``--list`` row starts its ``scenario=`` column at one offset,
    however long the longest registered name, and the first
    whitespace-separated field is the spec name (CI reads it with awk)."""
    assert main(["run", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [s.name for s in list_specs()]
    assert len({line.index(" scenario=") for line in lines}) == 1
    assert len({line.index(" backend=") for line in lines}) == 1


def test_unknown_experiment_rejected(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown spec" in capsys.readouterr().err


def test_fig5_runs(capsys):
    assert main(["run", "fig5", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "15400" in out or "15,400" in out


def test_fig6_runs(capsys):
    assert main(["run", "fig6", "--scale", "smoke"]) == 0
    assert "drop rate" in capsys.readouterr().out


def test_multiple_experiments(capsys):
    assert main(["run", "fig5", "fig6", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out and "Figure 6" in out


def test_parser_defaults():
    args = build_parser().parse_args(["run", "fig5"])
    assert args.scale is None  # the spec's registered scale
    assert args.backend is None
    assert args.specs == ["fig5"]


@pytest.mark.slow
def test_fig12_smoke(capsys):
    assert main(["run", "fig12", "--scale", "smoke"]) == 0
    assert "damage rate" in capsys.readouterr().out


def test_parser_workers_flag():
    parser = build_parser()
    assert parser.parse_args(["run", "fig5"]).workers is None
    assert parser.parse_args(["run", "fig5", "--workers", "4"]).workers == 4


def test_workers_flag_runs_parallel(capsys):
    # fig5 is closed-form (no sweep), so this just proves the flag
    # threads through main() without disturbing any experiment.
    assert main(["run", "fig5", "--scale", "smoke", "--workers", "2"]) == 0
    assert "Figure 5" in capsys.readouterr().out


def test_bad_workers_rejected(capsys):
    assert main(["run", "fig5", "--workers", "-3"]) == 2
    assert "workers must be >= 0" in capsys.readouterr().err


def test_parser_trace_and_profile_flags():
    parser = build_parser()
    args = parser.parse_args(["run", "fig5"])
    assert args.trace is None and args.profile is False
    args = parser.parse_args(["run", "fig5", "--trace", "/tmp/t.jsonl", "--profile"])
    assert args.trace == "/tmp/t.jsonl" and args.profile is True


def test_no_command_is_a_usage_error():
    # The figure-id front end (`repro fig12`, `repro list`) is gone.
    for argv in ([], ["fig12"], ["list"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.slow
def test_trace_flag_writes_trace_and_manifest(tmp_path, capsys):
    from repro.obs.manifest import load_manifest, verify_manifest
    from repro.obs.trace import summarize_trace

    trace = tmp_path / "run.jsonl"
    trace.write_text("stale line from an earlier run\n")  # must be replaced
    argv = ["run", "fig12", "--scale", "smoke", "--workers", "4", "--trace", str(trace)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "damage rate" in captured.out
    assert "trace written" in captured.out
    assert "forces serial" in captured.err
    summary = summarize_trace(trace)  # validates every record
    assert summary["kinds"].get("fluid.minute", 0) > 0
    sidecar = tmp_path / "run.manifest.json"
    manifest = load_manifest(sidecar)
    assert manifest["kind"] == "cli-trace"
    assert manifest["workers"] == 1
    assert manifest["config"]["specs"] == ["fig12"]
    assert manifest["config"]["scale"] == "smoke"
    assert verify_manifest(manifest)


def test_trace_flag_without_a_simulation_writes_an_empty_trace(tmp_path, capsys):
    # fig5 is closed-form (no case runs): the trace it reports must still
    # exist, and summarize it as empty rather than missing.
    trace = tmp_path / "run.jsonl"
    trace.write_text("stale line from an earlier run\n")  # must be replaced
    assert main(["run", "fig5", "--scale", "smoke", "--trace", str(trace)]) == 0
    assert "trace written" in capsys.readouterr().out
    assert main(["trace", "summarize", str(trace)]) == 0
    assert capsys.readouterr().out.splitlines() == ["records: 0"]


def test_profile_flag_prints_top_functions(capsys):
    assert main(["run", "fig5", "--scale", "smoke", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "# profile cli.fig5" in out
    assert "cumulative" in out


def test_trace_summarize_subcommand(tmp_path, capsys):
    from repro.obs.trace import JsonlSink, Tracer

    path = tmp_path / "t.jsonl"
    tracer = Tracer(sinks=[JsonlSink(path)])
    tracer.event("net.deliver", t=1.0)
    tracer.event("net.deliver", t=2.0)
    tracer.event("police.cut", t=3.0)
    tracer.close()
    assert main(["trace", "summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "records: 3" in out
    assert "net.deliver: 2" in out
    assert "police.cut: 1" in out


def test_trace_summarize_missing_file(tmp_path, capsys):
    assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
    assert "trace summarize" in capsys.readouterr().err


def test_trace_summarize_invalid_trace(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"v": 99, "seq": 0, "t": 0, "kind": "x"}\n{}\n')
    assert main(["trace", "summarize", str(path)]) == 2
    assert "invalid trace" in capsys.readouterr().err
