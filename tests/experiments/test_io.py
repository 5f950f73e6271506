"""Unit tests for experiment-result persistence."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.experiments.library import CutThresholdRow
from repro.experiments.io import (
    load_records,
    load_rows,
    load_spec,
    save_records,
    save_rows,
)
from repro.experiments.spec import get_spec, spec_from_jsonable, spec_sha256
from repro.fluid.model import FluidConfig, FluidSimulation
from repro.obs.manifest import load_manifest, verify_manifest

RESULTS = Path(__file__).resolve().parents[2] / "results"


def test_minute_rows_roundtrip(tmp_path):
    sim = FluidSimulation(FluidConfig(n=200, seed=2, churn_warmup_min=2))
    rows = sim.run(3)
    path = save_rows(tmp_path / "run.json", rows)
    loaded = load_rows(path)
    assert loaded == rows


def test_figure_records_roundtrip(tmp_path):
    records = [
        CutThresholdRow(
            cut_threshold=5.0,
            false_negative=10,
            false_positive=1,
            false_judgment=11,
            damage_recovery_min=2.0,
            stabilized_damage_pct=4.5,
        ),
        CutThresholdRow(
            cut_threshold=7.0,
            false_negative=8,
            false_positive=2,
            false_judgment=10,
            damage_recovery_min=None,
            stabilized_damage_pct=3.2,
        ),
    ]
    path = save_records(tmp_path / "ct.json", records, kind="ct-rows")
    loaded = load_records(path, CutThresholdRow, kind="ct-rows")
    assert loaded == records


def test_kind_mismatch_rejected(tmp_path):
    sim = FluidSimulation(FluidConfig(n=200, seed=2, churn_warmup_min=2))
    path = save_rows(tmp_path / "run.json", sim.run(2))
    with pytest.raises(ConfigError):
        load_records(path, CutThresholdRow, kind="ct-rows")


def test_non_dataclass_rejected(tmp_path):
    with pytest.raises(ConfigError):
        save_records(tmp_path / "x.json", [{"not": "a dataclass"}], kind="x")


def test_format_version_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": 99, "kind": "minute-rows", "records": []}')
    with pytest.raises(ConfigError):
        load_rows(path)


def test_spec_provenance_roundtrip(tmp_path):
    spec = get_spec("fig13")
    records = [
        CutThresholdRow(
            cut_threshold=5.0,
            false_negative=10,
            false_positive=1,
            false_judgment=11,
            damage_recovery_min=2.0,
            stabilized_damage_pct=4.5,
        ),
    ]
    path = save_records(tmp_path / "ct.json", records, kind="ct-rows", spec=spec)
    assert load_records(path, CutThresholdRow, kind="ct-rows") == records
    loaded = load_spec(path)
    assert loaded == spec
    payload = json.loads(path.read_text())
    assert payload["spec_sha256"] == spec_sha256(spec)


def test_spec_absent_returns_none(tmp_path):
    path = save_records(tmp_path / "ct.json", [], kind="ct-rows")
    assert load_spec(path) is None


def test_tampered_spec_rejected(tmp_path):
    path = save_records(
        tmp_path / "ct.json", [], kind="ct-rows", spec=get_spec("fig13")
    )
    payload = json.loads(path.read_text())
    payload["spec"]["seed"] = payload["spec"]["seed"] + 1  # hand-edit
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="spec_sha256"):
        load_spec(path)


def test_old_format_version_rejected(tmp_path):
    path = tmp_path / "v1.json"
    path.write_text('{"format": 1, "kind": "minute-rows", "records": []}')
    with pytest.raises(ConfigError, match="unsupported results format 1"):
        load_rows(path)


def test_non_object_payload_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="expected a JSON object"):
        load_rows(path)


def test_truncated_json_rejected(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"format": 2, "kind": "minute-ro')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_rows(path)


def test_mismatched_record_fields_rejected(tmp_path):
    path = save_records(
        tmp_path / "ct.json",
        [
            CutThresholdRow(
                cut_threshold=5.0,
                false_negative=10,
                false_positive=1,
                false_judgment=11,
                damage_recovery_min=2.0,
                stabilized_damage_pct=4.5,
            )
        ],
        kind="minute-rows",  # lie about the kind
    )
    with pytest.raises(ConfigError, match="does not match MinuteRow"):
        load_rows(path)


def test_save_with_manifest_sidecar(tmp_path):
    from repro.obs.manifest import build_manifest, load_manifest, verify_manifest

    cfg = FluidConfig(n=200, seed=2, churn_warmup_min=2)
    sim = FluidSimulation(cfg)
    rows = sim.run(2)
    manifest = build_manifest(kind="minute-rows", config=cfg, seed=2)
    path = save_rows(tmp_path / "run.json", rows, manifest=manifest)
    sidecar = tmp_path / "run.manifest.json"
    assert verify_manifest(load_manifest(sidecar), config=cfg)
    assert load_rows(path) == rows


def test_save_is_atomic(tmp_path, monkeypatch):
    """A crashed save leaves the previous file intact, never a truncation."""
    import os

    sim = FluidSimulation(FluidConfig(n=200, seed=2, churn_warmup_min=2))
    rows = sim.run(2)
    path = save_rows(tmp_path / "run.json", rows)
    original = path.read_bytes()

    def boom(*a, **k):
        raise OSError("simulated crash at rename")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        save_rows(path, rows + rows)
    monkeypatch.undo()
    assert path.read_bytes() == original  # old artifact untouched
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]  # no temp litter
    assert load_rows(path) == rows


def test_committed_spec_run_sidecars_match_the_current_schema():
    """Every committed ``spec-run`` sidecar is self-consistent, rebuilds
    under today's spec schema (strict: a removed or renamed config field
    raises) and hashes to the ``spec_sha256`` it records -- so a PR that
    changes the schema must regenerate them, not leave stale provenance."""
    checked = 0
    for path in sorted(RESULTS.glob("*.manifest.json")):
        manifest = load_manifest(path)
        if manifest["kind"] != "spec-run":
            continue
        spec = spec_from_jsonable(manifest["config"])
        assert verify_manifest(manifest, config=spec), path.name
        assert spec_sha256(spec) == manifest["extra"]["spec_sha256"], path.name
        assert path.with_name(path.name.replace(".manifest.json", ".txt")).exists()
        checked += 1
    assert checked >= 12
