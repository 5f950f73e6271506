"""Persistence of experiment results (JSON).

Long sweeps are expensive; this module saves/loads their outputs so
analysis and re-rendering never require re-simulation:

* :func:`save_rows` / :func:`load_rows` -- per-minute
  :class:`~repro.fluid.model.MinuteRow` series;
* :func:`save_records` / :func:`load_records` -- any list of flat
  dataclass records (the scenario row types).

Format version 2 embeds the generating
:class:`~repro.experiments.spec.ExperimentSpec` (and its SHA-256) in
the payload when one is supplied, so a results file carries its own
provenance; :func:`load_spec` reads it back. Version-1 files (no spec
field) are rejected on load with a clear error -- re-run the sweep to
regenerate them.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Type, TypeVar, Union

from repro.errors import ConfigError
from repro.experiments.spec import (
    ExperimentSpec,
    spec_from_jsonable,
    spec_sha256,
    spec_to_jsonable,
)
from repro.fluid.model import MinuteRow
from repro.obs.manifest import atomic_write_text, write_manifest

T = TypeVar("T")

_FORMAT_VERSION = 2


def _to_jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    raise ConfigError(f"cannot serialize value of type {type(value).__name__}")


def save_records(
    path: Union[str, Path],
    records: Sequence[Any],
    *,
    kind: str,
    manifest: Optional[Mapping[str, Any]] = None,
    spec: Optional[ExperimentSpec] = None,
) -> Path:
    """Write a list of flat dataclass instances as JSON.

    With ``spec`` given, the canonical spec JSON and its SHA-256 are
    embedded in the payload (provenance travels with the data). With
    ``manifest`` given (build it via
    :func:`repro.obs.manifest.build_manifest`), a ``.manifest.json``
    provenance sidecar is written next to the artifact.
    """
    rows: List[Dict[str, Any]] = []
    for rec in records:
        if not dataclasses.is_dataclass(rec):
            raise ConfigError(f"record {rec!r} is not a dataclass")
        rows.append(_to_jsonable(dataclasses.asdict(rec)))
    payload: Dict[str, Any] = {
        "format": _FORMAT_VERSION,
        "kind": kind,
        "records": rows,
    }
    if spec is not None:
        payload["spec"] = spec_to_jsonable(spec)
        payload["spec_sha256"] = spec_sha256(spec)
    # Atomic (temp file + rename): a sweep killed mid-save can never
    # leave a truncated JSON behind.
    out = atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True))
    if manifest is not None:
        write_manifest(out, manifest)
    return out


def _load_payload(path: Union[str, Path]) -> Dict[str, Any]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(
            f"{path}: expected a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("format")
    if version != _FORMAT_VERSION:
        raise ConfigError(
            f"{path}: unsupported results format {version!r} "
            f"(this build reads format {_FORMAT_VERSION}; "
            "re-run the experiment to regenerate the file)"
        )
    return payload


def load_records(path: Union[str, Path], cls: Type[T], *, kind: str) -> List[T]:
    """Read records saved by :func:`save_records` back into ``cls``.

    Rejects files with a different format version, a different
    ``kind``, or records whose fields do not match ``cls`` -- a clear
    :class:`ConfigError` instead of garbage rows.
    """
    payload = _load_payload(path)
    if payload.get("kind") != kind:
        raise ConfigError(
            f"file holds {payload.get('kind')!r} records, expected {kind!r}"
        )
    records = payload.get("records")
    if not isinstance(records, list):
        raise ConfigError(f"{path}: 'records' must be a list")
    expected = [f.name for f in dataclasses.fields(cls)]
    out: List[T] = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ConfigError(f"{path}: record {i} is not an object")
        try:
            out.append(cls(**rec))
        except TypeError as exc:
            raise ConfigError(
                f"{path}: record {i} does not match {cls.__name__} "
                f"(expected fields: {', '.join(expected)}): {exc}"
            ) from exc
    return out


def load_spec(path: Union[str, Path]) -> Optional[ExperimentSpec]:
    """Read the embedded generating spec back from a results file.

    Returns ``None`` when the file was saved without one. Verifies the
    embedded ``spec_sha256`` against the re-serialized spec, so a
    tampered or hand-edited spec block is rejected.
    """
    payload = _load_payload(path)
    doc = payload.get("spec")
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: 'spec' must be an object")
    spec = spec_from_jsonable(doc)
    stored = payload.get("spec_sha256")
    actual = spec_sha256(spec)
    if stored != actual:
        raise ConfigError(
            f"{path}: embedded spec_sha256 {stored!r} does not match the "
            f"spec it accompanies ({actual}); file was modified"
        )
    return spec


def save_rows(
    path: Union[str, Path],
    rows: Sequence[MinuteRow],
    *,
    manifest: Optional[Mapping[str, Any]] = None,
    spec: Optional[ExperimentSpec] = None,
) -> Path:
    """Persist a fluid run's per-minute rows."""
    return save_records(
        path, rows, kind="minute-rows", manifest=manifest, spec=spec
    )


def load_rows(path: Union[str, Path]) -> List[MinuteRow]:
    """Load per-minute rows saved by :func:`save_rows`."""
    return load_records(path, MinuteRow, kind="minute-rows")
