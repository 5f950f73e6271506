"""Run manifests: provenance sidecars for every ``results/`` artifact.

A manifest is a JSON document written next to the artifact it describes
(``results/fault_sweep.txt`` -> ``results/fault_sweep.manifest.json``)
recording everything needed to re-produce or audit the run: the full
config (as canonical JSON) and its SHA-256, the base seed and the
derivation labels applied to it, worker count, git revision, Python and
numpy versions, hostname, wall duration, and a counter snapshot.

:func:`verify_manifest` recomputes the config hash from the embedded
config, so a manifest whose config section was edited after the fact --
or that was copied next to the wrong artifact -- fails loudly.

All writes go through :func:`atomic_write_text` (temp file +
``os.replace``), so a crashed or OOM-killed run can never leave a
truncated manifest (or, for the callers that write tables through it, a
truncated results file) behind.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.errors import ConfigError

#: Version of the manifest document layout.
MANIFEST_VERSION = 1

#: Sidecar suffix appended next to the artifact.
SIDECAR_SUFFIX = ".manifest.json"


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` via a same-directory temp file + rename.

    ``os.replace`` is atomic on POSIX and Windows, so readers observe
    either the old content or the complete new content -- never a
    truncated intermediate, even if the writer dies mid-write.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


# ---------------------------------------------------------------------------
# canonical config serialization + hashing
# ---------------------------------------------------------------------------

def jsonable_config(obj: Any) -> Any:
    """Convert a (possibly nested) config into canonical JSON-able form.

    Dataclasses become dicts, enums their values, tuples lists, and
    sets/frozensets *sorted* lists -- so two equal configs always yield
    the same canonical JSON, which is what :func:`config_sha256` hashes.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable_config(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return jsonable_config(obj.value)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, (list, tuple)):
        return [jsonable_config(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable_config(v) for v in obj)
    if isinstance(obj, Mapping):
        return {str(k): jsonable_config(v) for k, v in obj.items()}
    raise ConfigError(
        f"cannot serialize config value of type {type(obj).__name__} "
        "into a manifest"
    )


def _canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_sha256(config: Any) -> str:
    """SHA-256 hex digest of the config's canonical JSON form."""
    payload = _canonical_json(jsonable_config(config)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# environment capture
# ---------------------------------------------------------------------------

def git_revision(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The current git commit SHA, or None outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_info() -> Dict[str, Any]:
    """Interpreter/library/host facts that shape a run's numbers."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
    }


# ---------------------------------------------------------------------------
# building / writing / verifying
# ---------------------------------------------------------------------------

def build_manifest(
    *,
    kind: str,
    config: Any = None,
    seed: Optional[int] = None,
    seed_derivation: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    tasks: Optional[int] = None,
    duration_s: Optional[float] = None,
    counters: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one manifest document.

    ``config`` may be any (nested) dataclass or mapping; it is embedded
    in canonical form together with its SHA-256. ``seed_derivation``
    documents the :func:`repro.simkit.rng.derive_seed` labels applied to
    the base seed (e.g. ``["trial", "<t>"]``).
    """
    if not kind:
        raise ConfigError("manifest kind must be non-empty")
    manifest: Dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "kind": kind,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "git_sha": git_revision(),
        "environment": environment_info(),
    }
    if config is not None:
        embedded = jsonable_config(config)
        manifest["config"] = embedded
        manifest["config_sha256"] = hashlib.sha256(
            _canonical_json(embedded).encode("utf-8")
        ).hexdigest()
    if seed is not None:
        manifest["seed"] = int(seed)
    if seed_derivation is not None:
        manifest["seed_derivation"] = [str(s) for s in seed_derivation]
    if workers is not None:
        manifest["workers"] = int(workers)
    if tasks is not None:
        manifest["tasks"] = int(tasks)
    if duration_s is not None:
        manifest["duration_s"] = float(duration_s)
    if counters is not None:
        manifest["counters"] = jsonable_config(dict(counters))
    if extra is not None:
        manifest["extra"] = jsonable_config(dict(extra))
    return manifest


def sidecar_path(artifact: Union[str, Path]) -> Path:
    """Manifest path next to ``artifact``: its suffix -> ``.manifest.json``."""
    artifact = Path(artifact)
    if artifact.suffix:
        return artifact.with_suffix(SIDECAR_SUFFIX)
    return artifact.with_name(artifact.name + SIDECAR_SUFFIX)


def write_manifest(
    artifact: Union[str, Path], manifest: Mapping[str, Any]
) -> Path:
    """Atomically write the sidecar for ``artifact``; returns its path.

    Pass a path that already ends in ``.manifest.json`` to write the
    manifest exactly there (no sidecar derivation).
    """
    target = Path(artifact)
    if not str(target).endswith(SIDECAR_SUFFIX):
        target = sidecar_path(target)
    return atomic_write_text(
        target, json.dumps(dict(manifest), indent=1, sort_keys=True) + "\n"
    )


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a manifest written by :func:`write_manifest`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: manifest is not a JSON object")
    if payload.get("manifest_version") != MANIFEST_VERSION:
        raise ConfigError(
            f"{path}: unsupported manifest version "
            f"{payload.get('manifest_version')!r}"
        )
    return payload


def verify_manifest(
    manifest: Union[str, Path, Mapping[str, Any]],
    *,
    config: Any = None,
) -> bool:
    """Recompute the embedded config's hash; raise on any mismatch.

    With ``config`` given, additionally checks that this live config
    object hashes to the recorded digest -- i.e. the manifest describes
    *that* configuration, not merely a self-consistent one.
    """
    doc = (
        load_manifest(manifest)
        if isinstance(manifest, (str, Path))
        else dict(manifest)
    )
    if doc.get("manifest_version") != MANIFEST_VERSION:
        raise ConfigError(
            f"unsupported manifest version {doc.get('manifest_version')!r}"
        )
    recorded = doc.get("config_sha256")
    embedded = doc.get("config")
    if recorded is None or embedded is None:
        raise ConfigError("manifest has no embedded config to verify")
    recomputed = hashlib.sha256(
        _canonical_json(embedded).encode("utf-8")
    ).hexdigest()
    if recomputed != recorded:
        raise ConfigError(
            f"manifest config hash mismatch: recorded {recorded[:12]}..., "
            f"recomputed {recomputed[:12]}... (config section was altered)"
        )
    if config is not None and config_sha256(config) != recorded:
        raise ConfigError(
            "manifest does not describe the given config "
            f"(recorded {recorded[:12]}..., live {config_sha256(config)[:12]}...)"
        )
    return True
