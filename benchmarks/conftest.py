"""Shared benchmark fixtures.

Every ``bench_*`` module regenerates one table/figure of the paper (see
DESIGN.md section 2). Results are printed and also written under
``results/`` so the EXPERIMENTS.md comparison can be refreshed:

    pytest benchmarks/ --benchmark-only -s

Scale is controlled by ``REPRO_SCALE`` (bench | paper | smoke).
"""

import os
from pathlib import Path
from typing import Any, Mapping, Optional

import pytest

from repro.obs.manifest import atomic_write_text, write_manifest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

ENGINES = ("message", "soa", "both")


def pytest_addoption(parser):
    parser.addoption(
        "--engine",
        default="both",
        choices=ENGINES,
        help="restrict engine-sweep benches to one DES engine",
    )


@pytest.fixture(scope="session")
def engine_filter(request) -> str:
    """Which engines the throughput sweeps should run: message|soa|both."""
    return request.config.getoption("--engine")


@pytest.fixture(scope="session")
def scale():
    """The :class:`~repro.experiments.scenarios.Scale` ``$REPRO_SCALE`` names."""
    from repro.experiments.scenarios import SCALES

    name = os.environ.get("REPRO_SCALE", "bench").lower()
    if name not in SCALES:
        raise pytest.UsageError(f"unknown REPRO_SCALE {name!r} ({'|'.join(SCALES)})")
    return SCALES[name]


@pytest.fixture(scope="session")
def results_dir(scale) -> Path:
    # Non-default scales write to a subdirectory so the bench-scale
    # tables cited by EXPERIMENTS.md are not clobbered.
    target = RESULTS_DIR if scale.name == "bench" else RESULTS_DIR / scale.name
    target.mkdir(parents=True, exist_ok=True)
    return target


def publish(
    results_dir: Path,
    name: str,
    text: str,
    manifest: Optional[Mapping[str, Any]] = None,
) -> None:
    """Print a result table and persist it for EXPERIMENTS.md.

    Writes are atomic (temp file + rename), so an interrupted bench run
    never leaves a truncated table. With ``manifest`` given (build it via
    :func:`repro.obs.manifest.build_manifest`), a ``<name>.manifest.json``
    provenance sidecar is written next to the table.
    """
    print()
    print(text)
    artifact = results_dir / f"{name}.txt"
    atomic_write_text(artifact, text + "\n")
    if manifest is not None:
        write_manifest(artifact, manifest)
