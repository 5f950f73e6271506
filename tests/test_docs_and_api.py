"""Meta tests: public-API surface and documentation coverage."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.overlay",
    "repro.fluid",
    "repro.attack",
    "repro.churn",
    "repro.workload",
    "repro.testbed",
    "repro.baselines",
    "repro.metrics",
    "repro.experiments",
    "repro.simkit",
]


def iter_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                yield importlib.import_module(f"{pkg_name}.{info.name}")


def test_every_module_has_a_docstring():
    missing = [m.__name__ for m in iter_modules() if not (m.__doc__ or "").strip()]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_class_and_function_documented():
    undocumented = []
    for module in iter_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export
            if not (inspect.getdoc(obj) or "").strip():
                undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_subpackage_alls_resolve():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            assert getattr(pkg, name, None) is not None, f"{pkg_name}.{name}"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_exceptions_rooted_at_repro_error():
    from repro import errors

    for name in ("ConfigError", "ProtocolError", "WireFormatError", "TopologyError"):
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)


def test_the_verdict_policy_lives_in_one_module():
    """The DD-POLICE decision -- the CT comparison and the verdict record --
    is written once, in ``core/decision.py``. ``core/config.py`` declares
    CT; ``experiments/`` only *sets* it for the CT sweeps; ``cli.py`` names
    it in help text."""
    from pathlib import Path

    root = Path(repro.__file__).parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in root.rglob("*.py")
    }

    def mentioning(needle, *, outside=()):
        return {
            name
            for name, text in sources.items()
            if needle in text and not name.startswith(outside)
        }

    assert mentioning(
        "cut_threshold", outside=("core/config.py", "experiments/", "cli.py")
    ) == {"core/decision.py"}
    # Other defenses keep their own records; every DD-POLICE (and naive
    # cutoff) row is the kernel's Verdict projection.
    assert mentioning("Judgment(") == {
        "core/decision.py",
        "baselines/traceback.py",
    }
    # Engines hand the kernel totals, not per-member report objects.
    assert not mentioning("NeighborReport") & {"fluid/police.py", "overlay/soa_network.py"}


def test_every_module_is_reachable_from_the_cli():
    """``src/`` is what ``repro run`` reaches: the import closure from
    ``repro.cli`` is every module. Imports inside functions count; edges
    *out of* a package ``__init__.py`` do not (a re-export is not a use),
    so a module only its own package re-exports is dead and named here."""
    import ast
    from pathlib import Path

    root = Path(repro.__file__).parent
    files = {}
    for path in root.rglob("*.py"):
        parts = ("repro",) + path.relative_to(root).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path

    def imported(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert not node.level, f"{path}: src/ uses absolute imports only"
                for alias in node.names:
                    submodule = f"{node.module}.{alias.name}"
                    yield submodule if submodule in files else node.module

    reached, frontier = set(), ["repro.cli"]
    while frontier:
        module = frontier.pop()
        # importing a.b.c runs a and a.b too, but nothing is followed out of them
        parents = module.split(".")
        reached.update(".".join(parents[:i]) for i in range(1, len(parents)))
        if module in reached or module not in files:
            continue
        reached.add(module)
        if files[module].name != "__init__.py":
            frontier.extend(imported(files[module]))
    assert sorted(set(files) - reached) == []


def test_the_gnutella_data_plane_lives_in_one_class():
    """Flooding, dedup, reverse-path hits and the In/Out windows are
    ``overlay.peer.Peer``; a live node drives one instead of mirroring it,
    and the datagram codec sits on the codecs it dispatches over."""
    import asyncio
    from pathlib import Path

    from repro.live.node import LiveNode, NodeConfig
    from repro.overlay.peer import Peer

    loop = asyncio.new_event_loop()
    try:
        node = LiveNode(NodeConfig(node_id=0), loop)
    finally:
        loop.close()
    assert type(node.peer) is Peer
    for name in (
        "_on_query", "_on_query_hit", "_on_ping", "_remember_seen", "_route_back",
        "_seen", "out_query_window", "in_query_window", "last_minute_out",
        "send_control",
    ):
        assert not hasattr(node, name), name

    root = Path(repro.__file__).parent
    for path in (root / "live").glob("*.py"):
        text = path.read_text()
        assert "aged_copy(" not in text and "try_consume(" not in text, path.name
    with pytest.raises(ImportError):
        importlib.import_module("repro.live.wire")
    assert not (root / "core" / "evidence.py").exists()


def test_evidence_has_one_representation():
    """The paper's evidence is two exact per-neighbour lists. The sketch
    backend (count-min windows, Bloom dedup) measured worse on every axis
    and was deleted in PR 19; neither it nor its selector may grow back."""
    import re
    from pathlib import Path

    pattern = re.compile(r"sketch|count.?min|bloom|EvidenceConfig|mix64", re.IGNORECASE)
    root = Path(repro.__file__).parent
    hits = [
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if pattern.search(path.read_text())
    ]
    assert not hits
    classes = []
    for info in pkgutil.iter_modules([str(root / "evidence")]):
        module = importlib.import_module(f"repro.evidence.{info.name}")
        classes += [
            name
            for name, obj in vars(module).items()
            if inspect.isclass(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
        ]
    assert sorted(classes) == [
        "ExactDedupWindow",
        "ExactSeenCache",
        "ExactTrafficStore",
        "MinuteSample",
    ]


def test_an_engine_import_loads_only_what_the_engine_uses():
    """Package ``__init__``s import nothing, so importing one module loads
    that module's own imports: the soa engine pulls in no message DES,
    control plane, fluid model, harness or telemetry, and neither the DES
    runner nor a live node loads numpy."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    def loaded(module):
        code = (
            "import importlib, json, sys; importlib.import_module(sys.argv[1]); "
            "print(json.dumps(sorted(sys.modules)))"
        )
        src = str(Path(repro.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code, module],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return set(json.loads(out))

    soa = loaded("repro.overlay.soa_network")
    for module in (
        "repro.overlay.network", "repro.overlay.peer", "repro.core.police",
        "repro.core.wire", "repro.fluid.model",
    ):
        assert module not in soa, module
    for package in ("repro.experiments", "repro.obs", "repro.live"):
        assert not [m for m in soa if m == package or m.startswith(package + ".")]
    for module in ("repro.experiments.runner", "repro.live.node"):
        assert "numpy" not in loaded(module), module


def test_result_rows_have_one_unit_and_src_reads_no_scale_env():
    """``CaseResult.rows`` is in minutes from every producer, so nothing
    under ``experiments/`` compares a backend *name* to decide how to read
    a result; and the ``bench|paper|smoke`` choice reaches ``src/`` as an
    argument (``--scale``, ``run_spec(scale=...)``), never through
    ``$REPRO_SCALE``, which only the ``benchmarks/`` tree reads."""
    import re
    from pathlib import Path

    root = Path(repro.__file__).parent
    comparison = re.compile(r"backend\s*(==|!=|in\b|not\s+in\b)")
    assert not [
        path.name
        for path in (root / "experiments").glob("*.py")
        if comparison.search(path.read_text())
    ]
    assert not [
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if "REPRO_SCALE" in path.read_text()
    ]


def test_every_size_is_stated_at_one_path():
    """A spec is sized by ``scale`` + ``trials`` + ``grid`` (+ the rates in
    ``workload``) and nothing else: no size is settable at two dotted
    paths, the per-scenario sizing classes are gone, and a tier name
    selects a table row (``SCALES``, ``TIER_OVERRIDES``, ``LIVE_TIERS``)
    -- nothing under ``src/`` branches on one. ``live.n_nodes`` is a host
    cap, not a population, and keeps its own name."""
    import re
    from pathlib import Path

    from repro.experiments import scenarios
    from repro.experiments.spec import override_paths

    leaves = [path.rsplit(".", 1)[-1] for path in override_paths()]
    for leaf in (
        "n_peers", "sim_minutes", "attack_start_min", "trials", "num_agents",
        "attack_rate_qpm", "loss_fractions", "crash_counts",
    ):
        assert leaves.count(leaf) <= 1, leaf
    assert not hasattr(scenarios, "FaultSweepSpec")
    assert not hasattr(scenarios, "MatrixSpec")

    tier = r"""["'](smoke|bench|paper)["']"""
    comparison = re.compile(rf"(==|!=)\s*{tier}|{tier}\s*(==|!=)")
    root = Path(repro.__file__).parent
    assert not [
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if comparison.search(path.read_text())
    ]
