"""Unit tests for the declarative experiment-spec layer."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import DDPoliceConfig, ExchangePolicy
from repro.errors import ConfigError
from repro.experiments.library import list_scenarios, run_spec, spec_at_scale
from repro.experiments.scenarios import SCALES, TIER_OVERRIDES
from repro.experiments.spec import (
    ExperimentSpec,
    GridSpec,
    WorkloadSpec,
    apply_overrides,
    get_backend,
    get_spec,
    list_backends,
    list_specs,
    override_paths,
    parse_assignments,
    scenario_sha256,
    spec_from_jsonable,
    spec_sha256,
    spec_to_jsonable,
)
from repro.faults.plan import FaultPlan
from repro.live.spec import LIVE_TIERS
from repro.obs.manifest import load_manifest, verify_manifest

RESULTS = Path(__file__).resolve().parents[2] / "results"

ALL_SPECS = (
    "fig5",
    "fig6",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig12-stabilized",
    "fig13",
    "fig14",
    "exchange",
    "fault-sweep",
    "robustness-matrix",
    "table1-wire",
    "scaling",
    "ablation-baselines",
    "ablation-echo",
    "ablation-fluid-vs-des",
    "ablation-topology",
)


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

def test_every_paper_figure_is_registered():
    assert [s.name for s in list_specs()] == sorted(ALL_SPECS)


def test_unknown_spec_lists_registered():
    with pytest.raises(ConfigError, match="unknown spec 'fig99'.*fig9"):
        get_spec("fig99")


def test_unknown_backend_lists_registered():
    with pytest.raises(ConfigError, match="unknown backend 'ns3'.*des.*fluid"):
        get_backend("ns3")


def test_backend_registry_has_fluid_and_des():
    assert [b.name for b in list_backends()] == ["des", "des-soa", "fluid", "live"]


def test_every_spec_scenario_and_tables_resolve():
    scenarios = {s.name: s for s in list_scenarios()}
    for spec in list_specs():
        assert spec.scenario in scenarios, spec.name
        assert set(spec.tables) <= set(scenarios[spec.scenario].tables), spec.name


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_SPECS)
def test_spec_json_roundtrip(name):
    spec = get_spec(name)
    doc = spec_to_jsonable(spec)
    assert spec_from_jsonable(doc) == spec
    assert spec_sha256(spec_from_jsonable(doc)) == spec_sha256(spec)


def test_from_jsonable_rejects_unknown_keys():
    doc = spec_to_jsonable(get_spec("fig9"))
    doc["polise"] = {}
    with pytest.raises(ConfigError, match="unknown key.*polise.*valid keys"):
        spec_from_jsonable(doc)


def test_from_jsonable_rejects_wrong_types():
    doc = spec_to_jsonable(get_spec("fig9"))
    doc["seed"] = "seven"
    with pytest.raises(ConfigError, match="spec.seed.*expected an integer"):
        spec_from_jsonable(doc)
    doc = spec_to_jsonable(get_spec("fig9"))
    doc["police"]["cut_threshold"] = float("nan")  # what json.loads makes of NaN
    with pytest.raises(ConfigError, match="spec.police.cut_threshold.*not a finite"):
        spec_from_jsonable(doc)


def test_figures_9_10_11_share_the_scenario_hash():
    hashes = {scenario_sha256(get_spec(n)) for n in ("fig9", "fig10", "fig11")}
    assert len(hashes) == 1
    # ... while the full provenance hash still tells them apart.
    assert len({spec_sha256(get_spec(n)) for n in ("fig9", "fig10", "fig11")}) == 3


# ---------------------------------------------------------------------------
# committed artifacts
# ---------------------------------------------------------------------------

def test_committed_spec_run_sidecars_match_the_current_schema():
    """``results/`` holds exactly the registered spec tables: every
    top-level table has a ``spec-run`` sidecar naming a registered spec,
    and every registered spec table has a committed table and a
    ``results/smoke/`` fixture. Each sidecar is self-consistent, rebuilds
    under today's spec schema (strict: a removed or renamed config field
    raises), hashes to the ``spec_sha256`` it records and names a
    registered spec with that same hash -- so a PR that changes the
    schema or a registered spec must regenerate them, not leave stale
    provenance."""
    sidecar_tables = set()
    for table in sorted(RESULTS.glob("*.txt")):
        path = table.with_name(f"{table.stem}.manifest.json")
        assert path.exists(), f"{table.name} has no run manifest"
        manifest = load_manifest(path)
        assert manifest["kind"] == "spec-run", path.name
        spec = spec_from_jsonable(manifest["config"])
        assert verify_manifest(manifest, config=spec), path.name
        recorded = manifest["extra"]["spec_sha256"]
        assert spec_sha256(spec) == recorded, path.name
        # The registered spec, not just the file, is what made the table.
        registered = get_spec(manifest["extra"]["spec_name"])
        assert spec_sha256(registered) == recorded, path.name
        assert table.stem in registered.tables, path.name
        sidecar_tables.add(table.stem)

    spec_tables = {t for spec in list_specs() for t in spec.tables}
    assert sidecar_tables == spec_tables
    smoke = {path.stem for path in (RESULTS / "smoke").glob("*.txt")}
    assert smoke == spec_tables
    assert {p.name for p in RESULTS.glob("*.manifest.json")} == {
        f"{t}.manifest.json" for t in spec_tables
    }


@pytest.mark.parametrize("name", ALL_SPECS)
def test_smoke_tables_match_the_committed_fixtures(name):
    """The local form of CI's ``spec-smoke`` diff: every registered spec
    at smoke scale renders exactly ``results/smoke/<table>.txt``."""
    run = run_spec(name, scale="smoke", workers=1)
    assert run.tables
    for table, text in run.tables.items():
        fixture = RESULTS / "smoke" / f"{table}.txt"
        assert text + "\n" == fixture.read_text(), table


# ---------------------------------------------------------------------------
# dotted-path overrides
# ---------------------------------------------------------------------------

def test_parse_assignments():
    assert parse_assignments(["a.b=1", "c= x "]) == {"a.b": "1", "c": "x"}


def test_parse_assignments_rejects_missing_equals():
    with pytest.raises(ConfigError, match="bad --set assignment"):
        parse_assignments(["police.cut_threshold"])


def test_override_each_config_layer():
    spec = get_spec("fig13")
    out = apply_overrides(
        spec,
        parse_assignments(
            [
                "police.cut_threshold=7",
                "scale.n_peers=500",
                "workload.queries_per_minute=0.5",
                "grid.loss_fractions=0,0.5",
                "grid.cut_thresholds=3,5",
                "trials=2",
            ]
        ),
    )
    assert out.police.cut_threshold == 7.0
    assert out.scale.n_peers == 500
    assert out.workload.queries_per_minute == 0.5
    assert out.grid.loss_fractions == (0.0, 0.5)
    assert out.grid.cut_thresholds == (3.0, 5.0)
    assert out.trials == 2
    assert spec == get_spec("fig13")  # original untouched (frozen tree)


def test_unknown_path_lists_valid_keys():
    with pytest.raises(ConfigError, match="unknown key 'police.cut_treshold'.*cut_threshold"):
        apply_overrides(get_spec("fig13"), {"police.cut_treshold": "7"})


def test_unknown_top_level_key_lists_valid_keys():
    with pytest.raises(ConfigError, match="unknown key 'polise.x'.*valid keys.*police"):
        apply_overrides(get_spec("fig13"), {"polise.x": "7"})


def test_section_path_without_leaf_rejected():
    with pytest.raises(ConfigError, match="config section, not a value"):
        apply_overrides(get_spec("fig13"), {"police": "7"})


def test_invariant_violation_names_the_path():
    # Scale requires n_peers >= 10; the error carries the dotted path.
    with pytest.raises(ConfigError, match="invalid --set scale.n_peers"):
        apply_overrides(get_spec("fig9"), {"scale.n_peers": "9"})


def test_non_numeric_value_rejected_with_path():
    with pytest.raises(ConfigError, match="police.cut_threshold.*not a number"):
        apply_overrides(get_spec("fig9"), {"police.cut_threshold": "many"})
    # nan / inf parse as floats but no spec number means anything as one.
    for path, text in (
        ("police.cut_threshold", "nan"),
        ("police.exchange_period_s", "inf"),
        ("police.collection_window_s", "nan"),
        ("workload.attack_rate_qpm", "inf"),
        ("grid.cut_thresholds", "inf"),
        ("live.minute_s", "nan"),
    ):
        with pytest.raises(ConfigError, match=rf"{path}.*not a finite number"):
            apply_overrides(get_spec("fig9"), {path: text})


def test_bool_and_tuple_coercion():
    out = apply_overrides(
        get_spec("fig12"),
        {"police.assume_zero_on_missing": "false", "grid.cut_thresholds": "2.5"},
    )
    assert out.police.assume_zero_on_missing is False
    assert out.grid.cut_thresholds == (2.5,)


def test_override_paths_cover_every_layer():
    paths = override_paths()
    for expected in (
        "seed",
        "trials",
        "scale.n_peers",
        "police.cut_threshold",
        "workload.attack_rate_qpm",
        "grid.loss_fractions",
        "grid.crash_counts",
        "grid.agent_counts",
    ):
        assert expected in paths


def test_overridden_spec_roundtrips_through_json():
    out = apply_overrides(
        get_spec("fig13"), {"police.cut_threshold": "7", "scale.n_peers": "500"}
    )
    assert spec_from_jsonable(spec_to_jsonable(out)) == out


# ---------------------------------------------------------------------------
# scale retargeting
# ---------------------------------------------------------------------------

def test_spec_at_scale_by_name():
    spec = spec_at_scale(get_spec("fig9"), "smoke")
    assert spec.scale == SCALES["smoke"]
    assert spec.live == LIVE_TIERS["smoke"]
    assert LIVE_TIERS.keys() == SCALES.keys()


def test_spec_at_scale_swaps_matrix_sizing():
    # The message-level sweeps keep their registered population at every
    # tier; a tier row is a list of --set assignments on top of it.
    bench = get_spec("robustness-matrix")
    assert spec_at_scale(bench, "bench") == bench
    assert spec_at_scale(bench, "paper").scale == replace(bench.scale, name="paper")
    spec = spec_at_scale(bench, "smoke")
    assert spec.scale == replace(bench.scale, name="smoke", sim_minutes=5)
    assert spec.trials == 1
    faults = spec_at_scale(get_spec("fault-sweep"), "smoke")
    assert (faults.scale.n_peers, faults.scale.sim_minutes, faults.trials) == (40, 5, 1)
    assert faults.grid.loss_fractions == (0.0, 0.3)
    assert faults.grid.crash_counts == (0,)
    assert {scenario for scenario, _ in TIER_OVERRIDES} == {
        "fault-sweep", "robustness-matrix"
    }


def test_spec_at_scale_unknown_name():
    with pytest.raises(ConfigError, match="unknown scale 'galactic'"):
        spec_at_scale(get_spec("fig9"), "galactic")


# ---------------------------------------------------------------------------
# spec dataclass validation
# ---------------------------------------------------------------------------

def test_workload_validation():
    with pytest.raises(ConfigError, match="attack_rate_qpm must be positive"):
        WorkloadSpec(attack_rate_qpm=0.0)
    with pytest.raises(ConfigError, match="unknown cheat_strategy"):
        WorkloadSpec(cheat_strategy="psychic")


def test_grid_validation():
    with pytest.raises(ConfigError, match="cut_thresholds must be positive"):
        GridSpec(cut_thresholds=(0.0,))
    with pytest.raises(ConfigError, match="periods_min must be >= 1"):
        GridSpec(periods_min=(0,))
    with pytest.raises(ConfigError, match=r"loss_fractions must be in \[0, 1\]"):
        GridSpec(loss_fractions=(1.5,))
    with pytest.raises(ConfigError, match="crash_counts must be non-negative"):
        GridSpec(crash_counts=(-1,))


def test_grid_matrix_axes_validated():
    with pytest.raises(ConfigError, match="unknown strategy 'stealth'"):
        GridSpec(adversaries=("stealth",))
    with pytest.raises(ConfigError, match="unknown.*model"):
        GridSpec(topologies=("torus",))
    with pytest.raises(ConfigError, match="unknown profile 'traceback'"):
        GridSpec(profiles=("traceback",))


def test_grid_agents_cannot_exceed_population():
    # k > n dies at spec construction, before any case is built.
    with pytest.raises(ConfigError, match="cannot compromise.*k must not exceed"):
        apply_overrides(
            get_spec("fig9"),
            {"grid.agents": "999999", "scale.n_peers": "300"},
        )


def test_adversary_knobs_overridable_by_dotted_path():
    out = apply_overrides(
        get_spec("robustness-matrix"),
        {"adversary.strategy": "pulse", "adversary.pulse_duty": "0.25"},
    )
    assert out.adversary.strategy == "pulse"
    assert out.adversary.pulse_duty == 0.25
    with pytest.raises(ConfigError, match="invalid --set adversary.strategy"):
        apply_overrides(
            get_spec("robustness-matrix"), {"adversary.strategy": "stealth"}
        )


def test_matrix_num_agents_bounds():
    for scenario in ("robustness-matrix", "fault-sweep"):
        for k in ("0", "20"):
            with pytest.raises(ConfigError, match="grid.agents.*0 < k < n"):
                apply_overrides(
                    get_spec(scenario), {"scale.n_peers": "20", "grid.agents": k}
                )


def test_case_rejects_overfull_botnet():
    from repro.experiments.spec import Case

    with pytest.raises(ConfigError, match="k must not exceed n"):
        Case(n=10, minutes=3, seed=0, num_agents=11)


def test_case_rejects_an_unknown_defense_on_every_backend():
    # Rejected when the case is built, before any backend sees it.
    from repro.experiments.spec import Case

    with pytest.raises(ConfigError, match="unknown defense: 'traceback'"):
        Case(n=300, minutes=3, seed=0, defense="traceback")


def test_fluid_backend_rejects_des_only_features():
    from repro.attack.adaptive import AdaptiveConfig
    from repro.experiments.spec import Case

    task = get_backend("fluid").task_fn
    with pytest.raises(ConfigError, match="adaptive strategy.*DES only"):
        task(Case(n=300, minutes=3, seed=0,
                  adaptive=AdaptiveConfig(strategy="pulse")))
    with pytest.raises(ConfigError, match="fault schedules.*DES only"):
        task(Case(n=300, minutes=3, seed=0, faults=FaultPlan.control_loss(0.1)))


def test_fluid_config_builds_the_case_topology():
    from repro.experiments.spec import Case, _fluid_config
    from repro.overlay.topology import TopologyConfig

    waxman = _fluid_config(Case(n=300, minutes=3, seed=4, topology="waxman"))
    assert waxman.topology == TopologyConfig(n=300, seed=4, model="waxman")
    # ba_m is message-level only: fig9-11 pin ba_m=1 and their fluid
    # tables flood the default BA overlay.
    pinned = _fluid_config(Case(n=300, minutes=3, seed=4, ba_m=1))
    assert pinned.topology == TopologyConfig(n=300, seed=4)


def test_one_case_states_one_workload_on_every_engine_config(monkeypatch):
    """Fluid, des and des-soa read the case's issue rate, agent rate and
    capacity from the same three workload fields."""
    import repro.overlay.soa_network as soa_network
    from repro.experiments.spec import Case, _des_config, _fluid_config

    case = Case(
        n=300, minutes=3, seed=4, num_agents=2,
        workload=WorkloadSpec(
            queries_per_minute=1.5, attack_rate_qpm=700.0, capacity_qpm=450.0
        ),
    )
    fluid = _fluid_config(case)
    assert (fluid.queries_per_minute, fluid.attack_rate_qpm, fluid.capacity_qpm) == (
        1.5, 700.0, 450.0,
    )
    des = _des_config(case)
    assert (
        des.workload.queries_per_minute,
        des.attack_rate_qpm,
        des.network.processing_qpm_good,
    ) == (1.5, 700.0, 450.0)

    soa_configs = []

    def capture(cfg):
        soa_configs.append(cfg)
        raise RuntimeError("captured")

    monkeypatch.setattr(soa_network, "run_soa_experiment", capture)
    with pytest.raises(RuntimeError, match="captured"):
        get_backend("des-soa").task_fn(case)
    [soa] = soa_configs
    assert soa == replace(des, network=replace(des.network, hop_latency_jitter_s=0.0))


def test_fluid_specs_hand_their_cases_to_the_run_backend(monkeypatch):
    """scaling, ablation-baselines and ablation-topology run ``Case``s, so
    ``--backend`` and ``--trace`` reach every one of them."""
    import repro.experiments.library as library
    from repro.experiments.spec import case_result

    calls = []

    def fake_run_cases(cases, *, backend, workers):
        calls.append((backend, list(cases)))
        minutes = [(float(m), 1.0, 0.1, 0.9) for m in range(1, 17)]
        return [case_result(c, minutes[: c.minutes], {}, ()) for c in cases]

    monkeypatch.setattr(library, "run_cases", fake_run_cases)
    for name, n_cases in (
        ("scaling", 8),
        ("ablation-baselines", 3),
        ("ablation-topology", 12),
    ):
        calls.clear()
        run_spec(name, backend="des", trace_path="t.jsonl", cache=False)
        [(backend, cases)] = calls
        assert backend == "des"
        assert len(cases) == n_cases
        assert all(c.trace_path == "t.jsonl" for c in cases)


def test_exchange_cases_carry_their_period_in_police(monkeypatch):
    """One statement of the exchange period: each policy's case sets
    ``police.exchange_period_s``, which every backend reads."""
    import repro.experiments.library as library
    from repro.experiments.spec import case_result

    calls = []

    def fake_run_cases(cases, *, backend, workers):
        calls.append(list(cases))
        minutes = [(float(m), 1.0, 0.1, 0.9) for m in range(1, 61)]
        return [case_result(c, minutes[: c.minutes], {}, ()) for c in cases]

    monkeypatch.setattr(library, "run_cases", fake_run_cases)
    result = run_spec("exchange", backend="des", scale="smoke", cache=False)
    [cases] = calls
    policed = [c for c in cases if c.defense == "ddpolice"]
    assert [c.police.exchange_period_s for c in policed] == [
        60.0, 120.0, 240.0, 300.0, 600.0, 60.0
    ]
    # The event-driven row runs the event-driven policy, so it is not a
    # second copy of the periodic-1min case.
    assert [c.police.exchange_policy for c in policed] == (
        [ExchangePolicy.PERIODIC] * 5 + [ExchangePolicy.EVENT_DRIVEN]
    )
    assert policed[-1] != policed[0]
    assert [c for c in cases if c.defense == "none"][0].police == DDPoliceConfig()
    # Only fluid reports what the control-overhead column is modelled
    # from, so off fluid every policy row prints n/a, not a false 0.0.
    assert [r.control_overhead_kqpm for r in result.data] == [None] * 6
    body = result.tables["exchange_frequency"].splitlines()[3:]
    assert len(body) == 6 and all(line.split()[2] == "n/a" for line in body)


def test_spec_validation():
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        ExperimentSpec(name="x", scenario="agent-sweep", trials=0)
    with pytest.raises(ConfigError, match="name must be non-empty"):
        ExperimentSpec(name="", scenario="agent-sweep")


def test_specs_are_frozen():
    spec = get_spec("fig9")
    with pytest.raises(AttributeError):
        spec.seed = 1
    with pytest.raises(AttributeError):
        spec.police.cut_threshold = 1.0


def test_default_police_matches_paper_constants():
    spec = get_spec("fig9")
    assert spec.police == DDPoliceConfig()
    assert spec.seed == 7


def _counting_backend(monkeypatch, name):
    """Swap backend ``name``'s task for one that records every case it
    runs and returns (case seed, call number)."""
    import repro.experiments.spec as spec

    calls = []

    def task(case):
        calls.append(case)
        return (case.seed, len(calls))

    monkeypatch.setitem(
        spec._BACKENDS, name, replace(spec._BACKENDS[name], task_fn=task)
    )
    return calls


def test_run_cases_runs_each_distinct_case_once(monkeypatch):
    from repro.experiments.spec import Case, run_cases

    calls = _counting_backend(monkeypatch, "fluid")
    a = Case(n=40, minutes=3, seed=1)
    b = replace(a, num_agents=2)
    assert run_cases([a, b, a, b, a], backend="fluid", workers=1) == [
        (1, 1), (1, 2), (1, 1), (1, 2), (1, 1)
    ]
    assert calls == [a, b]


def test_run_cases_runs_every_live_entry(monkeypatch):
    """A swarm run is a sample, not a function of its case: duplicates run."""
    from repro.experiments.spec import Case, run_cases

    calls = _counting_backend(monkeypatch, "live")
    a = Case(n=40, minutes=3, seed=1)
    assert run_cases([a, a, a], backend="live", workers=1) == [(1, 1), (1, 2), (1, 3)]
    assert calls == [a, a, a]
