"""Property: `--set` overrides survive the spec JSON round-trip.

The CLI's dotted-path overrides produce a typed spec; that spec's
canonical JSON is embedded in manifests and results files and must
rebuild the *identical* dataclass tree (same values, same SHA-256) --
otherwise provenance hashes would drift between a run and its replay.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.spec import (
    apply_overrides,
    get_spec,
    spec_from_jsonable,
    spec_sha256,
    spec_to_jsonable,
)

# Each entry: dotted path -> strategy for a *valid* CLI value string.
# Floats are rendered with repr(), which round-trips exactly.
_finite = dict(allow_nan=False, allow_infinity=False)

_PATH_VALUES = {
    "seed": st.integers(0, 10_000).map(str),
    "trials": st.integers(1, 5).map(str),
    "scale.n_peers": st.integers(100, 50_000).map(str),
    "police.cut_threshold": st.floats(0.5, 50.0, **_finite).map(repr),
    "police.exchange_period_s": st.floats(1.0, 600.0, **_finite).map(repr),
    "police.assume_zero_on_missing": st.booleans().map(lambda b: str(b).lower()),
    "workload.issue_rate_qpm": st.floats(0.0, 10.0, **_finite).map(repr),
    "workload.attack_rate_qpm": st.floats(1.0, 50_000.0, **_finite).map(repr),
    "workload.cheat_strategy": st.sampled_from(["silent", "honest"]),
    "grid.loss_fractions": st.lists(
        st.floats(0.0, 1.0, **_finite), min_size=1, max_size=3
    ).map(lambda xs: ",".join(repr(x) for x in xs)),
    "grid.agent_fraction": st.floats(0.001, 1.0, **_finite).map(repr),
    "grid.cut_thresholds": st.lists(
        st.floats(0.5, 20.0, **_finite), min_size=0, max_size=4
    ).map(lambda xs: ",".join(repr(x) for x in xs)),
    # k <= scale.n_peers on every spec drawn below (fault-sweep runs n=40).
    "grid.agent_counts": st.lists(
        st.integers(0, 40), min_size=0, max_size=4
    ).map(lambda xs: ",".join(str(x) for x in xs)),
}

_overrides = st.dictionaries(
    st.sampled_from(sorted(_PATH_VALUES)), st.none(), min_size=1, max_size=6
).flatmap(
    lambda keys: st.fixed_dictionaries({k: _PATH_VALUES[k] for k in keys})
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["fig9", "fig12", "fig13", "exchange", "fault-sweep"]),
    overrides=_overrides,
)
def test_overrides_roundtrip_through_spec_json(name, overrides):
    spec = apply_overrides(get_spec(name), overrides)
    rebuilt = spec_from_jsonable(spec_to_jsonable(spec))
    assert rebuilt == spec
    assert spec_sha256(rebuilt) == spec_sha256(spec)


@settings(max_examples=60, deadline=None)
@given(overrides=_overrides)
def test_overrides_land_on_the_requested_values(overrides):
    spec = apply_overrides(get_spec("fig13"), overrides)
    doc = spec_to_jsonable(spec)
    for path, raw in overrides.items():
        node = doc
        *parents, leaf = path.split(".")
        for p in parents:
            node = node[p]
        got = node[leaf]
        if isinstance(got, bool):
            assert got == (raw == "true")
        elif isinstance(got, list):
            parts = [p for p in raw.split(",") if p]
            assert [float(p) for p in parts] == [float(v) for v in got]
        elif isinstance(got, (int, float)):
            assert float(got) == float(raw)
        else:
            assert got == raw
