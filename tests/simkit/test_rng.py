"""Unit tests for seeded stream registry."""

from repro.simkit.rng import RngRegistry, derive_seed


def test_same_name_returns_same_stream():
    reg = RngRegistry(1)
    assert reg.stream("a") is reg.stream("a")


def test_distinct_names_get_distinct_sequences():
    reg = RngRegistry(1)
    a = [reg.stream("a").random() for _ in range(5)]
    b = [reg.stream("b").random() for _ in range(5)]
    assert a != b


def test_reproducible_across_registries():
    a = RngRegistry(42).stream("churn").random()
    b = RngRegistry(42).stream("churn").random()
    assert a == b


def test_master_seed_changes_streams():
    a = RngRegistry(1).stream("x").random()
    b = RngRegistry(2).stream("x").random()
    assert a != b


def test_derive_seed_stable_and_bounded():
    s = derive_seed(123, "component")
    assert s == derive_seed(123, "component")
    assert 0 <= s < 2**63


def test_derive_seed_sensitive_to_both_inputs():
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")


def test_fork_derives_child_registry():
    parent = RngRegistry(5)
    c1 = parent.fork("trial-1")
    c2 = parent.fork("trial-2")
    assert c1.master_seed != c2.master_seed
    assert c1.master_seed == RngRegistry(5).fork("trial-1").master_seed


def test_derive_seed_varargs_labels():
    # multi-label derivation is stable and label-order-sensitive
    assert derive_seed(9, "trial", 3) == derive_seed(9, "trial", 3)
    assert derive_seed(9, "trial", 3) != derive_seed(9, 3, "trial")
    # int labels behave as their string form (documented aliasing)
    assert derive_seed(9, "trial", 3) == derive_seed(9, "trial", "3")


def test_derive_seed_requires_a_label():
    import pytest

    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        derive_seed(9)


def test_trial_seed_scheme_has_no_cross_seed0_collisions():
    """Regression for the retired ``seed0 + 1000 * trial`` trial seeds.

    That arithmetic scheme aliases trials across base seeds differing by
    a multiple of 1000 -- e.g. (seed0=0, trial=1) and (seed0=1000,
    trial=0) ran the *same* simulation, so "independent" base seeds
    shared samples. The hash-derived scheme keeps every (seed0, trial)
    pair distinct.
    """
    from repro.experiments.spec import trial_seed

    # the old scheme's canonical collisions
    assert (0 + 1000 * 1) == (1000 + 1000 * 0)
    assert trial_seed(0, 1) != trial_seed(1000, 0)
    assert trial_seed(7, 2) != trial_seed(2007, 0)
    # and no collisions across a dense grid of (seed0, trial) pairs
    grid = {trial_seed(s, t) for s in range(0, 5000, 250) for t in range(50)}
    assert len(grid) == 20 * 50
