"""The benchmark's per-layer trace hooks name callables that exist.

``perfbench.trace`` times the program by wrapping callables it names as
``package.module:Qualified.name``. A target that a refactor renamed or
deleted is skipped at run time and only counted in
``trace.hooks_missing``, so this resolves every target here -- without
installing any wrapper -- and a rename fails the test suite instead.
"""

import importlib
from pathlib import Path

from perfbench import SRC
from perfbench.trace import HOOKS


def test_every_trace_hook_target_resolves_in_src():
    unresolved = []
    for target in sorted({hook.target for hook in HOOKS}):
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            assert Path(owner.__file__).resolve().is_relative_to(SRC), owner
            for part in path.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            unresolved.append(target)
            continue
        assert callable(owner) and not hasattr(owner, "__wrapped__"), target
    assert not unresolved, f"trace hook targets missing from src/: {unresolved}"
