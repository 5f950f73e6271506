"""Unit tests for table rendering."""

import pytest

from repro.errors import ConfigError
from repro.experiments.reporting import render_table


def test_render_table_basic():
    out = render_table(["a", "b"], [[1, 2.5], [30, 4.0]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert "-" in lines[2]
    assert len(lines) == 5


def test_render_table_alignment():
    out = render_table(["x"], [[1], [100]])
    lines = out.splitlines()
    assert len(lines[1]) == len(lines[2]) == len(lines[3])


def test_render_table_arity_checked():
    with pytest.raises(ConfigError):
        render_table(["a", "b"], [[1]])


def test_float_formatting():
    out = render_table(["v"], [[1234567.8]])
    assert "1,234,567.8" in out
