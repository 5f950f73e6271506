"""Unit tests for the time-series container."""

import pytest

from repro.errors import ConfigError
from repro.metrics.series import TimeSeries


def test_append_and_iterate():
    ts = TimeSeries([(0.0, 1.0), (1.0, 2.0)])
    assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]
    assert len(ts) == 2
    assert ts.times == [0.0, 1.0]
    assert ts.values == [1.0, 2.0]


def test_out_of_order_append_rejected():
    ts = TimeSeries([(5.0, 1.0)])
    with pytest.raises(ConfigError):
        ts.append(4.0, 2.0)


def test_equal_times_allowed():
    ts = TimeSeries([(1.0, 1.0)])
    ts.append(1.0, 2.0)
    assert len(ts) == 2


def test_window_half_open():
    ts = TimeSeries([(float(i), float(i)) for i in range(10)])
    w = ts.window(2.0, 5.0)
    assert w.times == [2.0, 3.0, 4.0]


def test_reductions():
    ts = TimeSeries([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
    assert ts.mean() == 3.0
    assert ts.total() == 9.0
    assert ts.max() == 5.0
    assert ts.last() == (2.0, 5.0)


def test_empty_reductions_rejected():
    ts = TimeSeries()
    with pytest.raises(ConfigError):
        ts.mean()
    with pytest.raises(ConfigError):
        ts.max()
    with pytest.raises(ConfigError):
        ts.last()
    assert ts.total() == 0.0

