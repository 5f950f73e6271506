"""Unit tests for neighbor query-traffic monitoring (Section 3.2).

"Two lists are designed in a peer for each of its logical neighbors,
Out_query(i) and In_query(i)": the engine holds them as the
:class:`~repro.evidence.store.ExactTrafficStore`.
"""

import pytest

from repro.core.config import DDPoliceConfig
from repro.core.police import DDPoliceEngine
from repro.errors import ConfigError
from repro.evidence.store import ExactTrafficStore
from repro.overlay.ids import PeerId
from tests.conftest import make_network


def test_latest_window_counts():
    mon = ExactTrafficStore()
    mon.record_window(1, {"a": 10, "b": 5}, {"a": 3})
    assert mon.out_query("a") == 10
    assert mon.in_query("a") == 3
    assert mon.out_query("b") == 5
    assert mon.in_query("b") == 0


def test_report_pair_is_table1_order():
    mon = ExactTrafficStore()
    mon.record_window(1, {"a": 7}, {"a": 9})
    assert mon.report_pair("a") == (7, 9)


def test_unknown_neighbor_reads_zero():
    mon = ExactTrafficStore()
    assert mon.out_query("ghost") == 0
    assert mon.report_pair("ghost") == (0, 0)
    assert mon.latest("ghost") is None


def test_history_bounded():
    mon = ExactTrafficStore(history_minutes=3)
    for minute in range(10):
        mon.record_window(minute, {"a": minute}, {"a": minute})
    hist = mon.history("a")
    assert len(hist) == 3
    assert [h.minute for h in hist] == [7, 8, 9]
    assert mon.out_query("a") == 9


def test_suspicious_neighbors_threshold():
    mon = ExactTrafficStore()
    mon.record_window(1, {}, {"quiet": 400, "loud": 600, "edge": 500})
    suspects = mon.suspicious_neighbors(500.0)
    assert suspects == ["loud"]  # strictly greater than


def test_suspicion_uses_latest_window_only():
    mon = ExactTrafficStore()
    mon.record_window(1, {}, {"a": 9000})
    mon.record_window(2, {}, {"a": 10})
    assert mon.suspicious_neighbors(500.0) == []


def test_forget_removes_history():
    mon = ExactTrafficStore()
    mon.record_window(1, {"a": 1}, {"a": 1})
    mon.forget("a")
    assert mon.history("a") == []
    assert "a" not in mon.tracked_neighbors()


def test_validation():
    with pytest.raises(ConfigError):
        ExactTrafficStore(history_minutes=0)
    # The threshold check happens at config time, not on every
    # suspicious_neighbors call.
    with pytest.raises(ConfigError):
        DDPoliceConfig(warning_threshold_qpm=0.0)
    with pytest.raises(ConfigError):
        DDPoliceConfig(warning_threshold_qpm=-1.0)


def _engine_after_one_window(warning_threshold_qpm):
    """Peer 1's engine after a minute in which 0 sent it 600 and 2 sent 400."""
    _, net = make_network({0: {1}, 1: {2}})
    peer = net.peers[PeerId(1)]
    engine = DDPoliceEngine(
        net, peer, DDPoliceConfig(warning_threshold_qpm=warning_threshold_qpm)
    )
    peer.last_minute_in = {PeerId(0): 600, PeerId(2): 400}
    peer.last_minute_out = {}
    engine._on_minute(1, 60.0)
    return engine


def test_constructed_threshold_drives_suspicion():
    engine = _engine_after_one_window(500.0)
    assert list(engine._investigations) == [PeerId(0)]
    assert engine.store.report_pair(PeerId(2)) == (0, 400)


def test_unconfigured_threshold_requires_argument():
    # The store holds no threshold of its own: the engine passes its
    # config's on every call, so a different config suspects differently.
    assert set(_engine_after_one_window(300.0)._investigations) == {
        PeerId(0),
        PeerId(2),
    }
    with pytest.raises(TypeError):
        ExactTrafficStore().suspicious_neighbors()
