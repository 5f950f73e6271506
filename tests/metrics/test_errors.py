"""Unit tests for judgment accounting (Figure 13 terminology)."""

from repro.metrics.errors import ErrorCounts, Judgment, JudgmentLog


def judgment(suspect, disconnected=True, time=1.0, observer="obs"):
    return Judgment(
        time=time,
        observer=observer,
        suspect=suspect,
        g_value=9.0,
        s_value=9.0,
        disconnected=disconnected,
    )


def test_error_counts_paper_terminology():
    """false negative = good peers wrongly disconnected; false positive =
    bad peers never identified (the paper's swapped usage)."""
    log = JudgmentLog()
    log.record(judgment("good1"))
    log.record(judgment("bad1"))
    counts = log.error_counts(bad_peers={"bad1", "bad2"})
    assert counts.false_negative == 1  # good1 wrongly cut
    assert counts.false_positive == 1  # bad2 escaped
    assert counts.false_judgment == 2


def test_distinct_peers_counted_once():
    log = JudgmentLog()
    for t in (1.0, 2.0, 3.0):
        log.record(judgment("good1", time=t))
    counts = log.error_counts(bad_peers=set())
    assert counts.false_negative == 1


def test_cleared_judgments_do_not_count():
    log = JudgmentLog()
    log.record(judgment("good1", disconnected=False))
    counts = log.error_counts(bad_peers=set())
    assert counts.false_negative == 0
    assert log.disconnect_events() == []


def test_first_disconnect_time():
    log = JudgmentLog()
    log.record(judgment("bad1", time=7.0))
    log.record(judgment("bad1", time=3.0))
    assert log.first_disconnect_time("bad1") == 3.0
    assert log.first_disconnect_time("ghost") is None


def test_perfect_run_zero_errors():
    log = JudgmentLog()
    log.record(judgment("bad1"))
    log.record(judgment("bad2"))
    counts = log.error_counts(bad_peers={"bad1", "bad2"})
    assert counts == ErrorCounts(false_negative=0, false_positive=0)
    assert counts.false_judgment == 0
