"""Tracer, sinks, and the JSONL read-back path."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs.trace import (
    SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    Tracer,
    iter_records,
    summarize_trace,
    validate_record,
)


def test_event_record_shape():
    tracer = Tracer(run="r1")
    rec = tracer.event("net.deliver", t=1.5, src=0, dst=3)
    assert rec == {
        "v": SCHEMA_VERSION,
        "seq": 0,
        "t": 1.5,
        "kind": "net.deliver",
        "run": "r1",
        "src": 0,
        "dst": 3,
    }
    validate_record(rec)


def test_sequence_numbers_are_monotone():
    sink = MemorySink()
    tracer = Tracer(sinks=[sink])
    seqs = [tracer.event("a", t=0.0)["seq"] for _ in range(5)]
    assert seqs == [0, 1, 2, 3, 4]
    assert [r["seq"] for r in sink.records] == seqs


def test_reserved_keys_rejected():
    tracer = Tracer()
    with pytest.raises(ConfigError, match="reserved"):
        tracer.event("a", t=0.0, seq=9)


def test_non_scalar_fields_rejected_by_validation():
    base = {"v": SCHEMA_VERSION, "seq": 0, "t": 0.0, "kind": "a"}
    with pytest.raises(ConfigError, match="scalar"):
        validate_record({**base, "payload": {"nested": 1}})
    with pytest.raises(ConfigError, match="flatten"):
        validate_record({**base, "items": [{"nested": 1}]})


def test_memory_sink_receives_every_record():
    sink = MemorySink()
    tracer = Tracer(sinks=[sink])
    tracer.event("a", t=0.0)
    tracer.event("b", t=1.0)
    tracer.close()
    assert [r["kind"] for r in sink.records] == ["a", "b"]
    assert sink.closed


def test_jsonl_sink_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(sinks=[JsonlSink(path)])
    tracer.event("net.deliver", t=2.0, src=1)
    tracer.event("net.drop.fault", t=3.0, src=1, dst=2)
    tracer.close()
    records = list(iter_records(path))
    assert [r["kind"] for r in records] == ["net.deliver", "net.drop.fault"]
    for rec in records:
        validate_record(rec)


def test_iter_records_skips_truncated_tail(tmp_path):
    path = tmp_path / "trace.jsonl"
    good = json.dumps({"v": 1, "seq": 0, "t": 0.0, "kind": "a"})
    path.write_text(good + "\n" + '{"v": 1, "seq": 1, "t"', encoding="utf-8")
    assert [r["seq"] for r in iter_records(path)] == [0]


def test_iter_records_rejects_mid_file_corruption(tmp_path):
    path = tmp_path / "trace.jsonl"
    good = json.dumps({"v": 1, "seq": 0, "t": 0.0, "kind": "a"})
    path.write_text("not json\n" + good + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed"):
        list(iter_records(path))


def test_summarize_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(sinks=[JsonlSink(path)])
    tracer.event("x", t=5.0)
    tracer.event("x", t=15.0)
    tracer.event("y", t=10.0)
    tracer.close()
    summary = summarize_trace(path)
    assert summary == {
        "records": 3,
        "t_min": 5.0,
        "t_max": 15.0,
        "kinds": {"x": 2, "y": 1},
    }


def test_validate_record_rejects_bad_version_and_fields():
    with pytest.raises(ConfigError, match="schema version"):
        validate_record({"v": 99, "seq": 0, "t": 0.0, "kind": "a"})
    with pytest.raises(ConfigError, match="seq"):
        validate_record({"v": SCHEMA_VERSION, "seq": -1, "t": 0.0, "kind": "a"})
    with pytest.raises(ConfigError, match="kind"):
        validate_record({"v": SCHEMA_VERSION, "seq": 0, "t": 0.0, "kind": ""})
    with pytest.raises(ConfigError, match="t must be a number"):
        validate_record({"v": SCHEMA_VERSION, "seq": 0, "t": "0", "kind": "a"})
