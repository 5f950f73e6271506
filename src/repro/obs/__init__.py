"""Run telemetry: one trace channel plus run manifests.

`repro.obs` is the always-available instrumentation substrate behind
every simulation run. It is designed around one invariant: **disabled
observability is free and invisible** -- every instrumentation point in
the simulators guards on a single ``is not None`` branch, and a traced
run must never perturb an experiment's random draws or its published
numbers (proven by the trace-on/off equivalence property tests).

Two parts:

* :mod:`repro.obs.trace` -- structured, schema-versioned trace records
  through pluggable sinks (JSONL file, in-memory for tests); a run is
  traced by giving its config a ``trace_path``;
* :mod:`repro.obs.manifest` -- ``*.manifest.json`` sidecars recording
  the config (and its SHA-256), seeds, workers, code version, and
  environment behind every ``results/`` artifact.

Host time is measured outside the simulators (``repro run --profile``
and the ``perfbench`` harness). See docs/OBSERVABILITY.md for the
record schemas and usage.
"""
