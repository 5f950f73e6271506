"""The three evidence structures DD-POLICE keeps, each exact.

Per-neighbor Out/In query minute windows (:mod:`repro.evidence.store`),
the per-peer query-GUID seen cache and the Neighbor_Traffic report
dedup window (:mod:`repro.evidence.dedup`).
"""
