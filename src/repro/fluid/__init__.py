"""Fluid-flow large-scale engine.

Per-message DES at the paper's scale (20,000 peers x 10^6 queries) is
~10^10 events -- intractable in pure Python. DD-POLICE, however, consumes
only *per-minute per-directed-edge query counts* (Out_query/In_query), so
the large-scale experiments run on a fluid model that computes exactly
those quantities: each minute, query *rates* are propagated hop-by-hop
over the edge set (vectorized numpy), with

* GUID-duplicate suppression approximated by a per-hop novelty factor
  derived from the graph's branching structure (:mod:`coverage`),
* capacity-driven drops via a damped fixed point on per-node processed
  fractions (:mod:`flows`),
* churn, attack injection, DD-POLICE detection, and service-quality
  metrics layered on top (:mod:`graphstate`, :mod:`police`,
  :mod:`model`).

The message-level engine cross-validates the fluid model at small N
(``benchmarks/bench_ablation_fluid_vs_des.py``).
"""
