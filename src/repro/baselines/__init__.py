"""Baseline defenses DD-POLICE is compared against.

* :mod:`~repro.baselines.naive` -- the naive rate cutoff the paper argues
  is dangerous ("Disconnecting all the peers who send out a large number
  of queries is dangerous in that a large number of good peers could be
  forwarding queries for bad peers", Section 2.1).
* :mod:`~repro.baselines.traceback` -- probabilistic packet-marking
  traceback (Savage et al. / Barak-Pelleg et al.) adapted to the
  overlay's minute granularity: sampled mark accumulation per incoming
  edge, with PPM's coupon-collection time-to-identify.
"""
