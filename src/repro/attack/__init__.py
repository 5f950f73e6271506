"""Overlay flooding-based DDoS attack model.

Implements the bad-peer behaviour of Sections 2.1-2.3:

* :class:`~repro.attack.agent.DDoSAgent` -- generates distinct bogus
  queries at ``Q_d = min(20,000, link capacity)`` per minute, a
  different query to each neighbor in turn (the "more damaging"
  Figure 1 pattern), and otherwise behaves exactly like a good peer.
* :mod:`~repro.attack.cheating` -- the three Neighbor_Traffic reporting
  strategies of Section 3.4 (honest / inflate / deflate / silent).
* :mod:`~repro.attack.adaptive` -- adversaries that fight the defense
  back: threshold-aware throttling, coordinated collusion, churn-assisted
  evasion, and exchange-phase-locked pulsing.

The DES runner (:func:`repro.experiments.runner.run_des_experiment`)
picks the k compromised peers and launches their agents.
"""
