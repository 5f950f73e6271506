"""Overlay flooding-based DDoS attack model.

Implements the bad-peer behaviour of Sections 2.1-2.3:

* :class:`~repro.attack.agent.DDoSAgent` -- generates distinct bogus
  queries at ``Q_d = min(20,000, link capacity)`` per minute, optionally
  with different queries per neighbor (the "more damaging" Figure 1
  pattern), and otherwise behaves exactly like a good peer.
* :mod:`~repro.attack.cheating` -- the three Neighbor_Traffic reporting
  strategies of Section 3.4 (honest / inflate / deflate / silent).
* :class:`~repro.attack.scenario.AttackScenario` -- picks k random
  compromised peers and launches them at a configured time.
* :mod:`~repro.attack.adaptive` -- adversaries that fight the defense
  back: threshold-aware throttling, coordinated collusion, churn-assisted
  evasion, and exchange-phase-locked pulsing.
"""
