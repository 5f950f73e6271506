"""Fault injection: degraded-network conditions for the message-level DES.

The paper evaluates DD-POLICE on lossless, instantly-delivered control
messages; its own evidence rule ("missing report => assume 0", Section
3.3) makes the judgment error rates sensitive to lost or late
Neighbor_Traffic messages. This package models the conditions a real
overlay runs under -- probabilistic loss, duplication, latency spikes
and reordering, fail-stop crashes, fail-slow peers -- as a scriptable
:class:`~repro.faults.plan.FaultPlan` executed by a
:class:`~repro.faults.injector.FaultInjector` hooked into
:meth:`repro.overlay.network.OverlayNetwork.transmit` and the churn
process. All randomness is drawn from named ``simkit.rng`` streams so
any faulted run replays exactly from its seed.
"""
