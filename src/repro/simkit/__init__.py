"""Discrete-event simulation kernel.

A small, dependency-free DES engine used by every other subsystem:

* :class:`~repro.simkit.engine.Simulator` -- heap-based event loop with a
  monotonically non-decreasing virtual clock and a deterministic
  ``(time, priority, FIFO)`` firing order.
* :class:`~repro.simkit.events.Event` -- one scheduled callback
  ``(time, callback, args)``; every scheduled event fires.
* :class:`~repro.simkit.timers.PeriodicTask` / jittered periodic processes.
* :class:`~repro.simkit.rng.RngRegistry` -- named, independently seeded
  random streams so that sub-components draw from decoupled sequences and
  experiments stay reproducible when one component's draw count changes.
"""
