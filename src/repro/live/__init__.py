"""repro.live: real-socket UDP testbed running DD-POLICE.

The paper validated DD-POLICE on a physical testbed; this package is the
reproduction's equivalent -- hundreds of asyncio UDP node *processes* on
localhost speaking the 23-byte Gnutella wire format of
:mod:`repro.core.wire` and running the real :class:`repro.core.police`
evidence engine against wall-clock minute rolls.

Layout:

* :mod:`repro.live.clock` -- :class:`LiveClock`, the wall-clock scheduler
  facade that lets the unmodified DES-facing police engine run in
  (optionally compressed) real time.
* :mod:`repro.live.ports` -- UDP port allocation with ``EADDRINUSE``
  retry and the ``$REPRO_LIVE_PORT_BASE`` deterministic override.
* :mod:`repro.live.node` -- one overlay node: transport, PING/PONG
  liveness and bootstrap around one real :class:`repro.overlay.peer.Peer`
  (framed by :func:`repro.core.wire.decode_message`), hosting DD-POLICE
  and the static-flooder :class:`~repro.attack.agent.DDoSAgent`.
* :mod:`repro.live.supervisor` -- spawns and babysits the node swarm,
  then aggregates per-node JSONL stats into the minute-table format.
* :mod:`repro.live.spec` -- :class:`LiveSpec`, the sizing layer the
  experiment specs carry for the ``live`` backend.
* :mod:`repro.live.runner` -- the :class:`~repro.experiments.spec.Case`
  adapter behind the registered ``live`` backend.

See docs/LIVE.md for the architecture and operating guide.
"""
