"""Gnutella-style unstructured overlay substrate.

Message-level model of the system the paper attacks and defends:

* :mod:`~repro.overlay.ids` -- peer identifiers and 16-byte GUIDs.
* :mod:`~repro.overlay.message` -- Query / QueryHit / Ping / Pong / Bye /
  NeighborList / NeighborTraffic message dataclasses.
* :mod:`~repro.overlay.topology` -- BRITE-like topology generators
  (Barabasi-Albert preferential attachment, Waxman) with the degree profile
  the paper states (mode 3-4 neighbors, mean 6, heavy tail).
* :mod:`~repro.overlay.bandwidth` -- Saroiu-style bandwidth classes and the
  query-rate capacities they induce.
* :mod:`~repro.overlay.content` -- shared-object catalog with Zipf
  popularity and replica placement.
* :mod:`~repro.overlay.peer` / :mod:`~repro.overlay.network` -- the
  message-level peers and the network container gluing them to the DES
  engine (TTL flooding, GUID duplicate suppression, reverse-path QueryHit
  routing, capacity-limited processing).
* :mod:`~repro.overlay.hostcache` -- bootstrap host cache used on join.
"""
