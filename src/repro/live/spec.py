"""Sizing layer for the ``live`` backend.

A live swarm is bounded by the host, not by the model: every overlay
node is an OS process with a bound UDP socket, so the 20,000-peer paper
scale of the DES backends is out of reach on one machine. ``LiveSpec``
carries the testbed-specific knobs -- swarm size cap, wall seconds per
protocol "minute", port policy, liveness timing -- alongside the
abstract :class:`~repro.experiments.spec.Scale`, so one experiment spec
drives all three backends and ``--scale`` picks a sane swarm for each
tier.

The module imports only :mod:`repro.errors` so the experiment layer can
embed :class:`LiveSpec` in its dataclasses without importing asyncio or
socket machinery (which must stay lazy for ``pmap`` workers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class LiveSpec:
    """How to size and pace a live swarm for one experiment scale.

    ``minute_s`` is the wall-clock duration of one protocol minute; all
    protocol timing (minute rolls, the 2-minute neighbor-list exchange,
    PING periods, workload rates) is compressed by the same factor, so
    the DD-POLICE evidence arithmetic is unchanged -- only the clock
    runs faster.
    """

    name: str = "smoke"
    #: Cap on node processes; the runner uses ``min(case.n, n_nodes)``.
    n_nodes: int = 25
    #: Wall seconds per protocol minute (60.0 = real time).
    minute_s: float = 0.5
    host: str = "127.0.0.1"
    #: Fixed base port; None defers to ``$REPRO_LIVE_PORT_BASE`` or the
    #: kernel's ephemeral range.
    port_base: Optional[int] = None
    #: Wall-clock gap between consecutive node spawns.
    spawn_stagger_s: float = 0.01
    #: Wall-clock budget for the SIGTERM drain before SIGKILL.
    drain_timeout_s: float = 10.0
    #: Liveness timing, in protocol seconds (compressed like the rest).
    ping_period_s: float = 60.0
    ping_timeout_s: float = 15.0
    ping_retries: int = 3
    #: Flood parameters.
    ttl: int = 7
    seen_cache: int = 50_000

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if self.minute_s <= 0:
            raise ConfigError(f"minute_s must be positive, got {self.minute_s}")
        if self.port_base is not None and not (1024 <= self.port_base <= 65_535):
            raise ConfigError(
                f"port_base out of range [1024, 65535]: {self.port_base}"
            )
        if self.spawn_stagger_s < 0:
            raise ConfigError(
                f"spawn_stagger_s must be non-negative, got {self.spawn_stagger_s}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigError(
                f"drain_timeout_s must be positive, got {self.drain_timeout_s}"
            )
        if self.ping_period_s <= 0 or self.ping_timeout_s <= 0:
            raise ConfigError("ping_period_s and ping_timeout_s must be positive")
        if self.ping_retries < 0:
            raise ConfigError(
                f"ping_retries must be non-negative, got {self.ping_retries}"
            )
        if not (1 <= self.ttl <= 32):
            raise ConfigError(f"ttl out of range [1, 32]: {self.ttl}")
        if self.seen_cache < 64:
            raise ConfigError(f"seen_cache must be >= 64, got {self.seen_cache}")

    @property
    def time_scale(self) -> float:
        """Protocol seconds elapsing per wall-clock second."""
        return 60.0 / self.minute_s


#: The swarm sizing per scale tier, one row per tier of
#: :data:`repro.experiments.scenarios.SCALES`
#: (:func:`~repro.experiments.library.spec_at_scale` swaps it in with the
#: rest): smoke fits CI, bench is the 200-node acceptance swarm, paper
#: pushes to 500 processes and slows the clock so per-process scheduling
#: jitter stays small relative to the minute.
LIVE_TIERS: Dict[str, LiveSpec] = {
    "smoke": LiveSpec(name="smoke", n_nodes=25, minute_s=0.5),
    "bench": LiveSpec(name="bench", n_nodes=200, minute_s=2.0, drain_timeout_s=20.0),
    "paper": LiveSpec(
        name="paper",
        n_nodes=500,
        minute_s=2.0,
        spawn_stagger_s=0.02,
        drain_timeout_s=30.0,
    ),
}
