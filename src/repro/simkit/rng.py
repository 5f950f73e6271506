"""Named, independently seeded random streams.

Every stochastic component (topology, churn, workload, attack, protocol
jitter) draws from its own stream derived from a single experiment seed.
This keeps experiments reproducible *and* decoupled: adding a draw in one
component does not perturb the sequences seen by the others -- a standard
variance-reduction discipline in simulation studies.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Union

from repro.errors import ConfigError


def derive_seed(master_seed: int, *stream_labels: Union[str, int]) -> int:
    """Derive a 63-bit child seed from ``(master_seed, *stream_labels)``.

    Uses SHA-256 so child streams are statistically independent and stable
    across Python versions/platforms (unlike ``hash()``). Labels may be
    strings or integers (e.g. ``derive_seed(seed0, "trial", 3)``) and are
    joined with ``:`` -- so ``("a", "b")`` and ``("a:b",)`` alias; pick
    label vocabularies that keep the joined key unambiguous.

    Unlike arithmetic schemes (``seed0 + 1000 * trial``), derived seeds do
    not alias across nearby master seeds: ``derive_seed(0, "trial", 1)``
    and ``derive_seed(1000, "trial", 0)`` are unrelated.
    """
    if not stream_labels:
        raise ConfigError("derive_seed needs at least one stream label")
    parts = [str(master_seed), *(str(label) for label in stream_labels)]
    payload = ":".join(parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


class RngRegistry:
    """Factory of named :class:`random.Random` streams.

    >>> reg = RngRegistry(42)
    >>> a = reg.stream("churn")
    >>> b = reg.stream("churn")
    >>> a is b
    True
    >>> reg.stream("workload") is a
    False
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoized) stdlib stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._streams[name]

    def fork(self, name: str) -> "RngRegistry":
        """Child registry with a seed derived from this one.

        Used for per-trial registries inside parameter sweeps.
        """
        return RngRegistry(derive_seed(self.master_seed, "fork:" + name))
