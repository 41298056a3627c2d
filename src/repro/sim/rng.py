"""Named, independent random streams derived from a single root seed.

Every stochastic component (network latency, message loss, election
timeouts per node, workload inter-arrivals) draws from its own named
stream, so adding randomness to one component never perturbs another and
whole experiments replay bit-for-bit from one integer seed.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``(root_seed, name)``.

    Uses SHA-256 so the derivation is stable across Python versions and
    processes (unlike ``hash()``, which is salted).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self._root_seed = root_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the same (stateful)
        generator object.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self._root_seed, name))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RngRegistry root_seed={self._root_seed} "
                f"streams={sorted(self._streams)}>")
