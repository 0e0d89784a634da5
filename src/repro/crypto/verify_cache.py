"""Process-wide bounded LRU cache of signature-verification outcomes.

In the simulator every node independently re-verifies the *same* signed
heartbeats, LFDs, and PoMs as evidence floods the partition (paper S4's
dominant cost).  A verification outcome is a deterministic pure function of
public data -- (modulus, exponent, message digest, signature value) for RSA,
(group, aggregate key, message digest, signature value) for multisignatures
-- so sharing one cache across all simulated nodes loses no fidelity: every
node computes exactly the answer it would have computed itself.

Crucially the cache only removes *redundant arithmetic*: every call site
still increments its :class:`~repro.crypto.cost_model.CryptoCounters`
exactly as before, so the evaluation's operation counts (Fig. 5c, 8b) and
the simulated CPU-cost model do not depend on what the cache holds.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

DEFAULT_CAPACITY = 65536

_MISSING = object()


class VerificationCache:
    """A bounded LRU map from verification keys to boolean outcomes."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._data: "OrderedDict[Tuple, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.miss_time_s = 0.0  # wall-clock spent computing on misses

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Tuple) -> Optional[bool]:
        """Cached outcome for ``key``, or None on a miss.

        Failed verifications are cached too (False is a valid outcome), so
        a sentinel distinguishes "absent" from "cached False".
        """
        result = self._data.get(key, _MISSING)
        if result is _MISSING:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return result

    def put(self, key: Tuple, outcome: bool, elapsed_s: float = 0.0) -> None:
        """Record a computed outcome."""
        self.miss_time_s += elapsed_s
        self._data[key] = outcome
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.miss_time_s = 0.0

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "entries": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else 0.0,
            "miss_time_s": self.miss_time_s,
            # Estimated wall-clock the hits avoided, assuming each hit would
            # have cost the mean observed miss.
            "est_time_saved_s": (
                self.hits * (self.miss_time_s / self.misses) if self.misses else 0.0
            ),
        }


#: The process-wide cache shared by every simulated node (see module doc).
GLOBAL = VerificationCache()


def cached_check(key: Tuple, compute) -> bool:
    """Look up ``key``; on a miss run ``compute()`` and memoize its result."""
    cached = GLOBAL.get(key)
    if cached is not None:
        return cached
    t0 = time.perf_counter()
    outcome = bool(compute())
    GLOBAL.put(key, outcome, time.perf_counter() - t0)
    return outcome


def stats() -> Dict[str, float]:
    return GLOBAL.stats()

def reset_stats() -> None:
    """Zero the process-wide cache's counters (keeps its contents)."""
    GLOBAL.reset_stats()


from repro.obs import registry as _telemetry

_telemetry.register("verify_cache", stats, reset_stats)
