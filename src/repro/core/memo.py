"""The shared cache primitives of the cost models.

:class:`LRUCache` is the one bounded map behind every memo in the
estimator stack (the BOE model's structural and pipeline memos, the bound
screen's stage and topology memos, the parallelism equilibrium memo,
Algorithm 1's state step memo, the sweep's candidate memo and the
estimate service's hot cache), and
:class:`CacheStats` the shared hit/miss ledger they report through.
Every key is built from the frozen, value-hashed inputs themselves (jobs,
workflows, clusters, enums, tuples of floats): equality decides a hit, so
a changed input can never be served a stale entry.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Hashable, Optional

from repro.errors import EstimationError

_MISSING = object()

#: Entry bound of the model-level memos.  Sized for a week-long sweep
#: session: entries are small (a key of frozen inputs plus a frozen
#: result), and sweep locality means the working set is far smaller than
#: the total key population.
DEFAULT_CACHE_ENTRIES = 4096


@dataclasses.dataclass
class CacheStats:
    """Hit/miss ledger of one memoisation cache.

    Attributes:
        hits: lookups answered from the cache.
        misses: lookups that fell through to a full evaluation.
        evictions: entries dropped because the cache reached its bound.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never used)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def add(self, other: "CacheStats") -> None:
        """Accumulate another ledger into this one (cross-process merge)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions

    def delta(self, since: "CacheStats") -> "CacheStats":
        """The activity between an earlier snapshot and now."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            evictions=self.evictions - since.evictions,
        )

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions)

    def describe(self) -> str:
        return (
            f"{self.hits}/{self.lookups} hits ({self.hit_rate:.0%})"
            if self.lookups
            else "unused"
        )


class LRUCache:
    """Bounded least-recently-used mapping for memoised evaluations.

    Every memo in the package stores pure-function results, so eviction
    can never change a value, only force a recompute.  LRU keeps a sweep's
    working set resident even when a week-long session churns through far
    more distinct keys than the bound: the keys a coordinate-descent step
    keeps re-touching stay hot.

    Evictions are reported through the shared :class:`CacheStats` ledger
    when one is attached (hits/misses stay with the caller, which knows
    which lookup it is serving).
    """

    __slots__ = ("_data", "_max_entries", "_stats")

    def __init__(self, max_entries: int, stats: Optional[CacheStats] = None):
        if max_entries < 1:
            raise EstimationError(f"max_entries must be >= 1: {max_entries}")
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._max_entries = max_entries
        self._stats = stats

    def __len__(self) -> int:
        return len(self._data)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    def get(self, key: Hashable, default=None):
        """Look up ``key``, marking it most recently used on a hit."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert ``key``, evicting least-recently-used entries past the bound."""
        data = self._data
        size = len(data)
        data[key] = value  # a new key lands last, as most recently used
        if len(data) == size:
            data.move_to_end(key)
            return
        while len(data) > self._max_entries:
            data.popitem(last=False)
            if self._stats is not None:
                self._stats.evictions += 1

    def clear(self) -> None:
        self._data.clear()
