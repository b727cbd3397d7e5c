"""Value fingerprints and the shared cache primitives of the cost models.

:func:`value_fingerprint` reduces a model input to a hashable tuple of
primitives, walking dataclasses field by field (tagged with the class name,
so two types with equal fields stay distinct).  It recurses into nested
dataclasses such as ``JobConfig`` and into subclasses with extra fields
(e.g. :class:`~repro.spark.SparkStageJob`'s ``input_from``/``output_to``).
:func:`job_fingerprint` applies it to one job specification; its one
caller is :class:`~repro.core.bounds.BoundsModel` (``_job_fp``), whose
second cache level keys on it so a value-identical job rebuilt by a later
tuning pass hits.  :class:`~repro.core.boe.BOEModel` needs no fingerprint:
jobs are frozen dataclasses, so its caches key on the jobs themselves,
hashed by value.

:class:`LRUCache` is the bounded map behind those caches, and
:class:`CacheStats` the shared hit/miss ledger every cache in the package
reports through (:class:`~repro.core.boe.BOEModel`,
:class:`~repro.sweep.SweepReport`).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from enum import Enum
from typing import Dict, Hashable, Mapping, Optional, Tuple

from repro.errors import EstimationError

#: Entry bound of the task-time and bounds memoisation caches.  Sized for
#: a week-long sweep session: entries are small (a fingerprint tuple plus
#: a frozen estimate), and sweep locality means the working set is far
#: smaller than the total key population.
DEFAULT_CACHE_ENTRIES = 4096


#: Per-type field-name tuples, resolved once (``dataclasses.fields`` is slow
#: enough to matter on the hot lookup path).
_FIELDS_BY_TYPE: Dict[type, Tuple[str, ...]] = {}


def value_fingerprint(value: object) -> Hashable:
    """A hashable, canonical token for one model-input value.

    Supported: primitives, enums, dataclasses (recursed field by field,
    tagged with the class name so two types with equal fields stay
    distinct), sequences, sets and mappings.  Anything else is rejected
    loudly — silently falling back to ``id()`` or ``repr()`` would risk
    cache collisions or permanent misses.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, Enum):
        return (type(value).__qualname__, value.name)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        names = _FIELDS_BY_TYPE.get(cls)
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(cls))
            _FIELDS_BY_TYPE[cls] = names
        return (
            cls.__qualname__,
            tuple(value_fingerprint(getattr(value, n)) for n in names),
        )
    if isinstance(value, (tuple, list)):
        return tuple(value_fingerprint(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(value_fingerprint(v) for v in value)))
    if isinstance(value, Mapping):
        return (
            "map",
            tuple(
                sorted((value_fingerprint(k), value_fingerprint(v)) for k, v in value.items())
            ),
        )
    raise EstimationError(
        f"cannot fingerprint {type(value).__qualname__!r} for memoisation; "
        "model inputs must be primitives, enums, or (frozen) dataclasses"
    )


def job_fingerprint(job: object) -> Hashable:
    """Call-time fingerprint of one job specification."""
    return value_fingerprint(job)


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

    Every cache in the package (the BOE model's two levels, the bounds
    model's memos) stores pure-function results, so eviction can never
    change a value — only force a recompute.  LRU (rather than the historical FIFO) keeps a
    sweep's working set resident even when a week-long session churns
    through far more distinct keys than the bound: the keys a coordinate-
    descent step keeps re-touching stay hot.

    Evictions are reported through the shared :class:`CacheStats` ledger
    when one is attached (hits/misses stay with the caller, which knows
    which lookup level it is serving).
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
        try:
            value = self._data[key]
        except KeyError:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert ``key``, evicting least-recently-used entries past the bound."""
        if key in self._data:
            self._data[key] = value
            self._data.move_to_end(key)
            return
        while len(self._data) >= self._max_entries:
            self._data.popitem(last=False)
            if self._stats is not None:
                self._stats.evictions += 1
        self._data[key] = value

    def clear(self) -> None:
        self._data.clear()
