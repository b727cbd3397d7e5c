"""Tests for repro.core.memo — the shared LRU cache and hit/miss ledger."""

import pytest

from repro.core.boe import BOEModel
from repro.core.memo import DEFAULT_CACHE_ENTRIES, CacheStats, LRUCache
from repro.errors import EstimationError


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert CacheStats().hit_rate == 0.0

    def test_add_and_delta(self):
        a = CacheStats(hits=2, misses=1)
        a.add(CacheStats(hits=1, misses=4, evictions=2))
        assert (a.hits, a.misses, a.evictions) == (3, 5, 2)
        since = a.snapshot()
        a.hits += 7
        d = a.delta(since)
        assert (d.hits, d.misses) == (7, 0)

    def test_describe_mentions_hits(self):
        assert "hits" in CacheStats(hits=1, misses=1).describe()


class TestLRUCache:
    def test_recency_governs_eviction(self):
        stats = CacheStats()
        cache = LRUCache(2, stats)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert stats.evictions == 1

    def test_bound_validated(self):
        with pytest.raises(EstimationError):
            LRUCache(0, CacheStats())

    def test_default_bound(self, cluster):
        assert DEFAULT_CACHE_ENTRIES == 4096
        assert BOEModel(cluster)._cache.max_entries == DEFAULT_CACHE_ENTRIES
