"""Tests for repro.core.fingerprint — canonical cache keys and stats."""

import enum
from dataclasses import dataclass, replace

import pytest

from repro.core.boe import BOEModel
from repro.core.fingerprint import (
    DEFAULT_CACHE_ENTRIES,
    CacheStats,
    LRUCache,
    job_fingerprint,
    value_fingerprint,
)
from repro.errors import EstimationError
from repro.units import gb
from repro.workloads import terasort


class TestValueFingerprint:
    def test_primitives_pass_through(self):
        assert value_fingerprint(3) == value_fingerprint(3)
        assert value_fingerprint("x") != value_fingerprint("y")
        assert value_fingerprint(None) == value_fingerprint(None)

    def test_dataclasses_fingerprint_by_value(self):
        @dataclass(frozen=True)
        class P:
            x: int
            y: float

        assert value_fingerprint(P(1, 2.0)) == value_fingerprint(P(1, 2.0))
        assert value_fingerprint(P(1, 2.0)) != value_fingerprint(P(1, 3.0))

    def test_distinct_types_never_collide(self):
        @dataclass(frozen=True)
        class A:
            x: int

        @dataclass(frozen=True)
        class B:
            x: int

        assert value_fingerprint(A(1)) != value_fingerprint(B(1))

    def test_sequences_and_mappings(self):
        assert value_fingerprint([1, 2]) == value_fingerprint((1, 2))
        assert value_fingerprint({"a": 1}) == value_fingerprint({"a": 1})
        assert value_fingerprint({"a": 1}) != value_fingerprint({"a": 2})

    def test_enum_members(self):
        class E(enum.Enum):
            A = "a"
            B = "b"

        assert value_fingerprint(E.A) == value_fingerprint(E.A)
        assert value_fingerprint(E.A) != value_fingerprint(E.B)

    def test_unfingerprintable_value_rejected(self):
        with pytest.raises(EstimationError):
            value_fingerprint(object())


class TestJobFingerprint:
    def test_equal_jobs_equal_fingerprints(self):
        assert job_fingerprint(terasort(gb(5))) == job_fingerprint(terasort(gb(5)))

    def test_any_field_change_changes_fingerprint(self):
        base = terasort(gb(5))
        assert job_fingerprint(base) != job_fingerprint(
            replace(base, num_reducers=base.num_reducers + 1)
        )
        assert job_fingerprint(base) != job_fingerprint(
            base.with_config(split_mb=base.config.split_mb * 2)
        )


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
        assert BOEModel(cluster)._call_cache.max_entries == DEFAULT_CACHE_ENTRIES
