"""Tests for repro.service.shm — shared-memory worker-state transport.

The contract under test is *bit-transparency with graceful degradation*:
a context shipped through a shared segment must reconstruct identically to
the inline path (the sweep/ensemble determinism contracts extend over the
transport), and every failure or gating condition must fall back to the
inline blob or the in-process path, never to an error.
"""

import pickle

import pytest

from repro.cluster import paper_cluster
from repro.ensemble.engine import EnsembleConfig, EnsembleRunner
from repro.obs.metrics import get_metrics
from repro.service import pool as pool_module
from repro.service import shm
from repro.service.pool import ResilientPool
from repro.sweep import Candidate, SweepRunner
from repro.workloads import terasort, wordcount
from repro.dag import single_job_workflow


@pytest.fixture(autouse=True)
def _fresh_worker_cache():
    pool_module._worker_contexts.clear()
    yield
    pool_module._worker_contexts.clear()


@pytest.fixture
def force_shm(monkeypatch):
    """Ship everything through shared memory regardless of size."""
    monkeypatch.setattr(shm, "MIN_SHIP_BYTES", 0)


def _blob(obj):
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


class TestPackResolve:
    def test_round_trip_is_bit_identical(self, force_shm):
        payload = {"a": list(range(1000)), "b": ("x", 1.5)}
        handle = shm.pack(_blob(payload))
        assert handle is not None
        assert handle.size == len(_blob(payload))
        try:
            resolved = pickle.loads(shm.load(handle))
            assert resolved == payload
            assert pickle.dumps(resolved) == pickle.dumps(payload)
        finally:
            shm.release(handle)

    def test_resolve_passes_raw_objects_through(self):
        """Below the gate the context rides inline as its pickle."""
        obj = {"not": "a handle"}
        assert pool_module.resolve_context("inline-key", _blob(obj)) == obj

    def test_resolve_memoises_by_segment_name(self, force_shm):
        handle = shm.pack(_blob([1, 2, 3]))
        try:
            first = pool_module.resolve_context(handle.name, handle)
            second = pool_module.resolve_context(handle.name, handle)
            assert first is second  # cache hit, not a second unpickle
        finally:
            shm.release(handle)

    def test_worker_cache_is_bounded(self, force_shm):
        handles = [
            shm.pack(_blob(f"payload-{i}"))
            for i in range(pool_module.WORKER_CACHE_ENTRIES + 3)
        ]
        try:
            for handle in handles:
                pool_module.resolve_context(handle.name, handle)
            cache = pool_module._worker_contexts
            assert len(cache) <= pool_module.WORKER_CACHE_ENTRIES
            # FIFO: the oldest entries were evicted, the newest retained.
            assert handles[-1].name in cache
            assert handles[0].name not in cache
        finally:
            for handle in handles:
                shm.release(handle)


def _context_size(context, chunk):
    return len(context)


class TestGating:
    def test_small_payloads_ship_raw(self):
        assert shm.pack(_blob("tiny")) is None

    def test_unpicklable_declines_instead_of_raising(self, force_shm):
        """An unpicklable context never reaches shm: the pool probe
        degrades to the in-process path instead of raising."""
        context = [lambda: None]
        with ResilientPool(2) as pool:
            mapped = pool.map_with_context(context, _context_size, [1, 2])
        assert mapped.outputs == [1, 1]
        assert not mapped.pooled

    def test_release_is_idempotent(self, force_shm):
        handle = shm.pack(_blob([0] * 1000))
        shm.release(handle)
        shm.release(handle)  # second unlink of a gone segment: no error
        shm.release(None)


class TestTelemetry:
    def test_pack_counts_ships_and_bytes(self, force_shm):
        registry = get_metrics()
        registry.reset()
        registry.enable()
        try:
            handle = shm.pack(_blob({"k": list(range(500))}))
            assert handle is not None
            snap = registry.snapshot()
            assert snap["pool.shm_ships"]["value"] == 1
            assert snap["pool.shm_bytes"]["value"] == handle.size
        finally:
            shm.release(handle)
            registry.reset()
            registry.disable()


def _grid_candidates(n=6):
    from dataclasses import replace

    base = terasort()
    return [
        Candidate(
            single_job_workflow(replace(base, num_reducers=r)), label=f"r{r}"
        )
        for r in range(2, 2 + 2 * n, 2)
    ]


def _ships(registry):
    return registry.snapshot().get("pool.shm_ships", {}).get("value", 0)


class TestTransportParity:
    """Transport parity: pooled runs on owned and borrowed pools must be
    bit-identical to the serial path whether the context rode inline
    (default gate) or through shared memory (gate forced to 0)."""

    def test_sweep_results_identical(self, monkeypatch):
        cluster = paper_cluster()
        candidates = _grid_candidates()
        serial = SweepRunner(cluster).evaluate(candidates)
        expected = [(r.label, r.total_time_s, r.states) for r in serial]
        registry = get_metrics()
        registry.reset()
        registry.enable()
        try:
            for gate in (shm.MIN_SHIP_BYTES, 0):
                monkeypatch.setattr(shm, "MIN_SHIP_BYTES", gate)
                before = _ships(registry)
                with SweepRunner(cluster, processes=2) as owned:
                    results = owned.evaluate(candidates)
                    assert owned.report.pool_used
                assert [(r.label, r.total_time_s, r.states) for r in results] == expected
                with ResilientPool(2, label="service") as pool:
                    with SweepRunner(cluster, pool=pool) as borrowed:
                        results = borrowed.evaluate(candidates)
                assert [(r.label, r.total_time_s, r.states) for r in results] == expected
                if gate == 0:
                    assert _ships(registry) > before
        finally:
            registry.reset()
            registry.disable()

    def test_ensemble_aggregates_identical(self, monkeypatch):
        """(base_seed, n) determinism holds across both transports."""
        cluster = paper_cluster()
        workflow = single_job_workflow(wordcount())
        config = EnsembleConfig(
            replications=4, min_replications=4, base_seed=7, processes=2
        )

        serial = EnsembleRunner(
            cluster, ensemble=EnsembleConfig(replications=4, min_replications=4, base_seed=7)
        ).run(workflow)

        for gate in (shm.MIN_SHIP_BYTES, 0):
            monkeypatch.setattr(shm, "MIN_SHIP_BYTES", gate)
            owned = EnsembleRunner(cluster, ensemble=config).run(workflow)
            with ResilientPool(2, label="service") as pool:
                borrowed = EnsembleRunner(cluster, ensemble=config, pool=pool).run(workflow)
            for shipped in (owned, borrowed):
                assert shipped.samples == serial.samples
                assert shipped.quantiles == serial.quantiles
                assert shipped.makespan == serial.makespan
                assert shipped.pool_used
