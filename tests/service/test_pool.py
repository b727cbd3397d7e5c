"""Tests for the crash-tolerant shared pool engine."""

import os
import pickle
import threading
import time
from dataclasses import replace

import pytest

from repro.cluster import paper_cluster
from repro.dag import single_job_workflow
from repro.ensemble.engine import EnsembleConfig, EnsembleRunner
from repro.errors import JobCancelledError, JobTimeoutError
from repro.obs import MetricsRegistry
from repro.obs.metrics import get_metrics, set_metrics
from repro.service import pool as pool_module
from repro.service.pool import ResilientPool, check_cancel, parent_cpu_clock
from repro.service.scheduler import deadline_checker
from repro.sweep import Candidate, SweepRunner
from repro.workloads import terasort, wordcount

#: Captured at import time in the parent; forked pool workers inherit it,
#: so ``os.getpid() != _PARENT_PID`` is True exactly in worker processes.
_PARENT_PID = os.getpid()


def _square(chunk):
    return [x * x for x in chunk]


def _crash_in_worker(chunk):
    """Simulates an OOM-killed / segfaulting worker: dies without cleanup."""
    if os.getpid() != _PARENT_PID:
        os._exit(3)
    return _square(chunk)


def _type_names(chunk):
    return [type(x).__name__ for x in chunk]


@pytest.fixture
def armed_metrics():
    """A fresh, enabled global registry; restored afterwards."""
    old = set_metrics(MetricsRegistry(enabled=True))
    yield get_metrics()
    set_metrics(old)


def _counter(registry, name):
    return registry.snapshot().get(name, {}).get("value", 0)


class TestSerialPath:
    def test_single_process_never_builds_an_executor(self):
        pool = ResilientPool(1)
        assert pool.executor() is None
        assert list(pool.run_chunks(_square, [[1, 2], [3]])) == [[1, 4], [9]]
        assert not pool.used

    def test_serial_fn_used_on_the_serial_path(self):
        pool = ResilientPool(1)
        out = list(pool.run_chunks(_square, [[2]], serial_fn=_type_names))
        assert out == [["int"]]


def _scale(factor, chunk):
    return [factor * x for x in chunk]


def _context_type(context, chunk):
    return type(context).__name__


def _context_identity(context, chunk):
    return os.getpid(), id(context)


class TestProbeFallback:
    def test_unpicklable_context_degrades_loudly(self, armed_metrics, caplog):
        """Satellite: the silent pickle probe now warns and counts."""
        context = lambda: None  # noqa: E731 - unpicklable by design
        with ResilientPool(2, label="probe-test") as pool:
            with caplog.at_level("WARNING", logger="repro.service.pool"):
                mapped = pool.map_with_context(context, _context_type, [1, 2, 3])
            assert mapped.outputs == ["function"] * 3
            assert not mapped.pooled
            assert "does not pickle" in caplog.text
            assert "probe-test" in caplog.text
            assert _counter(armed_metrics, "pool.serial_fallback") == 1

            # The pool still serves the context — serially, without
            # re-warning — and serves other contexts pooled.
            again = pool.map_with_context(context, _context_type, [4, 5])
            assert again.outputs == ["function"] * 2
            assert _counter(armed_metrics, "pool.serial_fallback") == 1
            pooled = pool.map_with_context(3, _scale, [1, 2], chunksize=1)
            assert pooled.outputs == [[3], [6]]
            assert pooled.pooled

    def test_unpicklable_declines_instead_of_raising(self):
        """A context with an unpicklable member runs in process."""
        context = [lambda: None]
        with ResilientPool(2) as pool:
            mapped = pool.map_with_context(context, _context_size, [1, 2])
        assert mapped.outputs == [1, 1]
        assert not mapped.pooled


def _context_size(context, chunk):
    return len(context)


def _blob(obj):
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


class TestWorkerContextCache:
    """Worker side of context shipping: one unpickle per key, bounded."""

    @pytest.fixture(autouse=True)
    def _fresh_worker_cache(self):
        pool_module._worker_contexts.clear()
        yield
        pool_module._worker_contexts.clear()

    def test_resolve_unpickles_the_inline_blob(self):
        obj = {"not": "a handle"}
        assert pool_module.resolve_context("inline-key", _blob(obj)) == obj

    def test_resolve_memoises_by_key(self):
        blob = _blob([1, 2, 3])
        first = pool_module.resolve_context("key", blob)
        second = pool_module.resolve_context("key", blob)
        assert first is second  # cache hit, not a second unpickle

    def test_worker_cache_is_bounded(self):
        keys = [f"key-{i}" for i in range(pool_module.WORKER_CACHE_ENTRIES + 3)]
        for i, key in enumerate(keys):
            pool_module.resolve_context(key, _blob(f"payload-{i}"))
        cache = pool_module._worker_contexts
        assert len(cache) == pool_module.WORKER_CACHE_ENTRIES
        # FIFO: the oldest entries were evicted, the newest retained.
        assert keys[-1] in cache
        assert keys[0] not in cache


class TestMapWithContext:
    def test_in_process_path_never_pickles(self, armed_metrics):
        context = lambda: None  # noqa: E731 - would fail any pickling
        pool = ResilientPool(1)
        mapped = pool.map_with_context(context, _context_type, [1, 2, 3])
        assert mapped.outputs == ["function"] * 3
        assert not mapped.pooled
        assert _counter(armed_metrics, "pool.serial_fallback") == 0

    def test_workers_keep_one_context_across_calls(self):
        """Each worker unpickles a context once and reuses it for every
        later chunk and call — worker caches inside it stay warm."""
        context = {"payload": list(range(100))}
        seen = {}
        with ResilientPool(2) as pool:
            for _ in range(3):
                mapped = pool.map_with_context(
                    context, _context_identity, list(range(8)), chunksize=1
                )
                assert mapped.pooled
                for pid, ident in mapped.outputs:
                    seen.setdefault(pid, set()).add(ident)
        assert seen and all(len(idents) == 1 for idents in seen.values())

    def test_release_forgets_the_shipment(self):
        context = [1, 2, 3]
        with ResilientPool(2) as pool:
            pool.map_with_context(context, _context_type, [1, 2])
            assert id(context) in pool._shipments
            pool.release(context)
            assert id(context) not in pool._shipments
            pool.release(context)  # idempotent


class TestCrashRecovery:
    def test_worker_death_falls_back_to_serial(self, armed_metrics):
        chunks = [[1, 2], [3, 4], [5]]
        with ResilientPool(2, label="crash-test") as pool:
            out = list(pool.run_chunks(_crash_in_worker, chunks))
        assert out == [_square(c) for c in chunks]
        assert pool.broken
        assert _counter(armed_metrics, "pool.broken") == 1

    def test_broken_pool_stays_serial_without_respawn(self, armed_metrics):
        with ResilientPool(2) as pool:
            list(pool.run_chunks(_crash_in_worker, [[1]]))
            assert pool.broken
            assert pool.executor() is None
            # Later batches still complete, on the serial path.
            assert list(pool.run_chunks(_square, [[6]])) == [[36]]
        assert _counter(armed_metrics, "pool.respawns") == 0

    def test_respawn_rebuilds_after_crash(self, armed_metrics):
        with ResilientPool(2, respawn=True, label="svc") as pool:
            list(pool.run_chunks(_crash_in_worker, [[1], [2]]))
            assert pool.broken
            # Next batch gets a fresh executor and runs pooled again.
            assert list(pool.run_chunks(_square, [[7]])) == [[49]]
            assert not pool.broken
        assert _counter(armed_metrics, "pool.broken") == 1
        assert _counter(armed_metrics, "pool.respawns") == 1

    def test_unpicklable_item_mid_map_completes_serially(self, armed_metrics):
        # The lambda chunk cannot ship to a worker; the serial tail must
        # still evaluate it (no pickling in-process).
        chunks = [[1, 2], [lambda: None], [3]]
        with ResilientPool(2) as pool:
            out = list(pool.run_chunks(_type_names, chunks))
        assert out == [["int", "int"], ["function"], ["int"]]
        assert _counter(armed_metrics, "pool.broken") == 1


class TestCancellation:
    def test_check_cancel_raises_typed_error(self):
        check_cancel(None)
        check_cancel(lambda: False)
        with pytest.raises(JobCancelledError):
            check_cancel(lambda: True)

    def test_cancelled_batch_stops_immediately(self):
        pool = ResilientPool(1)
        with pytest.raises(JobCancelledError):
            list(pool.run_chunks(_square, [[1], [2]], cancel=lambda: True))

    def test_cancel_mid_batch_serial(self):
        seen = []

        def fn(chunk):
            seen.append(chunk)
            return chunk

        pool = ResilientPool(1)
        with pytest.raises(JobCancelledError):
            list(pool.run_chunks(fn, [[1], [2], [3]], cancel=lambda: len(seen) >= 2))
        assert seen == [[1], [2]]

    def test_cancel_mid_batch_pooled(self):
        polls = []
        with ResilientPool(2) as pool:
            with pytest.raises(JobCancelledError):
                for out in pool.run_chunks(
                    _square,
                    [[i] for i in range(20)],
                    cancel=lambda: len(polls) >= 3 or polls.append(None),
                ):
                    pass
        assert len(polls) >= 3

    def test_deadline_check_raises_through_run_chunks(self):
        pool = ResilientPool(1)
        expired = deadline_checker(0.0)
        time.sleep(0.005)
        with pytest.raises(JobTimeoutError):
            list(pool.run_chunks(_square, [[1]], cancel=expired))


class TestParentCpuClock:
    def test_thread_scoped_attribution(self):
        """Satellite: job A's parent CPU must not leak into job B's delta.

        A sibling thread burns CPU while this thread sleeps; a per-thread
        clock sees (almost) none of it, where ``process_time`` would see
        all of it.
        """
        stop = threading.Event()

        def burn():
            x = 0
            while not stop.is_set():
                x += 1

        spinner = threading.Thread(target=burn, daemon=True)
        t0 = parent_cpu_clock()
        spinner.start()
        try:
            time.sleep(0.3)
        finally:
            stop.set()
            spinner.join()
        delta = parent_cpu_clock() - t0
        # The sibling burned ~0.3s of process CPU; our thread mostly slept.
        assert delta < 0.15

    def test_own_work_is_counted(self):
        t0 = parent_cpu_clock()
        x = 0
        for i in range(2_000_00):
            x += i * i
        assert parent_cpu_clock() - t0 > 0.0


def _grid_candidates(n=6):
    base = terasort()
    return [
        Candidate(single_job_workflow(replace(base, num_reducers=r)), label=f"r{r}")
        for r in range(2, 2 + 2 * n, 2)
    ]


class TestTransportParity:
    """Pooled runs on owned and borrowed pools are bit-identical to the
    serial path."""

    def test_sweep_results_identical(self):
        cluster = paper_cluster()
        candidates = _grid_candidates()
        serial = SweepRunner(cluster).evaluate(candidates)
        expected = [(r.label, r.total_time_s, r.states) for r in serial]
        with SweepRunner(cluster, processes=2) as owned:
            results = owned.evaluate(candidates)
            assert owned.report.pool_used
        assert [(r.label, r.total_time_s, r.states) for r in results] == expected
        with ResilientPool(2, label="service") as pool:
            with SweepRunner(cluster, pool=pool) as borrowed:
                results = borrowed.evaluate(candidates)
                assert borrowed.report.pool_used
        assert [(r.label, r.total_time_s, r.states) for r in results] == expected

    def test_ensemble_aggregates_identical(self):
        """(base_seed, n) determinism holds on owned and borrowed pools."""
        cluster = paper_cluster()
        workflow = single_job_workflow(wordcount())
        serial_config = EnsembleConfig(replications=4, min_replications=4, base_seed=7)
        serial = EnsembleRunner(cluster, ensemble=serial_config).run(workflow)
        config = replace(serial_config, processes=2)
        owned = EnsembleRunner(cluster, ensemble=config).run(workflow)
        with ResilientPool(2, label="service") as pool:
            borrowed = EnsembleRunner(cluster, ensemble=config, pool=pool).run(workflow)
        for shipped in (owned, borrowed):
            assert shipped.samples == serial.samples
            assert shipped.quantiles == serial.quantiles
            assert shipped.makespan == serial.makespan
            assert shipped.pool_used
