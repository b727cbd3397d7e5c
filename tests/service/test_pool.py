"""Tests for the crash-tolerant shared pool engine."""

import os
import threading
import time

import pytest

from repro.errors import JobCancelledError, JobTimeoutError
from repro.obs import MetricsRegistry
from repro.obs.metrics import get_metrics, set_metrics
from repro.service.pool import ResilientPool, check_cancel, parent_cpu_clock
from repro.service.scheduler import deadline_checker

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
