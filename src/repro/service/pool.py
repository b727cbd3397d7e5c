"""Crash-tolerant process pool: the one pooled-execution primitive.

:class:`~repro.sweep.SweepRunner`, the ensemble replication driver and the
service's jobs all fan pure work out through
:meth:`ResilientPool.map_with_context`; the service multiplexes *many*
such calls over one pool.  This module owns everything they share:

* **Context shipping.**  A caller's read-only context (cluster, task-time
  sources, simulation variants) is pickled once per context object, and
  every chunk carries the blob inline (measured contexts are 1–12 KB).
  Workers memoise the unpickled context under a per-context key in a
  bounded FIFO cache, so the caches inside it stay warm across chunks and
  calls.
* **Loud serial degradation.**  A context that does not pickle (closures,
  open handles) cannot ride a pool.  The pickle probe logs the reason at
  WARNING and counts ``pool.serial_fallback``, because silent degradation
  hides an order-of-magnitude throughput cliff.
* **Crash recovery.**  A worker that dies mid-map (OOM kill, ``os._exit``,
  a segfaulting extension) raises :class:`BrokenProcessPool` and poisons
  the executor.  :meth:`ResilientPool.run_chunks` catches the crash (and
  mid-map :class:`pickle.PicklingError` for unpicklable *items*), marks
  the pool broken (``pool.broken``) and finishes the not-yet-yielded
  chunks in the calling process — callers always receive complete,
  deterministic results.  With ``respawn=True`` (the service
  configuration) the next batch builds a fresh executor
  (``pool.respawns``); without it the pool stays serial.
* **Cooperative cancellation.**  Chunks are submitted through a bounded
  window, so a cancelled job stops feeding the pool, cancels its queued
  futures and releases the slots to other jobs.
* **Telemetry.**  Each pooled chunk reports its CPU time, a metrics delta
  and its spans (the context's ``chunk_span`` wrapping the work's own);
  the parent merges and ingests them in submission order.  In-process
  chunks record into the parent's registry and tracer directly.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import JobCancelledError
from repro.obs.context import clear_context
from repro.obs.metrics import get_metrics, snapshot_delta
from repro.obs.tracer import get_tracer

logger = logging.getLogger(__name__)

#: Callable polled between chunks: returns truthy to cancel the batch
#: cooperatively (mapped to :class:`~repro.errors.JobCancelledError`), or
#: raises its own :class:`~repro.errors.ReproError` (e.g. a deadline check
#: raising :class:`~repro.errors.JobTimeoutError`).
CancelCheck = Callable[[], bool]

#: Contexts a worker keeps unpickled, oldest evicted first.  The shared
#: service pool runs a handful of jobs concurrently; 8 covers them while
#: bounding worker memory when jobs churn.
WORKER_CACHE_ENTRIES = 8


def check_cancel(cancel: Optional[CancelCheck]) -> None:
    """Poll a cancellation check; raise :class:`JobCancelledError` if set."""
    if cancel is not None and cancel():
        raise JobCancelledError("job cancelled")


class MappedChunks(NamedTuple):
    """What :meth:`ResilientPool.map_with_context` returns.

    Attributes:
        outputs: ``work(context, chunk)`` per chunk, in chunk order.
        cpu_s: CPU seconds of the calling thread plus every pooled chunk.
        pooled: the batch ran on the executor (possibly with a serial
            crash tail).
    """

    outputs: List[Any]
    cpu_s: float
    pooled: bool


class _Shipment(NamedTuple):
    """A context as chunks carry it: worker cache key plus the pickled
    blob."""

    key: str
    blob: bytes


# -- worker side -----------------------------------------------------------------

#: Worker-side contexts by shipment key (oldest first).
_worker_contexts: "OrderedDict[str, Any]" = OrderedDict()


def _init_worker(metrics_enabled: bool, trace_enabled: bool) -> None:
    """Executor initializer: start every worker trace-clean and armed.

    On POSIX the worker forks from whichever thread first feeds the pool —
    possibly mid-request, with a live request context and open spans on
    its stack.  Left in place, every span the worker records would be
    stamped with (and parented under) work this process never did.  The
    registry and tracer are armed before any context is unpickled, since
    instruments bind at construction time.
    """
    clear_context()
    get_tracer().clear()
    if metrics_enabled:
        get_metrics().enable()
    if trace_enabled:
        get_tracer().enable()


def resolve_context(key: str, blob: bytes) -> Any:
    """Worker-side: the context behind a shipment, unpickled once per key."""
    if key in _worker_contexts:
        return _worker_contexts[key]
    context = pickle.loads(blob)
    while len(_worker_contexts) >= WORKER_CACHE_ENTRIES:
        _worker_contexts.popitem(last=False)
    _worker_contexts[key] = context
    return context


def _run_chunk(payload: Tuple[Any, ...]) -> Tuple[Any, float, Dict, List]:
    """Worker-side chunk: ``work(context, items)`` in the telemetry envelope.

    Returns (output, CPU seconds, metrics delta, span rows).  The delta is
    empty unless the caller's registry was armed, and the span rows — the
    context's ``chunk_span`` wrapping whatever the work recorded — are
    empty unless its tracer was; the parent re-parents them via
    :meth:`~repro.obs.tracer.Tracer.ingest`.  Workers are single-threaded,
    so ``process_time`` is exactly the chunk's CPU share.
    """
    key, blob, work, items, metrics_on, trace_on = payload
    context = resolve_context(key, blob)
    registry = get_metrics()
    before = registry.snapshot() if metrics_on else {}
    tracer = get_tracer()
    if trace_on and not tracer.enabled:
        # A pool built before the caller armed its tracer.
        tracer.enable()
    mark = tracer.span_count if trace_on else 0
    span = (
        tracer.begin(getattr(context, "chunk_span", "pool.chunk"), items=len(items))
        if trace_on
        else None
    )
    cpu0 = time.process_time()
    output = work(context, items)
    cpu_s = time.process_time() - cpu0
    tracer.finish(span)
    spans = tracer.export_since(mark) if trace_on else []
    metrics = snapshot_delta(registry.snapshot(), before) if metrics_on else {}
    return output, cpu_s, metrics, spans


# -- the pool --------------------------------------------------------------------


class ResilientPool:
    """A lazily-built, crash-surviving process pool.

    Forked workers start trace-clean and arm their metrics registry and
    tracer as the parent's were when the pool was built.

    Args:
        processes: worker process count; ``<= 1`` never builds an executor.
        label: appears in log lines and telemetry so concurrent pools are
            distinguishable ("sweep", "ensemble", "service").
        respawn: rebuild a fresh executor on the batch *after* a worker
            crash instead of staying serial forever.
    """

    def __init__(self, processes: int, label: str = "pool", respawn: bool = False):
        self._processes = processes
        self._label = label
        self._respawn = respawn
        self._arm = (get_metrics().enabled, get_tracer().enabled)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._broken = False  # a worker crashed since the last (re)build
        # id(context) -> (context, shipment or None when it does not
        # pickle).  Holding the context pins its id until release.
        self._shipments: Dict[int, Tuple[Any, Optional[_Shipment]]] = {}
        self._lock = threading.Lock()
        self.used = False  # did any batch actually run pooled?

    # -- lifecycle ---------------------------------------------------------------

    @property
    def processes(self) -> int:
        return self._processes

    @property
    def broken(self) -> bool:
        """A worker crash poisoned the current executor."""
        return self._broken

    def close(self) -> None:
        """Shut the executor down and forget every shipped context."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        with self._lock:
            self._shipments.clear()

    def __enter__(self) -> "ResilientPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def executor(self) -> Optional[ProcessPoolExecutor]:
        """The live executor, built on first use; ``None`` means serial."""
        if self._processes <= 1:
            return None
        if self._broken:
            if not self._respawn:
                return None
            self._broken = False
            self._executor = None
            registry = get_metrics()
            if registry.enabled:
                registry.counter("pool.respawns").inc()
            logger.info("%s pool: respawning after worker crash", self._label)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._processes,
                initializer=_init_worker,
                initargs=self._arm,
            )
        return self._executor

    # -- context shipping --------------------------------------------------------

    def _ship(self, context: Any) -> Optional[_Shipment]:
        """``context``'s shipment, made on first use; ``None`` if it does
        not pickle (logged at WARNING and counted once per context)."""
        with self._lock:
            entry = self._shipments.get(id(context))
            if entry is not None:
                return entry[1]
            shipment: Optional[_Shipment] = None
            try:
                blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                registry = get_metrics()
                if registry.enabled:
                    registry.counter("pool.serial_fallback").inc()
                logger.warning(
                    "%s pool: worker context does not pickle (%s: %s); "
                    "degrading to the serial path — expect an order-of-"
                    "magnitude slowdown on multi-core machines",
                    self._label,
                    type(exc).__name__,
                    exc,
                )
            else:
                shipment = _Shipment(os.urandom(16).hex(), blob)
            self._shipments[id(context)] = (context, shipment)
            return shipment

    def release(self, context: Any) -> None:
        """Forget ``context``'s shipment.

        Runners call this when they close; workers' copies age out of
        their bounded caches.  Releasing an unshipped context is a no-op.
        """
        with self._lock:
            self._shipments.pop(id(context), None)

    # -- crash bookkeeping -------------------------------------------------------

    def _mark_broken(self, exc: BaseException) -> None:
        self._broken = True
        registry = get_metrics()
        if registry.enabled:
            registry.counter("pool.broken").inc()
        logger.warning(
            "%s pool: worker failure mid-map (%s: %s); completing the "
            "remaining chunks serially%s",
            self._label,
            type(exc).__name__,
            exc,
            " and respawning for the next batch" if self._respawn else "",
        )
        if self._executor is not None:
            # A broken executor shuts down without joining dead workers;
            # unpicklable-item failures leave it healthy, but the serial
            # tail will re-run everything pending anyway.
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- the resilient maps ------------------------------------------------------

    def map_with_context(
        self,
        context: Any,
        work: Callable[[Any, Sequence[Any]], Any],
        items: Sequence[Any],
        chunksize: Optional[int] = None,
        cancel: Optional[CancelCheck] = None,
    ) -> MappedChunks:
        """Run ``work(context, chunk)`` over chunks of ``items``, in order.

        ``work`` must be a pure module-level function: pooled and
        in-process chunks then give bit-identical outputs.  Chunks hold
        ``chunksize`` items (default ``ceil(n / (4 * processes))``).

        With ``processes <= 1``, fewer than two items, a context that does
        not pickle, or a broken pool without respawn, every chunk runs in
        the calling process with no pickling at all.  Otherwise the
        context ships once (see :meth:`_ship`) and the chunks fan out
        through :meth:`run_chunks`; a worker crash finishes the rest in
        process, with zero CPU, no metrics and no spans reported for them
        (the caller's own clock, registry and tracer already saw that
        work).  ``cancel`` is polled before every chunk.
        """
        size = chunksize or max(1, -(-len(items) // (4 * max(1, self._processes))))
        chunks = [items[i : i + size] for i in range(0, len(items), size)]
        cpu0 = parent_cpu_clock()
        shipment = None
        if self._processes > 1 and len(items) > 1:
            shipment = self._ship(context)
        if shipment is None or self.executor() is None:
            outputs = []
            for chunk in chunks:
                check_cancel(cancel)
                outputs.append(work(context, chunk))
            return MappedChunks(outputs, parent_cpu_clock() - cpu0, False)

        registry = get_metrics()
        tracer = get_tracer()
        payloads = [
            (shipment.key, shipment.blob, work, chunk, registry.enabled, tracer.enabled)
            for chunk in chunks
        ]
        outputs = []
        worker_cpu = 0.0
        for output, chunk_cpu, chunk_metrics, chunk_spans in self.run_chunks(
            _run_chunk,
            payloads,
            serial_fn=lambda payload: (work(context, payload[3]), 0.0, {}, []),
            cancel=cancel,
        ):
            outputs.append(output)
            worker_cpu += chunk_cpu
            if chunk_metrics:
                registry.merge(chunk_metrics)
            if chunk_spans:
                # Re-anchor worker spans under the caller's open span (this
                # runs on its thread); inside the service the active
                # request context stamps its trace id too.
                tracer.ingest(chunk_spans)
        return MappedChunks(outputs, parent_cpu_clock() - cpu0 + worker_cpu, True)

    def run_chunks(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Any],
        serial_fn: Optional[Callable[[Any], Any]] = None,
        cancel: Optional[CancelCheck] = None,
    ) -> Iterator[Any]:
        """Yield ``fn(chunk)`` per chunk, in order, surviving worker death.

        Chunks are submitted through a bounded window (two per worker) so a
        cooperative cancellation stops feeding the pool and cancels queued
        futures instead of draining the batch.  On
        :class:`BrokenProcessPool` / mid-map :class:`pickle.PicklingError`
        the pool is marked broken and every chunk not yet yielded is
        re-evaluated with ``serial_fn`` (default ``fn``) in the calling
        process — results stay complete and, because chunk evaluators are
        pure, bit-identical to an all-serial run.

        ``cancel`` is polled before each yield; a truthy return raises
        :class:`~repro.errors.JobCancelledError`, and the check may raise
        its own typed error (deadlines).  Either way queued futures are
        cancelled and in-flight slots drain naturally to other users.
        """
        serial = serial_fn if serial_fn is not None else fn
        check_cancel(cancel)
        registry = get_metrics()
        pooled_ctr = serial_ctr = None
        if registry.enabled:
            # Per-pool, per-path chunk accounting: a ``path=serial`` count
            # on a multi-process pool is the crash/fallback tail showing up
            # in the metrics instead of only in the logs.
            pooled_ctr = registry.labeled_counter(
                "pool.chunks", pool=self._label, path="pooled"
            )
            serial_ctr = registry.labeled_counter(
                "pool.chunks", pool=self._label, path="serial"
            )
        done = 0
        executor = self.executor()
        if executor is not None:
            self.used = True
            window = 2 * self._processes
            pending: deque = deque()
            index = done
            try:
                while done < len(chunks):
                    while index < len(chunks) and len(pending) < window:
                        pending.append(executor.submit(fn, chunks[index]))
                        index += 1
                    try:
                        result = pending.popleft().result()
                    except (BrokenProcessPool, pickle.PicklingError) as exc:
                        self._mark_broken(exc)
                        break
                    except (AttributeError, TypeError) as exc:
                        # pickle reports unpicklable *items* as AttributeError
                        # ("Can't pickle local object ...") or TypeError
                        # ("cannot pickle '_thread.lock' object"), not
                        # PicklingError; anything else is a genuine work
                        # error and must propagate.
                        if "pickle" not in str(exc):
                            raise
                        self._mark_broken(exc)
                        break
                    check_cancel(cancel)
                    if pooled_ctr is not None:
                        pooled_ctr.inc()
                    yield result
                    done += 1
            finally:
                for future in pending:
                    future.cancel()
        for chunk in chunks[done:]:
            check_cancel(cancel)
            result = serial(chunk)
            if serial_ctr is not None:
                serial_ctr.inc()
            yield result


def parent_cpu_clock() -> float:
    """The parent-side CPU clock for per-job accounting.

    ``time.thread_time`` rather than ``time.process_time``: once one shared
    pool serves concurrent service jobs (each driven from its own thread),
    a process-wide clock would attribute job A's parent CPU to job B's
    delta.  Thread CPU time is exactly the calling job's share.  Worker
    processes are single-threaded, so their chunk deltas keep
    ``process_time`` (identical there) for pickle-friendly symmetry.
    """
    return time.thread_time()
