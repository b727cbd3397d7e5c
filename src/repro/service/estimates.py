"""Hot-cached, coalesced estimate serving.

One estimate costs milliseconds (the paper's §V overhead result), so a
prediction service is dominated not by the model but by *redundancy*:
many tenants asking about the same workflow structure at once.  This
module removes that redundancy in two layers:

* **Hot cache** — finished estimates are kept in an LRU keyed by the
  (workflow, cluster, variant) values themselves.  Workflows and clusters
  are frozen value-hashed dataclasses with the workflow hash pinned at
  first use, so a lookup costs one cached hash; equality, not the hash,
  decides a match, so two requests naming the same structure share an
  entry no matter who sent them, and two unequal workflows never do.
* **Single-flight coalescer** — concurrent misses for the same key share
  one in-flight computation, and concurrent misses for *different* keys
  are drained into one batch through a single memoised
  :class:`~repro.sweep.SweepRunner` evaluation, whose batched BOE kernel
  (``BOEModel.solve_batch``) and candidate memo turn N concurrent
  requests into far fewer than N solves.  A single dedicated estimator
  thread owns the runner, so its caches need no locking.

Counters (armed registry only): ``service.estimate_requests``,
``service.cache_hits``, ``service.coalesced``, ``service.batches``, plus the
labeled family ``service.estimates{served=cache|coalesced|computed}``.  Each
request also opens an ``estimate.request`` span on the calling thread, so
estimate serving shows up inside the HTTP request's flame.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, TimeoutError as FutureTimeout
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.core.distributions import Variant
from repro.core.memo import LRUCache
from repro.dag.workflow import Workflow
from repro.errors import JobTimeoutError, ServiceError
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer


#: Cache identity of one estimate request: (workflow, cluster, variant).
_Key = Tuple[Workflow, Cluster, Variant]


class EstimateService:
    """Serve estimate requests through a hot cache and a request coalescer.

    Thread-safe: any number of request threads call :meth:`estimate`
    concurrently; one internal estimator thread drains pending misses in
    batches through a memoised :class:`~repro.sweep.SweepRunner` per
    variant.

    Args:
        cluster: default cluster for requests without an override.
        policy: scheduler policy forwarded to the runners.
        capacity: LRU hot-cache entries to retain.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy: str = "drf",
        capacity: int = 1024,
    ):
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1: {capacity}")
        self._cluster = cluster
        self._policy = policy
        self._cache = LRUCache(capacity)
        self._inflight: Dict[_Key, Future] = {}
        self._pending: List[Tuple[_Key, Workflow, Optional[Cluster], Variant]] = []
        self._runners: Dict[str, Any] = {}
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._drain_loop, name="estimate-service", daemon=True
        )
        self._thread.start()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join()
        for runner in self._runners.values():
            runner.close()

    def __enter__(self) -> "EstimateService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def cache_size(self) -> int:
        with self._cond:
            return len(self._cache)

    # -- the request path --------------------------------------------------------

    def estimate(
        self,
        workflow: Workflow,
        cluster: Optional[Cluster] = None,
        variant: Variant = Variant.MEAN,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Estimate ``workflow``, served from cache / coalesced when possible.

        Returns the response payload with a ``served`` field recording how
        this particular request was satisfied: ``"cache"`` (hot-cache
        hit), ``"coalesced"`` (joined an in-flight computation) or
        ``"computed"`` (this request triggered the evaluation).  The
        estimate values themselves are bit-identical across all three
        paths — and to a direct :func:`repro.core.estimator.estimate_workflow`
        call — because every path runs (or replays) the same memoised
        estimator.  A result not ready within ``timeout`` seconds raises
        :class:`~repro.errors.JobTimeoutError` (HTTP 504).
        """
        registry = get_metrics()
        if registry.enabled:
            registry.counter("service.estimate_requests").inc()
        # Request-thread span: the computation itself runs on the estimator
        # thread (outside any one request's context, since a batch serves
        # many), so this span is what places the estimate — and which path
        # served it — inside the calling request's flame.
        with get_tracer().span("estimate.request", variant=variant.value) as span:
            key = (
                workflow,
                cluster if cluster is not None else self._cluster,
                variant,
            )
            with self._cond:
                if self._closed:
                    raise ServiceError("estimate service is closed")
                hit = self._cache.get(key)
                if hit is not None:
                    if registry.enabled:
                        registry.counter("service.cache_hits").inc()
                        registry.labeled_counter(
                            "service.estimates", served="cache"
                        ).inc()
                    span.set(served="cache")
                    return dict(hit, served="cache")
                future = self._inflight.get(key)
                if future is not None:
                    served = "coalesced"
                    if registry.enabled:
                        registry.counter("service.coalesced").inc()
                else:
                    served = "computed"
                    future = Future()
                    self._inflight[key] = future
                    self._pending.append((key, workflow, cluster, variant))
                    self._cond.notify()
            if registry.enabled:
                registry.labeled_counter("service.estimates", served=served).inc()
            span.set(served=served)
            try:
                return dict(future.result(timeout), served=served)
            except FutureTimeout:
                raise JobTimeoutError(
                    f"estimate not ready within timeout_s={timeout}"
                ) from None

    # -- the estimator thread ----------------------------------------------------

    def _runner_for(self, variant: Variant):
        runner = self._runners.get(variant.value)
        if runner is None:
            from repro.sweep.runner import SweepRunner

            # Serial runner: an estimate is milliseconds, so the win is the
            # shared candidate memo and BOE caches, not a process pool.
            runner = SweepRunner(
                self._cluster, variant=variant, policy=self._policy
            )
            self._runners[variant.value] = runner
        return runner

    def _drain_loop(self) -> None:
        from repro.sweep.runner import Candidate

        registry = get_metrics()
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
                batch = self._pending
                self._pending = []
            if registry.enabled:
                registry.counter("service.batches").inc()
            by_variant: Dict[str, List] = {}
            for entry in batch:
                by_variant.setdefault(entry[3].value, []).append(entry)
            for entries in by_variant.values():
                variant = entries[0][3]
                candidates = [
                    Candidate(workflow, cluster=cluster)
                    for _, workflow, cluster, _ in entries
                ]
                try:
                    results = self._runner_for(variant).evaluate(candidates)
                except BaseException as exc:  # pragma: no cover - defensive
                    # Infeasible candidates are captured per-result, so
                    # this only fires on an estimator bug; propagate it to
                    # every waiter rather than wedging their futures.
                    self._fail_entries(entries, exc)
                    continue
                for (key, *_), result in zip(entries, results):
                    payload = {
                        "workflow": result.label,
                        "ok": result.ok,
                        "total_time_s": result.total_time_s,
                        "states": result.states,
                        "overhead_ms": result.overhead_s * 1000.0,
                        "variant": variant.value,
                        "error": result.error,
                    }
                    with self._cond:
                        future = self._inflight.pop(key)
                        if result.ok:
                            self._cache.put(key, payload)
                    future.set_result(payload)

    def _fail_entries(self, entries, exc: BaseException) -> None:
        futures = []
        with self._cond:
            for key, *_ in entries:
                future = self._inflight.pop(key, None)
                if future is not None:
                    futures.append(future)
        for future in futures:
            future.set_exception(exc)
