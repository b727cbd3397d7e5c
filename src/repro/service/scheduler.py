"""Fair job scheduling for sweep/ensemble work over one shared pool.

Estimates answer inline (milliseconds); sweeps and ensembles are *jobs* —
seconds of pool time that must not monopolise the service.  This module
multiplexes them:

* **Fairness** — jobs queue per ``(priority, kind)``; workers always serve
  the most urgent priority, and round-robin across *kinds* within it, so
  a flood of sweep submissions cannot starve ensemble jobs of equal
  priority (and vice versa).
* **Cooperative deadlines and cancellation** — every job runs with a
  :data:`~repro.service.pool.CancelCheck` that the runners poll between
  chunks.  A deadline (measured from submission, so queue time counts)
  raises :class:`~repro.errors.JobTimeoutError`; an explicit
  :meth:`Job.cancel` raises :class:`~repro.errors.JobCancelledError`.
  Either way the job stops feeding the shared pool at the next chunk
  boundary and its queued pool futures are released to other jobs.
* **Bounded retries** — transient failures re-run with exponential
  backoff up to ``retries`` times; cancellation and deadline expiry are
  never retried (they are answers, not failures).

Counters (armed registry only): ``jobs.submitted``, ``jobs.succeeded``,
``jobs.failed``, ``jobs.retries``, ``jobs.cancelled``, ``jobs.timeouts``.

Spans (armed tracer only): each job emits ``job.queue_wait`` (backdated to
submission, so scheduler queueing is visible in the request flame) and
``job.run`` around the attempt loop.  Both re-activate the *submitting*
request's trace context on the worker thread, so they — and everything the
work function nests under them, including worker-shipped pool chunk spans —
carry the originating request's ``trace_id``.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import JobCancelledError, JobTimeoutError, ReproError, ServiceError
from repro.obs.context import activate, current_context, deactivate
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.operations import arg, integer, number, pause
from repro.service.pool import CancelCheck, check_cancel

logger = logging.getLogger(__name__)


def deadline_checker(
    deadline_s: float, clock: Callable[[], float] = time.monotonic
) -> CancelCheck:
    """A :data:`CancelCheck` that raises once ``deadline_s`` has elapsed.

    The clock starts when the checker is *built* (at submission for
    service jobs, so time spent queued counts against the deadline —
    a late answer is late no matter where the time went).
    """
    start = clock()

    def check() -> bool:
        if clock() - start > deadline_s:
            raise JobTimeoutError(
                f"job exceeded its deadline of {deadline_s:.3f}s"
            )
        return False

    return check


@dataclass
class JobSpec:
    """What to run and how to treat it.

    Attributes:
        kind: scheduling class ("sweep", "ensemble", ...) — fairness
            round-robins across kinds within a priority.
        run: the work, called as ``run(cancel)``; it must poll ``cancel``
            between chunks (the runners do) for deadlines/cancellation to
            take effect.
        priority: lower is more urgent; ties are served fairly by kind.
        deadline_s: cooperative deadline measured from submission.
        retries: additional attempts after a failure (not after
            cancellation or deadline expiry).
        backoff_s: base sleep before retry *i* (``backoff_s * 2**i``).
        label: free-form description, surfaced by ``/jobs``.

    The service reads ``priority``, ``deadline_s``, ``retries`` and
    ``backoff_s`` from a request's params with
    :func:`repro.operations.parse`.
    """

    kind: str
    run: Callable[[Optional[CancelCheck]], Any]
    priority: int = arg(1, integer)
    deadline_s: Optional[float] = arg(None, number)
    retries: int = arg(0, integer)
    backoff_s: float = arg(0.05, pause)
    label: str = ""


class Job:
    """A submitted job: status, outcome, and the cancellation handle."""

    #: Terminal states a job can reach.
    TERMINAL = ("succeeded", "failed", "cancelled", "timeout")

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.status = "queued"
        self.result: Any = None
        self.error: Optional[str] = None
        self._failure: Optional[BaseException] = None
        self.attempts = 0
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        self._done = threading.Event()
        self._cancel = threading.Event()
        # Snapshot the submitting request's trace context: the job runs on
        # a worker thread later, and its spans must re-parent under the
        # HTTP request that queued it, not under whatever that thread was
        # doing.  perf_counter at submission backdates the queue-wait span.
        self.trace_context = current_context()
        self._submitted_perf = time.perf_counter()
        # Built at construction (== submission), so queue time counts
        # against the deadline: a late answer is late no matter where
        # the time went.
        self._deadline: Optional[CancelCheck] = (
            deadline_checker(spec.deadline_s)
            if spec.deadline_s is not None
            else None
        )

    def cancel(self) -> None:
        """Request cooperative cancellation (effective at the next chunk)."""
        self._cancel.set()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    def outcome(self, timeout: Optional[float] = None) -> Any:
        """The job's result; raises its typed error on any failure (the
        run's own :class:`~repro.errors.ReproError`, so a model error
        keeps its type), and :class:`~repro.errors.JobTimeoutError` when
        it is still running after ``timeout`` seconds."""
        if not self.wait(timeout):
            raise JobTimeoutError(f"job {self.id} still running after {timeout}s")
        if self.status == "succeeded":
            return self.result
        if self.status == "timeout":
            raise JobTimeoutError(self.error or f"job {self.id} timed out")
        if self.status == "cancelled":
            raise JobCancelledError(self.error or f"job {self.id} cancelled")
        if isinstance(self._failure, ReproError):
            raise self._failure
        raise ServiceError(self.error or f"job {self.id} failed")

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly status record for the ``/jobs`` endpoint."""
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "label": self.spec.label,
            "priority": self.spec.priority,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "trace_id": (
                self.trace_context.trace_id
                if self.trace_context is not None
                else None
            ),
        }


class JobScheduler:
    """Run jobs on worker threads with priority + kind-fair scheduling.

    Args:
        workers: concurrent jobs (each drives pool chunks from its own
            thread — see :func:`~repro.service.pool.parent_cpu_clock` for
            why per-thread CPU accounting matters here).
        history: completed jobs to retain for ``/jobs`` queries.
    """

    def __init__(self, workers: int = 2, history: int = 256):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1: {workers}")
        self._queues: Dict[Tuple[int, str], deque] = {}
        self._rr: Dict[int, itertools.count] = {}
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._history = history
        self._cond = threading.Condition()
        self._closed = False
        self._seq = itertools.count(1)
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"job-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission and queries --------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Queue a job; returns immediately with its :class:`Job` handle."""
        registry = get_metrics()
        if registry.enabled:
            registry.counter("jobs.submitted").inc()
        with self._cond:
            if self._closed:
                raise ServiceError("job scheduler is closed")
            job = Job(f"{spec.kind}-{next(self._seq)}", spec)
            self._jobs[job.id] = job
            excess = len(self._jobs) - self._history
            if excess > 0:
                # Evict the oldest *terminal* jobs; live ones stay however
                # old, so one long-running job cannot pin the history.
                finished = [
                    job_id
                    for job_id, old in self._jobs.items()
                    if old.status in Job.TERMINAL
                ]
                for job_id in finished[:excess]:
                    del self._jobs[job_id]
            self._queues.setdefault((spec.priority, spec.kind), deque()).append(job)
            self._cond.notify()
        return job

    def get(self, job_id: str) -> Job:
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; queued jobs settle at pickup, running jobs
        at their next chunk boundary."""
        job = self.get(job_id)
        job.cancel()
        with self._cond:
            self._cond.notify_all()
        return job

    def jobs(self) -> List[Job]:
        with self._cond:
            return list(self._jobs.values())

    # -- scheduling --------------------------------------------------------------

    def _next_job(self) -> Optional[Job]:
        """Pop the next job under the fairness policy (caller holds the lock).

        Most urgent priority first; within it, round-robin over the kinds
        that currently have queued work.
        """
        ready = [key for key, queue in self._queues.items() if queue]
        if not ready:
            return None
        priority = min(key[0] for key in ready)
        kinds = sorted({key[1] for key in ready if key[0] == priority})
        turn = next(self._rr.setdefault(priority, itertools.count()))
        kind = kinds[turn % len(kinds)]
        return self._queues[(priority, kind)].popleft()

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                job = self._next_job()
                while job is None and not self._closed:
                    self._cond.wait()
                    job = self._next_job()
                if job is None and self._closed:
                    return
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        registry = get_metrics()
        spec = job.spec
        deadline = job._deadline  # clock started at submission

        def check() -> bool:
            if job.cancel_requested:
                return True
            if deadline is not None:
                deadline()  # raises JobTimeoutError past the deadline
            return False

        # Re-activate the submitting request's context on this worker
        # thread for the duration of the job: thread-root spans opened
        # below (and everything the work function nests under them) parent
        # to the request span and carry its trace_id.
        token = (
            activate(job.trace_context)
            if job.trace_context is not None
            else None
        )
        tracer = get_tracer()
        run_span = None
        if tracer.enabled:
            # Queue wait as a zero-CPU span backdated to submission: the
            # gap between the request handler and the job's first chunk is
            # scheduler queueing, and it should be visible in the flame.
            queue_span = tracer.begin(
                "job.queue_wait", job=job.id, kind=spec.kind
            )
            if queue_span is not None:
                # Backdate wall time only; begin/finish back-to-back keeps
                # the CPU delta ~0, which is the truth for queue waiting.
                queue_span.t_start = job._submitted_perf
            tracer.finish(queue_span)
            run_span = tracer.begin(
                "job.run",
                job=job.id,
                kind=spec.kind,
                label=spec.label,
                priority=spec.priority,
            )
        try:
            self._run_job_attempts(job, spec, registry, check)
        except Exception as exc:
            # The retry path itself failed (say, a negative backoff_s that
            # time.sleep rejects): settle the job rather than let the
            # exception end this worker thread with the job left running.
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job._failure = exc
            if registry.enabled:
                registry.counter("jobs.failed").inc()
        finally:
            if run_span is not None:
                tracer.finish(
                    run_span, status=job.status, attempts=job.attempts
                )
            if token is not None:
                deactivate(token)
        job.finished_at = time.time()
        job._done.set()

    def _run_job_attempts(
        self,
        job: Job,
        spec: JobSpec,
        registry,
        check: CancelCheck,
    ) -> None:
        job.status = "running"
        attempt = 0
        while True:
            job.attempts = attempt + 1
            try:
                # Settle pre-pickup cancellations/expiries cheaply: raise
                # the typed error before the work function ever runs.
                check_cancel(check)
                job.result = spec.run(check)
                job.status = "succeeded"
                if registry.enabled:
                    registry.counter("jobs.succeeded").inc()
                break
            except JobCancelledError as exc:
                job.status = "cancelled"
                job.error = str(exc)
                if registry.enabled:
                    registry.counter("jobs.cancelled").inc()
                break
            except JobTimeoutError as exc:
                job.status = "timeout"
                job.error = str(exc)
                if registry.enabled:
                    registry.counter("jobs.timeouts").inc()
                break
            except Exception as exc:
                if attempt < spec.retries:
                    if registry.enabled:
                        registry.counter("jobs.retries").inc()
                    delay = spec.backoff_s * (2 ** attempt)
                    logger.warning(
                        "job %s attempt %d failed (%s: %s); retrying in %.2fs",
                        job.id, job.attempts, type(exc).__name__, exc, delay,
                    )
                    time.sleep(delay)
                    attempt += 1
                    continue
                job.status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job._failure = exc
                if registry.enabled:
                    registry.counter("jobs.failed").inc()
                logger.warning("job %s failed permanently: %s", job.id, job.error)
                break
