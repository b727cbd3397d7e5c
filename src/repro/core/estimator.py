"""Algorithm 1 — state-based cost estimation for a DAG workflow (§IV).

The estimator walks the workflow through its states.  Per iteration it

1. estimates the degree of parallelism ``Delta_i`` of every running job
   (scheduler equilibrium, :mod:`repro.core.parallelism`);
2. obtains each running stage's per-task time distribution from a pluggable
   :class:`TaskTimeSource` — the BOE model for end-to-end prediction, or
   measured profiles for the Table III setting ("to eliminate the error of
   task-level models, we use task execution time profiles");
3. computes each stage's remaining duration via wave arithmetic
   (:func:`repro.core.distributions.stage_time`) under the chosen variant
   (Alg1-Mean / Alg1-Mid / Alg2-Normal);
4. advances time to the earliest stage completion, updates everyone else's
   progress, and transitions the workflow (map -> reduce, job completion,
   DAG children arriving).

``t_dag = sum_s t_stage(s)`` falls out as the sum of state durations.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.core.boe import BOEModel
from repro.core.distributions import (
    TaskTimeDistribution,
    Variant,
    stage_time,
    wave_sizes,
)
from repro.core.fingerprint import CacheStats
from repro.core.incremental import (
    Checkpoint,
    SpanEntry,
    Trajectory,
    TrajectoryCache,
)
from repro.core.parallelism import RunningStage, estimate_parallelism
from repro.core.state import DagEstimate, EstimatedState, WorkflowProgress
from repro.dag.workflow import Workflow
from repro.errors import EstimationError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.stage import StageKind
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

_EPS = 1e-9
_MAX_ITERATIONS = 100_000

logger = logging.getLogger(__name__)


#: One estimator query: (job, stage kind, Delta, concurrent-load triples).
Point = Tuple[
    MapReduceJob,
    StageKind,
    float,
    Sequence[Tuple[MapReduceJob, StageKind, float]],
]


class TaskTimeSource(Protocol):
    """Supplies per-task time distributions to the workflow estimator.

    Sources may additionally provide a ``distribution_batch(points)``
    method evaluating a whole vector of :data:`Point` queries in one pass
    (the batched BOE kernel); :class:`DagEstimator` uses it when present.
    Batched results must be bit-identical to per-point calls — every source
    in this package guarantees that by running the same arithmetic and only
    amortising setup.
    """

    def distribution(
        self,
        job: MapReduceJob,
        kind: StageKind,
        delta: float,
        concurrent: Sequence[Tuple[MapReduceJob, StageKind, float]],
    ) -> TaskTimeDistribution:
        """Task-time distribution of (job, kind) at parallelism ``delta``
        while ``concurrent`` stages share the cluster."""
        ...  # pragma: no cover - protocol


class BOESource:
    """Task times from the BOE model (fully analytic, no measurements).

    Attributes:
        model: the BOE model to evaluate.
        skew_cv: optional coefficient of variation attributed to data skew;
            task time scales with task input, so a skewed input distribution
            widens the task-time distribution by roughly the same CV.  Used
            by the Alg2-Normal variant; 0 keeps the distribution degenerate.
        include_overhead: add the job's configured per-task startup cost
            (container launch) to the planned task time.  The overhead is
            declared configuration, not a measurement, so using it keeps the
            estimate fully analytic; the Fig. 6 task-level evaluation calls
            :meth:`BOEModel.task_time` directly and is unaffected.
    """

    def __init__(
        self, model: BOEModel, skew_cv: float = 0.0, include_overhead: bool = True
    ):
        if skew_cv < 0:
            raise EstimationError(f"skew CV must be >= 0: {skew_cv}")
        self._model = model
        self._skew_cv = skew_cv
        self._include_overhead = include_overhead

    @property
    def model(self) -> BOEModel:
        return self._model

    @property
    def skew_cv(self) -> float:
        return self._skew_cv

    @property
    def include_overhead(self) -> bool:
        return self._include_overhead

    @property
    def cache_stats(self) -> CacheStats:
        """The wrapped model's task-time cache ledger (sweep observability)."""
        return self._model.cache_stats

    def _wrap(self, job: MapReduceJob, duration: float) -> TaskTimeDistribution:
        value = duration
        if self._include_overhead:
            value += job.config.task_overhead_s
        return TaskTimeDistribution(
            mean=value, median=value, std=value * self._skew_cv, n=0
        )

    def distribution(
        self,
        job: MapReduceJob,
        kind: StageKind,
        delta: float,
        concurrent: Sequence[Tuple[MapReduceJob, StageKind, float]],
    ) -> TaskTimeDistribution:
        estimate = self._model.task_time(job, kind, delta, concurrent)
        return self._wrap(job, estimate.duration)

    def distribution_batch(
        self, points: Sequence[Point]
    ) -> List[TaskTimeDistribution]:
        """Vectorised :meth:`distribution` via the batched BOE kernel."""
        estimates = self._model.solve_batch(points)
        return [
            self._wrap(job, estimate.duration)
            for (job, _, _, _), estimate in zip(points, estimates)
        ]


class ScaledSource:
    """Wrap a task-time source with a multiplicative correction factor.

    The prime use is fault tolerance: under a task-attempt failure rate the
    expected work per task grows by
    :meth:`repro.simulator.failures.FailureModel.expected_work_factor`, and
    Algorithm 1 stays unchanged — only the per-task time stretches.

    Example::

        failures = FailureModel(probability=0.05)
        source = ScaledSource(BOESource(model), failures.expected_work_factor())
    """

    def __init__(self, inner: TaskTimeSource, factor: float):
        if factor <= 0:
            raise EstimationError(f"scale factor must be positive: {factor}")
        self._inner = inner
        self._factor = factor

    @property
    def cache_stats(self) -> Optional[CacheStats]:
        """Delegate cache observability to the wrapped source, if any."""
        return getattr(self._inner, "cache_stats", None)

    def distribution(
        self,
        job: MapReduceJob,
        kind: StageKind,
        delta: float,
        concurrent: Sequence[Tuple[MapReduceJob, StageKind, float]],
    ) -> TaskTimeDistribution:
        return self._inner.distribution(job, kind, delta, concurrent).scaled(
            self._factor
        )

    def distribution_batch(
        self, points: Sequence[Point]
    ) -> List[TaskTimeDistribution]:
        """Vectorised lookup: batch through the inner source when it can."""
        batch = getattr(self._inner, "distribution_batch", None)
        if batch is not None:
            inner = batch(points)
        else:
            inner = [self._inner.distribution(*point) for point in points]
        return [dist.scaled(self._factor) for dist in inner]


@dataclass
class _StageProgress:
    job: MapReduceJob
    kind: StageKind
    remaining: float  # task-equivalents of work left (fractional mid-flight)
    total: float  # task count of the stage
    t_start: float
    prev_delta: float = 0.0  # parallelism granted in the previous state


class DagEstimator:
    """State-based DAG workflow cost estimator (Algorithm 1).

    With a :class:`~repro.core.incremental.TrajectoryCache` attached the
    estimator records per-state checkpoints after every full run and, on
    the next candidate, resumes Algorithm 1 from the longest provably
    unaffected state prefix instead of ``t = 0`` — see
    :mod:`repro.core.incremental` for the reuse invariant.  With ``batch``
    (the default) and a source exposing ``distribution_batch``, each
    state's task-time queries are evaluated in one vectorised call.  Both
    paths are bit-identical to the cold serial estimator.
    """

    def __init__(
        self,
        cluster: Cluster,
        source: TaskTimeSource,
        variant: Variant = Variant.MEAN,
        policy: str = "drf",
        enforce_vcores: bool = False,
        trajectory_cache: Optional[TrajectoryCache] = None,
        batch: bool = True,
    ):
        self._cluster = cluster
        self._source = source
        self._variant = variant
        self._policy = policy
        self._enforce_vcores = enforce_vcores
        self._trajectories = trajectory_cache
        self._batched = bool(batch) and callable(
            getattr(source, "distribution_batch", None)
        )
        # Observability hooks, resolved once (None = fully disabled; see
        # repro.obs — results never depend on them).
        tracer = get_tracer()
        metrics = get_metrics()
        self._otr = tracer if tracer.enabled else None
        self._ctr_iterations = (
            metrics.counter("est.iterations") if metrics.enabled else None
        )
        self._ctr_prefix = (
            metrics.counter("estimator.prefix_states_reused")
            if metrics.enabled
            else None
        )

    @property
    def trajectory_cache(self) -> Optional[TrajectoryCache]:
        return self._trajectories

    @staticmethod
    def _ragged_tail(progress: _StageProgress, delta: float) -> Optional[float]:
        """Size of a ragged final wave, or ``None`` when the stage is even.

        A stage whose task count is not a multiple of its parallelism runs a
        ragged final wave at *lower* parallelism — and for contention-driven
        task times (the BOE source) those final tasks are genuinely faster.
        """
        waves = wave_sizes(progress.total, delta)
        per_wave = max(1, int(delta + 1e-9))
        if len(waves) < 2 or waves[-1] >= per_wave:
            return None
        return float(waves[-1])

    def _whole_stage_time(
        self,
        progress: _StageProgress,
        delta: float,
        dist: TaskTimeDistribution,
        tail_dist: Optional[TaskTimeDistribution],
    ) -> float:
        """Whole-stage duration with a wave-aware final correction.

        ``tail_dist`` is the re-priced distribution of the ragged final
        wave (pre-fetched by the caller so the lookup can ride the batched
        kernel), or ``None`` when :meth:`_ragged_tail` found none; sources
        that ignore ``delta`` (measured profiles) are unaffected.
        """
        if tail_dist is None:
            return stage_time(progress.total, delta, dist, self._variant)
        waves = wave_sizes(progress.total, delta)
        per_wave = max(1, int(delta + 1e-9))
        if self._variant is Variant.NORMAL:
            body = (progress.total - waves[-1]) / per_wave * dist.mean
            return body + tail_dist.expected_wave_max(waves[-1])
        return (len(waves) - 1) * dist.statistic(self._variant) + tail_dist.statistic(
            self._variant
        )

    def estimate(
        self,
        workflow: Workflow,
        initial: Optional[WorkflowProgress] = None,
    ) -> DagEstimate:
        """Estimate the execution plan and total time of ``workflow``.

        With ``initial`` the estimate resumes from a mid-execution snapshot
        and ``total_time`` becomes the *remaining* time — the progress-
        estimation application (see :mod:`repro.progress`).
        """
        t_wall = time.perf_counter()
        # Trajectory reuse only applies to full runs: a mid-execution
        # snapshot (`initial`) starts from measured progress, not from
        # state 0, so its states are not comparable across candidates.
        cache = self._trajectories if initial is None else None
        match = (
            cache.match(
                workflow,
                self._cluster,
                self._variant,
                self._policy,
                self._enforce_vcores,
                self._source,
            )
            if cache is not None
            else None
        )
        run_span = (
            self._otr.begin(
                "est.run",
                workflow=workflow.name,
                variant=self._variant.value,
                resumed=initial is not None,
                prefix=match.prefix if match is not None else 0,
            )
            if self._otr is not None
            else None
        )
        running: Dict[str, _StageProgress] = {}
        done: Set[str] = set()
        arrival: Dict[str, int] = {}
        now = 0.0
        states: List[EstimatedState] = []
        spans: Dict[Tuple[str, StageKind], Tuple[float, float]] = {}
        span_log: List[SpanEntry] = []
        checkpoints: List[Checkpoint] = []

        def start_stage(
            name: str, kind: StageKind, remaining: Optional[float] = None
        ) -> None:
            job = workflow.job(name)
            # FIFO/fair policies serve jobs by arrival; a job keeps its slot
            # in that order across its own map -> reduce transition.
            arrival.setdefault(name, len(arrival))
            tasks = float(job.num_tasks(kind))
            resumed_mid_flight = remaining is not None and remaining < tasks
            running[name] = _StageProgress(
                job=job,
                kind=kind,
                remaining=tasks if remaining is None else min(remaining, tasks),
                total=tasks,
                t_start=now,
                # A stage resumed mid-flight may have up to a full slot grant
                # of tasks already running; seed the demand cap accordingly
                # (the scheduler clamps it to the actual slots).
                prev_delta=tasks if resumed_mid_flight else 0.0,
            )

        if match is not None:
            # Resume Algorithm 1 from the longest reusable checkpoint (an
            # identical candidate resumes from the final one, with nothing
            # left to iterate).  The running entries are restored in the
            # cached dict order — the order fixes every stage's
            # concurrent-load signature, so it is part of the bit-identical
            # guarantee.
            trajectory = match.trajectory
            prefix = match.prefix
            checkpoint = trajectory.checkpoints[prefix - 1]
            now = checkpoint.now
            done = set(checkpoint.done)
            arrival = {name: i for i, name in enumerate(checkpoint.arrival)}
            for name, kind, remaining, total, t_start, prev_delta in checkpoint.running:
                running[name] = _StageProgress(
                    job=workflow.job(name),
                    kind=kind,
                    remaining=remaining,
                    total=total,
                    t_start=t_start,
                    prev_delta=prev_delta,
                )
            states = list(trajectory.states[:prefix])
            span_log = [entry for entry in trajectory.span_log if entry[0] <= prefix]
            spans = {key: span for _, key, span in span_log}
            checkpoints = list(trajectory.checkpoints[:prefix])
            cache.stats.states_reused += prefix
            if self._ctr_prefix is not None:
                self._ctr_prefix.inc(prefix)
        elif initial is None:
            for name in workflow.roots():
                start_stage(name, StageKind.MAP)
        else:
            done = set(initial.completed_jobs)
            for name, (kind, remaining) in initial.running.items():
                start_stage(name, kind, remaining=remaining)
            # Jobs whose parents all finished before the snapshot but which
            # the snapshot does not list are about to launch their maps.
            for job_spec in workflow.jobs:
                name = job_spec.name
                if name in done or name in running:
                    continue
                parents = workflow.parents(name)
                if parents and all(p in done for p in parents):
                    start_stage(name, StageKind.MAP)
                elif not parents:
                    start_stage(name, StageKind.MAP)

        iterations = 0
        while running:
            iterations += 1
            if iterations > _MAX_ITERATIONS:
                summary = ", ".join(
                    f"{p.job.name}/{p.kind.value}"
                    f" {p.remaining:.3f}/{p.total:.0f} tasks left"
                    f" (Delta={p.prev_delta:.2f})"
                    for p in running.values()
                )
                raise EstimationError(
                    f"estimator did not converge on {workflow.name!r}: "
                    f"{_MAX_ITERATIONS} states reached at t={now:.3f}s with "
                    f"{len(running)} stage(s) still running: [{summary}]"
                )
            iter_span = (
                self._otr.begin(
                    "est.state", index=iterations, sim_t_start=now
                )
                if self._otr is not None
                else None
            )

            # The scheduler demand cap is the number of *not yet completed*
            # tasks.  Fluid work accounting cannot distinguish "W task
            # equivalents pending" from "W spread as partial progress over a
            # full wave in flight", so we bound it from above: the tasks in
            # flight (at most the previous state's parallelism) plus the
            # pending work.  Under-capping here would starve a single-wave
            # stage whose tasks all stay in flight to the very end.
            stage_list = [
                RunningStage(
                    p.job,
                    p.kind,
                    min(p.total, math.ceil(p.remaining + p.prev_delta)),
                )
                for _, p in sorted(
                    running.items(), key=lambda item: arrival[item[0]]
                )
            ]
            deltas = estimate_parallelism(
                stage_list,
                self._cluster,
                policy=self._policy,
                enforce_vcores=self._enforce_vcores,
            )

            # Assemble the state's task-time queries: one main point per
            # running stage plus a re-priced point for each ragged final
            # wave.  With a batching source both vectors go through
            # ``distribution_batch`` (the batched BOE kernel shares one
            # substage decomposition per stage across the whole state);
            # otherwise the identical points are evaluated one by one.
            entries: List[
                Tuple[
                    str,
                    _StageProgress,
                    float,
                    List[Tuple[MapReduceJob, StageKind, float]],
                ]
            ] = []
            for name, progress in running.items():
                delta = max(deltas.get(name, 0.0), _EPS)
                concurrent = [
                    (other.job, other.kind, max(deltas.get(other_name, 0.0), _EPS))
                    for other_name, other in running.items()
                    if other_name != name
                ]
                entries.append((name, progress, delta, concurrent))

            main_points: List[Point] = [
                (progress.job, progress.kind, delta, concurrent)
                for _, progress, delta, concurrent in entries
            ]
            tails = [
                self._ragged_tail(progress, delta)
                for _, progress, delta, _ in entries
            ]
            tail_points: List[Point] = [
                (entries[i][1].job, entries[i][1].kind, tail, entries[i][3])
                for i, tail in enumerate(tails)
                if tail is not None
            ]
            if self._batched:
                main_dists = self._source.distribution_batch(main_points)
                tail_queue = (
                    self._source.distribution_batch(tail_points)
                    if tail_points
                    else []
                )
            else:
                main_dists = [
                    self._source.distribution(*point) for point in main_points
                ]
                tail_queue = [
                    self._source.distribution(*point) for point in tail_points
                ]
            tail_dists: List[Optional[TaskTimeDistribution]] = []
            queued = iter(tail_queue)
            for tail in tails:
                tail_dists.append(None if tail is None else next(queued))

            dists: Dict[str, TaskTimeDistribution] = {}
            rests: Dict[str, float] = {}
            for (name, progress, delta, concurrent), dist, tail_dist in zip(
                entries, main_dists, tail_dists
            ):
                dists[name] = dist
                progress.prev_delta = delta
                # Wave-quantized duration of the whole stage at the current
                # parallelism, scaled by the fraction of work left.  The
                # scaling (rather than re-quantizing the remaining task
                # count into waves) keeps in-flight partial progress: a wave
                # two-thirds done has one third of a wave left, not a whole
                # fresh wave.
                whole = self._whole_stage_time(progress, delta, dist, tail_dist)
                rests[name] = whole * (progress.remaining / progress.total)

            dt = min(rests.values())
            finishing = {name for name, rest in rests.items() if rest <= dt + _EPS}

            states.append(
                EstimatedState(
                    index=len(states) + 1,
                    t_start=now,
                    t_end=now + dt,
                    running=frozenset(
                        (p.job.name, p.kind) for p in running.values()
                    ),
                    deltas={n: deltas.get(n, 0.0) for n in running},
                    task_times={
                        (p.job.name, p.kind): dists[n].statistic(self._variant)
                        for n, p in running.items()
                    },
                )
            )
            now += dt

            # Progress everyone; transition the finishers.
            for name in list(running):
                progress = running[name]
                if name in finishing:
                    spans[(name, progress.kind)] = (progress.t_start, now)
                    span_log.append(
                        (len(states), (name, progress.kind), (progress.t_start, now))
                    )
                    del running[name]
                    if progress.kind is StageKind.MAP and not progress.job.is_map_only:
                        start_stage(name, StageKind.REDUCE)
                    else:
                        done.add(name)
                        for child in sorted(workflow.children(name)):
                            if child in done or child in running:
                                continue
                            parents = workflow.parents(child)
                            if all(p in done for p in parents):
                                start_stage(child, StageKind.MAP)
                    continue
                # Work accrued during dt at this stage's current rate
                # (task-equivalents per second = total / whole-stage time).
                if rests[name] > _EPS:
                    rate = progress.remaining / rests[name]
                    progress.remaining = max(0.0, progress.remaining - dt * rate)

            if cache is not None:
                checkpoints.append(
                    Checkpoint(
                        index=len(states),
                        now=now,
                        running=tuple(
                            (p.job.name, p.kind, p.remaining, p.total, p.t_start, p.prev_delta)
                            for p in running.values()
                        ),
                        done=frozenset(done),
                        arrival=tuple(arrival),
                        arrived=frozenset(arrival),
                    )
                )

            if iter_span is not None:
                self._otr.finish(
                    iter_span,
                    dt=dt,
                    finishing=",".join(sorted(finishing)),
                    still_running=len(running),
                )

        total = now
        if cache is not None:
            cache.stats.states_computed += iterations
            cache.record(
                Trajectory(
                    workflow=workflow,
                    cluster=self._cluster,
                    variant=self._variant,
                    policy=self._policy,
                    enforce_vcores=self._enforce_vcores,
                    source=self._source,
                    total_time=total,
                    states=tuple(states),
                    span_log=tuple(span_log),
                    checkpoints=tuple(checkpoints),
                    parents=cache.parents_of(workflow),
                )
            )
        overhead = time.perf_counter() - t_wall
        if self._ctr_iterations is not None:
            self._ctr_iterations.inc(iterations)
        if run_span is not None:
            self._otr.finish(
                run_span, total_time_s=total, states=len(states)
            )
        logger.debug(
            "estimated %s (%s): t_dag=%.3fs states=%d overhead=%.1fms",
            workflow.name,
            self._variant.value,
            total,
            len(states),
            overhead * 1e3,
        )
        return DagEstimate(
            workflow_name=workflow.name,
            total_time=total,
            states=states,
            stage_spans=spans,
            variant=self._variant.value,
            model_overhead_s=overhead,
        )


def estimate_workflow(
    workflow: Workflow,
    cluster: Cluster,
    source: Optional[TaskTimeSource] = None,
    variant: Variant = Variant.MEAN,
    policy: str = "drf",
) -> DagEstimate:
    """Convenience wrapper: BOE-sourced state-based estimate of a workflow."""
    if source is None:
        source = BOESource(BOEModel(cluster))
    return DagEstimator(cluster, source, variant=variant, policy=policy).estimate(
        workflow
    )
