"""Algorithm 1 — state-based cost estimation for a DAG workflow (§IV).

The estimator walks the workflow through its states.  Each iteration runs
the paper's five steps, one :class:`DagEstimator` method each:

1. ``_parallelism`` — the degree of parallelism ``Delta_i`` of every
   running job (scheduler equilibrium, :mod:`repro.core.parallelism`);
2. ``_task_times`` — each running stage's per-task time distribution from
   a pluggable :class:`TaskTimeSource`: the BOE model for end-to-end
   prediction, or measured profiles for the Table III setting ("to
   eliminate the error of task-level models, we use task execution time
   profiles");
3. ``_first_stage_end`` — each stage's remaining duration via wave
   arithmetic (:func:`repro.core.distributions.stage_time`) under the
   chosen variant (Alg1-Mean / Alg1-Mid / Alg2-Normal), and the earliest
   stage completion, which ends the state;
4. ``_advance`` — everyone else's progress over the state;
5. ``_transition`` — map -> reduce, job completion, DAG children arriving.

``t_dag = sum_s t_stage(s)`` falls out as the sum of state durations.
``tests/core/test_algorithm1_oracle.py`` checks the whole loop, to the bit,
against a step-by-step transcription of the pseudocode.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
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


#: Per running stage: its task-time distribution and, for a ragged final
#: wave, the distribution at that wave's own parallelism.
_StageDists = Dict[str, Tuple[TaskTimeDistribution, Optional[TaskTimeDistribution]]]


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


@dataclass
class _Walk:
    """Algorithm 1's loop state over one workflow: the running stages in
    start order, the completed jobs, the arrival order the FIFO/fair
    policies serve by, the clock, and the plan recorded so far."""

    workflow: Workflow
    now: float = 0.0
    running: Dict[str, _StageProgress] = field(default_factory=dict)
    done: Set[str] = field(default_factory=set)
    arrival: Dict[str, int] = field(default_factory=dict)
    states: List[EstimatedState] = field(default_factory=list)
    spans: Dict[Tuple[str, StageKind], Tuple[float, float]] = field(
        default_factory=dict
    )

    def start(
        self, name: str, kind: StageKind, remaining: Optional[float] = None
    ) -> None:
        job = self.workflow.job(name)
        # FIFO/fair policies serve jobs by arrival; a job keeps its slot in
        # that order across its own map -> reduce transition.
        self.arrival.setdefault(name, len(self.arrival))
        tasks = float(job.num_tasks(kind))
        resumed_mid_flight = remaining is not None and remaining < tasks
        self.running[name] = _StageProgress(
            job=job,
            kind=kind,
            remaining=tasks if remaining is None else min(remaining, tasks),
            total=tasks,
            t_start=self.now,
            # A stage resumed mid-flight may have up to a full slot grant of
            # tasks already running; seed the demand cap accordingly (the
            # scheduler clamps it to the actual slots).
            prev_delta=tasks if resumed_mid_flight else 0.0,
        )


class DagEstimator:
    """State-based DAG workflow cost estimator (Algorithm 1).

    :meth:`estimate` iterates the workflow's states; each iteration runs the
    paper's steps as one method each — :meth:`_parallelism` (Delta_i),
    :meth:`_task_times`, :meth:`_first_stage_end`, :meth:`_advance` and
    :meth:`_transition`.  With ``batch`` (the default) and a source
    exposing ``distribution_batch``, each state's task-time queries are
    evaluated in one vectorised call, bit-identical to the per-point path.
    """

    def __init__(
        self,
        cluster: Cluster,
        source: TaskTimeSource,
        variant: Variant = Variant.MEAN,
        policy: str = "drf",
        enforce_vcores: bool = False,
        batch: bool = True,
    ):
        self._cluster = cluster
        self._source = source
        self._variant = variant
        self._policy = policy
        self._enforce_vcores = enforce_vcores
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
        run_span = (
            self._otr.begin(
                "est.run",
                workflow=workflow.name,
                variant=self._variant.value,
                resumed=initial is not None,
            )
            if self._otr is not None
            else None
        )
        walk = self._first_state(workflow, initial)
        while walk.running:
            if len(walk.states) >= _MAX_ITERATIONS:
                raise self._exhausted(walk)
            iter_span = (
                self._otr.begin(
                    "est.state", index=len(walk.states) + 1, sim_t_start=walk.now
                )
                if self._otr is not None
                else None
            )
            granted = self._parallelism(walk)
            deltas = {n: max(granted.get(n, 0.0), _EPS) for n in walk.running}
            dists = self._task_times(walk, deltas)
            dt, rests, finishing = self._first_stage_end(walk, deltas, dists)
            self._record_state(walk, granted, dists, dt)
            walk.now += dt
            self._advance(walk, deltas, rests, dt, finishing)
            self._transition(walk, finishing)
            if iter_span is not None:
                self._otr.finish(
                    iter_span,
                    dt=dt,
                    finishing=",".join(sorted(finishing)),
                    still_running=len(walk.running),
                )

        total = walk.now
        overhead = time.perf_counter() - t_wall
        if self._ctr_iterations is not None:
            self._ctr_iterations.inc(len(walk.states))
        if run_span is not None:
            self._otr.finish(run_span, total_time_s=total, states=len(walk.states))
        logger.debug(
            "estimated %s (%s): t_dag=%.3fs states=%d overhead=%.1fms",
            workflow.name,
            self._variant.value,
            total,
            len(walk.states),
            overhead * 1e3,
        )
        return DagEstimate(
            workflow_name=workflow.name,
            total_time=total,
            states=walk.states,
            stage_spans=walk.spans,
            variant=self._variant.value,
            model_overhead_s=overhead,
        )

    # -- Algorithm 1, one method per step ----------------------------------------

    @staticmethod
    def _first_state(
        workflow: Workflow, initial: Optional[WorkflowProgress]
    ) -> _Walk:
        """The running set at ``t = 0``: every root job's map stage, or the
        stages of a mid-execution snapshot."""
        walk = _Walk(workflow)
        if initial is None:
            for name in workflow.roots():
                walk.start(name, StageKind.MAP)
            return walk
        walk.done = set(initial.completed_jobs)
        for name, (kind, remaining) in initial.running.items():
            walk.start(name, kind, remaining=remaining)
        # Jobs whose parents all finished before the snapshot but which the
        # snapshot does not list are about to launch their maps.
        for job_spec in workflow.jobs:
            name = job_spec.name
            if name in walk.done or name in walk.running:
                continue
            if all(p in walk.done for p in workflow.parents(name)):
                walk.start(name, StageKind.MAP)
        return walk

    def _parallelism(self, walk: _Walk) -> Dict[str, float]:
        """Step 1: Delta_i per running job from the scheduler equilibrium.

        The scheduler demand cap is the number of *not yet completed*
        tasks.  Fluid work accounting cannot distinguish "W task
        equivalents pending" from "W spread as partial progress over a full
        wave in flight", so it is bounded from above: the tasks in flight
        (at most the previous state's parallelism) plus the pending work.
        Under-capping here would starve a single-wave stage whose tasks all
        stay in flight to the very end.
        """
        stages = [
            RunningStage(
                p.job, p.kind, min(p.total, math.ceil(p.remaining + p.prev_delta))
            )
            for _, p in sorted(
                walk.running.items(), key=lambda item: walk.arrival[item[0]]
            )
        ]
        return estimate_parallelism(
            stages,
            self._cluster,
            policy=self._policy,
            enforce_vcores=self._enforce_vcores,
        )

    def _task_times(
        self, walk: _Walk, deltas: Dict[str, float]
    ) -> _StageDists:
        """Step 2: each running stage's task-time distribution at its
        Delta_i under the others' load, plus — for a ragged final wave —
        the distribution at that wave's own, lower parallelism (for
        contention-driven task times those final tasks are genuinely
        faster).  All of a state's queries go to the source in one call.
        """
        main: List[Point] = []
        tails: List[Point] = []
        ragged: List[bool] = []
        for name, progress in walk.running.items():
            delta = deltas[name]
            concurrent = [
                (other.job, other.kind, deltas[other_name])
                for other_name, other in walk.running.items()
                if other_name != name
            ]
            main.append((progress.job, progress.kind, delta, concurrent))
            waves = wave_sizes(progress.total, delta)
            last = waves[-1]
            is_ragged = len(waves) >= 2 and last < max(1, int(delta + 1e-9))
            if is_ragged:
                tails.append((progress.job, progress.kind, float(last), concurrent))
            ragged.append(is_ragged)
        if self._batched:
            answers = self._source.distribution_batch(main + tails)
        else:
            answers = [self._source.distribution(*point) for point in main + tails]
        tail_answers = iter(answers[len(main):])
        return {
            name: (dist, next(tail_answers) if is_ragged else None)
            for name, dist, is_ragged in zip(walk.running, answers, ragged)
        }

    def _first_stage_end(
        self,
        walk: _Walk,
        deltas: Dict[str, float],
        dists: _StageDists,
    ) -> Tuple[float, Dict[str, float], Set[str]]:
        """Step 3: every stage's rest time, and the state's length — the
        first stage end — with the stages that finish at it.

        A stage's rest is its wave-quantized whole-stage duration at the
        current parallelism, scaled by the fraction of work left.  The
        scaling (rather than re-quantizing the remaining task count into
        waves) keeps in-flight partial progress: a wave two-thirds done
        has one third of a wave left, not a whole fresh wave.
        """
        rests: Dict[str, float] = {}
        for name, progress in walk.running.items():
            dist, tail = dists[name]
            whole = self._whole_stage_time(progress.total, deltas[name], dist, tail)
            rests[name] = whole * (progress.remaining / progress.total)
        dt = min(rests.values())
        return dt, rests, {name for name, rest in rests.items() if rest <= dt + _EPS}

    def _whole_stage_time(
        self,
        total: float,
        delta: float,
        dist: TaskTimeDistribution,
        tail: Optional[TaskTimeDistribution],
    ) -> float:
        """Wave-quantized stage duration; ``tail`` re-prices a ragged final
        wave (sources that ignore ``delta``, such as measured profiles,
        give it the same distribution)."""
        if tail is None:
            return stage_time(total, delta, dist, self._variant)
        waves = wave_sizes(total, delta)
        if self._variant is Variant.NORMAL:
            body = (total - waves[-1]) / max(1, int(delta + 1e-9)) * dist.mean
            return body + tail.expected_wave_max(waves[-1])
        return (len(waves) - 1) * dist.statistic(self._variant) + tail.statistic(
            self._variant
        )

    def _record_state(
        self,
        walk: _Walk,
        granted: Dict[str, float],
        dists: _StageDists,
        dt: float,
    ) -> None:
        """Append the state ``[now, now + dt)`` to the estimated plan."""
        walk.states.append(
            EstimatedState(
                index=len(walk.states) + 1,
                t_start=walk.now,
                t_end=walk.now + dt,
                running=frozenset((p.job.name, p.kind) for p in walk.running.values()),
                deltas={n: granted.get(n, 0.0) for n in walk.running},
                task_times={
                    (p.job.name, p.kind): dists[n][0].statistic(self._variant)
                    for n, p in walk.running.items()
                },
            )
        )

    @staticmethod
    def _advance(
        walk: _Walk,
        deltas: Dict[str, float],
        rests: Dict[str, float],
        dt: float,
        finishing: Set[str],
    ) -> None:
        """Step 4: every stage that does not finish accrues ``dt`` of work
        at its current rate (task-equivalents per second) and keeps its
        Delta_i for the next state's demand cap."""
        for name, progress in walk.running.items():
            if name in finishing:
                continue
            progress.prev_delta = deltas[name]
            if rests[name] > _EPS:
                rate = progress.remaining / rests[name]
                progress.remaining = max(0.0, progress.remaining - dt * rate)

    @staticmethod
    def _transition(walk: _Walk, finishing: Set[str]) -> None:
        """Step 5: a finished map stage hands over to its job's reduce
        stage; a finished job releases every child whose parents have all
        completed."""
        workflow = walk.workflow
        for name in [n for n in walk.running if n in finishing]:
            progress = walk.running.pop(name)
            walk.spans[(name, progress.kind)] = (progress.t_start, walk.now)
            if progress.kind is StageKind.MAP and not progress.job.is_map_only:
                walk.start(name, StageKind.REDUCE)
                continue
            walk.done.add(name)
            for child in sorted(workflow.children(name)):
                if child in walk.done or child in walk.running:
                    continue
                if all(p in walk.done for p in workflow.parents(child)):
                    walk.start(child, StageKind.MAP)

    @staticmethod
    def _exhausted(walk: _Walk) -> EstimationError:
        summary = ", ".join(
            f"{p.job.name}/{p.kind.value}"
            f" {p.remaining:.3f}/{p.total:.0f} tasks left"
            f" (Delta={p.prev_delta:.2f})"
            for p in walk.running.values()
        )
        return EstimationError(
            f"estimator did not converge on {walk.workflow.name!r}: "
            f"{_MAX_ITERATIONS} states reached at t={walk.now:.3f}s with "
            f"{len(walk.running)} stage(s) still running: [{summary}]"
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
