"""The Bottleneck Oriented Estimation (BOE) model — paper §III.

Given one task's sub-stage (a pipelined subset of read / transfer / compute /
write operations) and the resource competition of the current workflow state,
BOE estimates the sub-stage duration as

    t_sigma = max_X  D_X / (mu_X(Delta) * theta_X)          (Eq. 3-5)

i.e. the time of the *bottleneck* operation when every operation's resource
is split equally among its users.  Non-bottleneck operations overlap inside
the pipeline and end up at utilisation ``p_X = t_X / t_sigma < 1`` — the
quantities walked through in the paper's Fig. 4 example.

Counting the users of a resource needs care on two axes:

* **Synchronised vs staggered stages.**  A stage whose tasks all fit in one
  wave starts them together, so its tasks move through their sub-stages in
  lock step and all ``Delta`` of them compete inside the *same* sub-stage.
  A stage running many waves is *staggered*: at any instant its in-flight
  tasks are spread over its sub-stages in proportion to the sub-stage
  durations (a task spends ``t_s / t_task`` of its life in sub-stage ``s``),
  so a sub-stage only sees ``Delta * occupancy(s)`` competitors from its own
  stage.  :meth:`BOEModel.task_time` detects the regime from the stage's
  task count and solves the resulting occupancy fixed point.
* **Full vs partial usage (``refine``).**  The published model counts every
  task touching a resource as one full user (``mu_X = 1/Delta_X``).  The
  paper's own Eq. 4 carries a partial-usage term ``p_X * mu_X(Delta)``; with
  ``refine=True`` we iterate that to a fixed point, so a CPU-bound
  competitor occupies the disk only at its actual ``p_disk`` and the slack
  is redistributed — matching the max-min behaviour of real devices.  The
  refine ablation quantifies the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.resources import Resource
from repro.core.allocation import StageLoad, resource_users
from repro.core.memo import DEFAULT_CACHE_ENTRIES, CacheStats, LRUCache
from repro.errors import EstimationError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.phases import SubStageSpec, build_task_substages
from repro.mapreduce.stage import StageKind
from repro.obs.metrics import get_metrics

#: A stage is treated as staggered once it runs this many waves.
_STAGGER_WAVES = 1.5


@dataclass(frozen=True)
class OpEstimate:
    """BOE's verdict on one operation of a sub-stage.

    Attributes:
        kind: operation kind ("read", "transfer", "compute", "write").
        resource: the resource it draws on.
        time: ``t_X`` — the duration the operation would need at its
            allocated share (Eq. 4 with ``p_X = 1``).
        utilisation: ``p_X = t_X / t_sigma`` — the fraction of its allocated
            share the pipeline actually keeps busy (summed per resource when
            a sub-stage has several operations on one device).
    """

    kind: str
    resource: Resource
    time: float
    utilisation: float


@dataclass(frozen=True)
class SubStageEstimate:
    """BOE output for one sub-stage of one task."""

    name: str
    duration: float
    bottleneck: Resource
    ops: Tuple[OpEstimate, ...]

    def op(self, kind: str) -> Optional[OpEstimate]:
        for candidate in self.ops:
            if candidate.kind == kind:
                return candidate
        return None


@dataclass(frozen=True)
class TaskEstimate:
    """BOE output for a whole task (its sub-stages run back to back)."""

    job: str
    kind: StageKind
    substages: Tuple[SubStageEstimate, ...]

    @property
    def duration(self) -> float:
        return sum(s.duration for s in self.substages)

    @property
    def bottlenecks(self) -> Tuple[Resource, ...]:
        return tuple(s.bottleneck for s in self.substages)

    def substage(self, name: str) -> SubStageEstimate:
        for s in self.substages:
            if s.name == name:
                return s
        raise EstimationError(f"no sub-stage {name!r} in estimate for {self.job}")


def align_substage(target_name: str, substages: Sequence[SubStageSpec]) -> SubStageSpec:
    """Which sub-stage of a *synchronised* competing stage co-occurs with the
    target's?

    Same-named sub-stages run concurrently by symmetry (every reducer
    shuffles while the others shuffle); otherwise we take the competing
    stage's *heaviest* sub-stage (largest total demand), which dominates its
    timeline.
    """
    if not substages:
        raise EstimationError("competing stage has no sub-stages")
    for sub in substages:
        if sub.name == target_name:
            return sub
    return max(substages, key=lambda s: sum(op.amount for op in s.ops))


#: The kernel's fixed resource slots: slot ``i`` holds ``_SLOTS[i]``.
_SLOTS = (Resource.CPU, Resource.DISK, Resource.NETWORK, Resource.MEMORY)
_SLOT_OF = {resource: slot for slot, resource in enumerate(_SLOTS)}


@dataclass(frozen=True)
class _Sub:
    """One sub-stage lowered for the kernel: ops as ``(slot, amount,
    per_flow_cap, kind)`` tuples, its distinct slots by first occurrence, and
    its total demand (the initial duration guess)."""

    name: str
    ops: Tuple[Tuple[int, float, Optional[float], str], ...]
    order: Tuple[int, ...]
    demand: float


def _compile(sub: SubStageSpec) -> _Sub:
    ops = tuple(
        (_SLOT_OF[op.resource], op.amount, op.per_flow_cap, op.kind) for op in sub.ops
    )
    order = tuple(dict.fromkeys(op[0] for op in ops))
    return _Sub(sub.name, ops, order, sum(op.amount for op in sub.ops))


class _Pipeline:
    """One stage's task pipeline, compiled once per (job, kind) per model.

    Immutable after construction, so one instance is shared by every solve
    of the model that asks for its (job, kind).  ``first`` maps a sub-stage
    name to its first index (phase lock across synchronised stages);
    ``signature`` is the pipeline's part of the structural memo key: every
    sub-stage name and op tuple, the whole input of the solve.  ``tasks``
    is the stage's task count, which fixes its wave regime at a given
    parallelism.
    """

    __slots__ = ("subs", "first", "signature", "tasks")

    def __init__(self, substages: Sequence[SubStageSpec], tasks: int):
        self.subs = tuple(_compile(sub) for sub in substages)
        self.first: Dict[str, int] = {}
        for idx, sub in enumerate(self.subs):
            self.first.setdefault(sub.name, idx)
        self.signature = tuple((sub.name, sub.ops) for sub in self.subs)
        self.tasks = tasks

    def staggered(self, delta: float) -> bool:
        """Whether the stage runs staggered waves at parallelism ``delta``."""
        return self.tasks > _STAGGER_WAVES * max(delta, 1.0)


class _StageCtx:
    """One stage participating in the competition system.

    Besides its current sub-stage ``durations`` and (refine only) per-slot
    utilisations ``util``, a context holds the per-node user increments it
    adds to whoever it competes with, derived once per :meth:`settle`:
    ``mix`` for its occupancy-weighted sub-stage mix and ``own[idx]`` for all
    ``delta`` tasks sitting in sub-stage ``idx``.
    """

    __slots__ = ("pipeline", "delta", "staggered", "durations", "util", "mix", "own")

    def __init__(self, pipeline: _Pipeline, delta: float, staggered: bool):
        self.pipeline = pipeline
        self.delta = delta
        self.staggered = staggered
        self.own: Optional[List[List[Tuple[int, float]]]] = None

    def settle(
        self, durations: List[float], util: Optional[List[List[float]]], workers: int
    ) -> None:
        self.durations = durations
        self.util = util
        count = len(durations)
        total = sum(durations)
        if total <= 0:
            occupancy = [1.0 / count] * count
        else:
            occupancy = [d / total for d in durations]
        self.mix = [
            term
            for idx, occ in enumerate(occupancy)
            for term in self._terms(idx, self.delta * occ, workers)
        ]
        # ``own`` moves with the utilisations only (plain BOE: never).
        if not self.staggered and (util is not None or self.own is None):
            self.own = [self._terms(idx, self.delta, workers) for idx in range(count)]

    def _terms(self, idx: int, weight: float, workers: int) -> List[Tuple[int, float]]:
        """``(slot, weight * p / workers)`` per resource of sub-stage ``idx``;
        ``p`` is the refine utilisation, 1 before the first evaluation."""
        if weight <= 0:
            return []
        util = self.util[idx] if self.util is not None else None
        return [
            (slot, weight * (1.0 if util is None else util[slot]) / workers)
            for slot in self.pipeline.subs[idx].order
        ]


class BOEModel:
    """Task-level execution time estimation by bottleneck identification.

    Estimates are memoised by default: the competition solve behind
    :meth:`task_time` is a pure function of the system's structure (every
    stage's compiled sub-stages, parallelism and wave regime) for a fixed
    cluster and model configuration, so what-if sweeps that revisit a
    combination — coordinate descent perturbing one knob, an experiment grid
    sharing sub-stage estimates across panels — pay for the fixed-point
    solve once.  The key is built from the call-time values, so a hit
    returns the sub-stage estimates the cold path would compute: cached and
    uncached results are bit-for-bit equal, and a changed job can never
    match a stale entry.  ``cache_stats`` exposes the hit/miss ledger.
    """

    def __init__(
        self,
        cluster: Cluster,
        refine: bool = False,
        max_refine_iter: int = 25,
        cache: bool = True,
    ):
        self._cluster = cluster
        self._refine = refine
        self._max_iter = max_refine_iter
        # Per-slot node capacity for the kernel: cores for CPU, MB/s for I/O.
        node = cluster.node
        self._capacity = (node.cores, node.disk_mb_s, node.network_mb_s)
        self._stats = CacheStats()
        # Solved system structure -> the target's estimate (see
        # _task_time), LRU-bounded so a week-long sweep session cannot grow
        # memory without bound; sweep locality keeps the working set
        # resident.
        self._cache: Optional[LRUCache] = (
            LRUCache(DEFAULT_CACHE_ENTRIES, self._stats) if cache else None
        )
        # Compiled pipelines by value-hashed (job, kind), kept for the
        # model's lifetime: a tuner's candidates share most jobs with the
        # incumbent, so most solves reuse a pipeline compiled by an earlier
        # batch.  Uncached models compile once per batch instead.
        self._pipelines: Optional[LRUCache] = (
            LRUCache(DEFAULT_CACHE_ENTRIES) if cache else None
        )
        # Mirror the CacheStats ledger into the process metrics registry
        # (when armed) so cache behaviour shows up in --metrics output and
        # worker merges without new plumbing.  Resolved once; None = off.
        metrics = get_metrics()
        if metrics.enabled:
            self._ctr_hits = metrics.counter("boe.cache.hits")
            self._ctr_misses = metrics.counter("boe.cache.misses")
            self._ctr_solves = metrics.counter("boe.system_solves")
            self._ctr_batch = metrics.counter("boe.batch_points")
            self._ctr_unconverged = metrics.counter("boe.unconverged")
        else:
            self._ctr_hits = None
            self._ctr_misses = None
            self._ctr_solves = None
            self._ctr_batch = None
            self._ctr_unconverged = None

    @property
    def cluster(self) -> Cluster:
        return self._cluster

    @property
    def refine(self) -> bool:
        """Whether utilisation-weighted refinement is enabled (§IV-B3)."""
        return self._refine

    # -- memoisation --------------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss ledger of the task-time cache (all zeros when disabled)."""
        return self._stats

    def clear_cache(self) -> None:
        """Drop every memoised estimate and compiled pipeline (the stats
        ledger is kept)."""
        if self._cache is not None:
            self._cache.clear()
        if self._pipelines is not None:
            self._pipelines.clear()

    # -- primitive: one sub-stage under explicit per-node user counts ----------

    def _sub_times(
        self, sub: _Sub, users: List[float], op_times: Optional[List[float]] = None
    ) -> Tuple[float, List[float]]:
        """Eq. 3-5 for one compiled sub-stage under per-slot user counts:
        ``(duration, per-slot time)``, each op's time appended to
        ``op_times`` if given."""
        # Operations on *different* resources overlap in the pipeline (Eq. 3
        # takes their max); operations on the *same* resource contend for one
        # channel and serialise, so amounts aggregate per resource first
        # (e.g. the TeraSort map both reads and writes the node's disks).
        capacity = self._capacity
        times = [0.0, 0.0, 0.0, 0.0]
        for slot, amount, cap, kind in sub.ops:
            # Fewer than one user per node still gets one node's worth.
            n = users[slot]
            if n < 1.0:
                n = 1.0
            if slot == 0:
                # A pipelined compute thread uses at most one core.
                throughput = capacity[0] / n
                if throughput >= 1.0:
                    throughput = 1.0
            elif slot == 3:
                self._cluster.node.bandwidth(Resource.MEMORY)  # raises
            else:
                throughput = capacity[slot] / n
            if cap is not None and cap < throughput:
                throughput = cap
            if throughput <= 0:
                raise EstimationError(f"zero throughput for {kind}")
            t_op = amount / throughput
            if op_times is not None:
                op_times.append(t_op)
            times[slot] += t_op
        duration = max(times)
        if duration <= 0:
            duration = 1e-12
        return duration, times

    def _estimate(self, sub: _Sub, users: List[float]) -> SubStageEstimate:
        """:meth:`_sub_times` as an output object; the bottleneck is the
        first slowest resource in op order."""
        op_times: List[float] = []
        duration, times = self._sub_times(sub, users, op_times)
        ops = tuple(
            OpEstimate(kind, _SLOTS[slot], t_op, times[slot] / duration)
            for (slot, _, _, kind), t_op in zip(sub.ops, op_times)
        )
        bottleneck = _SLOTS[max(sub.order, key=times.__getitem__)]
        return SubStageEstimate(
            name=sub.name, duration=duration, bottleneck=bottleneck, ops=ops
        )

    def _evaluate(
        self, substage: SubStageSpec, users: Mapping[Resource, float]
    ) -> SubStageEstimate:
        """One sub-stage under an explicit per-node users map."""
        return self._estimate(
            _compile(substage), [users.get(resource, 0.0) for resource in _SLOTS]
        )

    # -- sub-stage level (synchronised semantics, the Fig. 4 primitive) ---------

    def substage_time(
        self, target: StageLoad, concurrent: Sequence[StageLoad] = ()
    ) -> SubStageEstimate:
        """Estimate the duration of ``target.substage`` for one task, with
        every load's tasks assumed to sit in the given sub-stage
        simultaneously (synchronised semantics).

        Args:
            target: the sub-stage under estimation with its own parallelism.
            concurrent: every *other* stage load sharing the cluster in this
                workflow state (already aligned to a concrete sub-stage).
        """
        loads = [target, *concurrent]
        estimate = self._evaluate(
            target.substage, resource_users(loads, self._cluster)
        )
        if not self._refine:
            return estimate

        previous = estimate.duration
        current_util: Optional[Dict[str, Dict[Resource, float]]] = None
        for _ in range(self._max_iter):
            new_util: Dict[str, Dict[Resource, float]] = {}
            # The users map depends only on the utilisations of the previous
            # iteration, not on which load is being re-evaluated.
            users = resource_users(loads, self._cluster, current_util)
            for load in loads:
                sub_est = self._evaluate(load.substage, users)
                new_util[load.name] = {
                    op.resource: max(op.utilisation, 1e-3) for op in sub_est.ops
                }
            estimate = self._evaluate(
                target.substage,
                resource_users(loads, self._cluster, new_util),
            )
            current_util = new_util
            if abs(estimate.duration - previous) <= 1e-6 * max(previous, 1e-9):
                break
            previous = estimate.duration
        return estimate

    # -- the stage-system fixed point --------------------------------------------
    # A compiled kernel: slot lists instead of Resource-keyed dicts, output
    # objects only for the target's final sub-stages, but the float operations
    # of the straightforward dict formulation in the same order, so every
    # estimate is bit-identical to it (tests/core/test_boe_golden.py).

    def _slot_users(
        self, system: Sequence[_StageCtx], target: _StageCtx, idx: int
    ) -> List[float]:
        """Per-node competitor counts per slot seen by ``target``'s sub-stage
        ``idx`` given current occupancies/utilisations."""
        users = [0.0, 0.0, 0.0, 0.0]
        name = target.pipeline.subs[idx].name
        for ctx in system:
            if ctx.staggered:
                terms = ctx.mix
            elif ctx is target:
                terms = ctx.own[idx]
            else:
                # A synchronised competitor whose tasks pass the same-named
                # sub-stage passes it *together with* the target (both
                # unblock at the same stage barrier), so they co-occur.
                # Without a same-named sub-stage there is no phase lock
                # across jobs and the competitor presents its time-weighted
                # average (occupancy) mix.
                same = ctx.pipeline.first.get(name)
                terms = ctx.mix if same is None else ctx.own[same]
            for slot, add in terms:
                users[slot] += add
        return users

    def _solve_system(self, system: List[_StageCtx]) -> None:
        """Iterate sub-stage durations to the occupancy/utilisation fixed
        point; results land in each context's ``durations``."""
        workers = self._cluster.workers
        refine = self._refine
        # Initial pass: plain user counts, amount-proportional occupancy.
        for ctx in system:
            ctx.settle([sub.demand for sub in ctx.pipeline.subs], None, workers)

        needs_iteration = refine or any(c.staggered for c in system)
        rounds = self._max_iter if needs_iteration else 1
        previous_total = None
        for _ in range(rounds):
            for ctx in system:
                durations: List[float] = []
                util: Optional[List[List[float]]] = [] if refine else None
                for idx, sub in enumerate(ctx.pipeline.subs):
                    duration, times = self._sub_times(
                        sub, self._slot_users(system, ctx, idx)
                    )
                    durations.append(duration)
                    if refine:  # the slot times become utilisations
                        for slot in sub.order:
                            times[slot] = max(times[slot] / duration, 1e-3)
                        util.append(times)
                ctx.settle(durations, util, workers)
            total = sum(sum(ctx.durations) for ctx in system)
            if previous_total is not None and abs(total - previous_total) <= 1e-6 * max(
                previous_total, 1e-9
            ):
                break
            previous_total = total
        else:
            if needs_iteration and self._ctr_unconverged is not None:
                self._ctr_unconverged.inc()

    # -- task level ----------------------------------------------------------------

    def task_time(
        self,
        job: MapReduceJob,
        kind: StageKind,
        delta: float,
        concurrent: Sequence[Tuple[MapReduceJob, StageKind, float]] = (),
        task_input_mb: Optional[float] = None,
        staggered: Optional[bool] = None,
    ) -> TaskEstimate:
        """Estimate one task's full execution time in a workflow state.

        Args:
            job: the target job.
            kind: which of its stages the task belongs to.
            delta: the target stage's cluster-wide degree of parallelism.
            concurrent: (job, stage, delta) triples for every other running
                stage in the state.
            task_input_mb: per-task input override (defaults to the stage
                average).
            staggered: force the target's wave regime; None auto-detects
                from the stage's task count vs ``delta`` (concurrent stages
                always auto-detect).
        """
        return self._task_time(
            job, kind, delta, concurrent, task_input_mb, staggered, self._pipelines
        )

    def solve_batch(
        self,
        points: Sequence[Tuple[MapReduceJob, StageKind, float, Sequence[Tuple[MapReduceJob, StageKind, float]]]],
    ) -> List[TaskEstimate]:
        """Evaluate Eq. 3-5 for a whole vector of (job, stage, Delta,
        concurrent-set) points in one pass.

        The per-point arithmetic is *exactly* :meth:`task_time`'s — same
        cache lookups, same fixed-point solves, same float operation order —
        so batched and serial results are bit-identical.  What the model
        amortises is the setup: each distinct (job, stage) pipeline is
        decomposed (:func:`~repro.mapreduce.phases.build_task_substages`) and
        compiled into slot-indexed op tuples once per model, and shared by
        every point of every batch that references it, instead of being
        rebuilt per target *and* per concurrent appearance.  An Algorithm 1
        state with ``R`` running stages performs at most ``R``
        decompositions instead of ``R**2``; a tuner's batches share them
        across every candidate that keeps a job unchanged.  An uncached
        model (``cache=False``) keeps the compiled pipelines for one batch
        only.
        """
        if self._ctr_batch is not None:
            self._ctr_batch.inc(len(points))
        built = self._pipelines
        if built is None:
            built = LRUCache(DEFAULT_CACHE_ENTRIES)
        return [
            self._task_time(job, kind, delta, concurrent, None, None, built)
            for job, kind, delta, concurrent in points
        ]

    def _pipeline(
        self,
        job: MapReduceJob,
        kind: StageKind,
        task_input_mb: Optional[float],
        built: Optional[LRUCache],
    ) -> _Pipeline:
        """Decompose and compile one stage's task pipeline, via the
        pipeline memo if any.

        ``build_task_substages`` is a pure function of (job, kind, per-task
        input, remote fraction); the memo only applies to the default
        per-task input, where the key is just the value-hashed (job, kind).
        """
        memo = built if task_input_mb is None else None
        pipeline = memo.get((job, kind)) if memo is not None else None
        if pipeline is None:
            pipeline = _Pipeline(
                build_task_substages(
                    job,
                    kind,
                    task_input_mb=task_input_mb,
                    remote_fraction=self._cluster.remote_fraction,
                ),
                job.num_tasks(kind),
            )
            if memo is not None:
                memo.put((job, kind), pipeline)
        return pipeline

    def _task_time(
        self,
        job: MapReduceJob,
        kind: StageKind,
        delta: float,
        concurrent: Sequence[Tuple[MapReduceJob, StageKind, float]],
        task_input_mb: Optional[float],
        staggered: Optional[bool],
        built: Optional[LRUCache],
    ) -> TaskEstimate:
        target = self._pipeline(job, kind, task_input_mb, built)
        target_ctx = _StageCtx(
            target,
            delta,
            target.staggered(delta) if staggered is None else staggered,
        )
        system = [target_ctx]
        for other, other_kind, other_delta in concurrent:
            pipeline = self._pipeline(other, other_kind, None, built)
            system.append(
                _StageCtx(pipeline, other_delta, pipeline.staggered(other_delta))
            )

        # The competition solve is a pure function of the system signature
        # (sub-stage structures, parallelisms, wave regimes, in state
        # order); job identity only labels the result.  Keying on the
        # *built* sub-stages keeps the key call-time fresh — a changed
        # job builds different sub-stages and misses — while
        # perturbing a knob that leaves this stage's pipeline untouched
        # (e.g. the reducer count, for a map estimate) still hits.
        key = None
        if self._cache is not None:
            key = tuple(
                (ctx.pipeline.signature, ctx.delta, ctx.staggered) for ctx in system
            )
            hit = self._cache.get(key)
            if hit is not None:
                self._stats.hits += 1
                if self._ctr_hits is not None:
                    self._ctr_hits.inc()
                if hit.job == job.name and hit.kind is kind:
                    return hit  # a repeated query: the stored estimate
                return TaskEstimate(job=job.name, kind=kind, substages=hit.substages)
            self._stats.misses += 1
            if self._ctr_misses is not None:
                self._ctr_misses.inc()

        if self._ctr_solves is not None:
            self._ctr_solves.inc()
        self._solve_system(system)
        # Frozen output objects only for the target's final sub-stages.
        estimate = TaskEstimate(
            job=job.name,
            kind=kind,
            substages=tuple(
                self._estimate(sub, self._slot_users(system, target_ctx, idx))
                for idx, sub in enumerate(target_ctx.pipeline.subs)
            ),
        )
        if key is not None:
            self._cache.put(key, estimate)
        return estimate

    def stage_bottleneck(
        self,
        job: MapReduceJob,
        kind: StageKind,
        delta: float,
        concurrent: Sequence[Tuple[MapReduceJob, StageKind, float]] = (),
    ) -> Resource:
        """The bottleneck of the stage's dominant sub-stage (Table I column)."""
        estimate = self.task_time(job, kind, delta, concurrent)
        dominant = max(estimate.substages, key=lambda s: s.duration)
        return dominant.bottleneck
