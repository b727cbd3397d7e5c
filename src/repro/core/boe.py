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
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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

_INF = float("inf")


def _synchronised(tasks, delta):
    """The stagger rule: ``tasks`` run in synchronised waves at parallelism
    ``delta`` (elementwise on arrays, as the bound kernel reads it)."""
    return tasks <= _STAGGER_WAVES * delta


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


class SubStageEstimate:
    """BOE output for one sub-stage of one task.

    Attributes:
        name: the sub-stage name.
        duration: ``t_sigma``, the time of its bottleneck (Eq. 3).
        bottleneck: the first slowest resource in op order.
        ops: one :class:`OpEstimate` per operation, in op order.  The kernel
            keeps each op's time and the per-resource totals and builds
            these objects the first time ``ops`` is read, since Algorithm 1
            reads only durations.  Equality, hashing, ``repr`` and pickling
            all go through ``ops``, so a lazily built estimate behaves
            exactly like one built with its ops up front.

    Instances are immutable.
    """

    __slots__ = ("name", "duration", "bottleneck", "_ops", "_detail")

    def __init__(
        self,
        name: str,
        duration: float,
        bottleneck: Resource,
        ops: Tuple[OpEstimate, ...],
    ):
        _set = object.__setattr__
        _set(self, "name", name)
        _set(self, "duration", duration)
        _set(self, "bottleneck", bottleneck)
        _set(self, "_ops", ops)
        _set(self, "_detail", None)

    @classmethod
    def _deferred(
        cls,
        sub: "_Sub",
        duration: float,
        times: List[float],
        op_times: List[float],
    ) -> "SubStageEstimate":
        """The kernel's estimate: ``ops`` deferred until first read."""
        estimate = cls.__new__(cls)
        _set = object.__setattr__
        _set(estimate, "name", sub.name)
        _set(estimate, "duration", duration)
        _set(estimate, "bottleneck", _SLOTS[max(sub.order, key=times.__getitem__)])
        _set(estimate, "_ops", None)
        _set(estimate, "_detail", (sub.ops, times, op_times))
        return estimate

    @property
    def ops(self) -> Tuple[OpEstimate, ...]:
        ops = self._ops
        if ops is None:
            sub_ops, times, op_times = self._detail
            duration = self.duration
            ops = tuple(
                OpEstimate(kind, _SLOTS[slot], t_op, times[slot] / duration)
                for (slot, _, _, kind), t_op in zip(sub_ops, op_times)
            )
            object.__setattr__(self, "_ops", ops)
            object.__setattr__(self, "_detail", None)
        return ops

    def op(self, kind: str) -> Optional[OpEstimate]:
        for candidate in self.ops:
            if candidate.kind == kind:
                return candidate
        return None

    def _fields(self) -> tuple:
        return (self.name, self.duration, self.bottleneck, self.ops)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"SubStageEstimate(name={self.name!r}, duration={self.duration!r}, "
            f"bottleneck={self.bottleneck!r}, ops={self.ops!r})"
        )

    def __reduce__(self):
        return (self.__class__, self._fields())


@dataclass(frozen=True)
class TaskEstimate:
    """BOE output for a whole task (its sub-stages run back to back)."""

    job: str
    kind: StageKind
    substages: Tuple[SubStageEstimate, ...]

    @property
    def duration(self) -> float:
        return sum([s.duration for s in self.substages])

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


class _Sub(NamedTuple):
    """One sub-stage lowered for the kernel: ops as ``(slot, amount,
    per_flow_cap, kind)`` tuples, its distinct slots by first occurrence, and
    its total demand (the initial duration guess)."""

    name: str
    ops: Tuple[Tuple[int, float, Optional[float], str], ...]
    order: Tuple[int, ...]
    demand: float


def _compile(sub: SubStageSpec) -> _Sub:
    ops = []
    order: Dict[int, None] = {}
    for op in sub.ops:
        slot = _SLOT_OF[op.resource]
        ops.append((slot, op.amount, op.per_flow_cap, op.kind))
        order[slot] = None
    return _Sub(sub.name, tuple(ops), tuple(order), sum([op[1] for op in ops]))


class _Signature:
    """A pipeline's part of the structural memo key: every sub-stage name and
    op tuple, the whole input of a solve.  Equal by value; the hash of the
    nested tuple is taken once, when the pipeline is compiled, not on every
    memo lookup."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: tuple):
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not _Signature:
            return NotImplemented
        return self._hash == other._hash and self.value == other.value


class _Pipeline:
    """One stage's task pipeline, compiled once per (job, kind) per model.

    Immutable after construction, so one instance is shared by every solve
    of the model that asks for its (job, kind).  ``first`` maps a sub-stage
    name to its first index (phase lock across synchronised stages);
    ``signature`` is the pipeline's part of the structural memo key.
    ``tasks`` is the stage's task count, which fixes its wave regime at a
    given parallelism.  ``pooled`` says every op draws on a throughput pool
    (no memory op), so evaluating a sub-stage can fail only under an
    unbounded user count.  ``amounts`` is the bound screen's view
    (:mod:`repro.core.bounds`), built when first read.
    """

    __slots__ = ("subs", "first", "signature", "tasks", "pooled", "_amounts")

    def __init__(self, substages: Sequence[SubStageSpec], tasks: int):
        self.subs = tuple(_compile(sub) for sub in substages)
        self.first: Dict[str, int] = {}
        for idx, sub in enumerate(self.subs):
            self.first.setdefault(sub.name, idx)
        self.signature = _Signature(tuple((sub.name, sub.ops) for sub in self.subs))
        self.tasks = tasks
        self.pooled = all(3 not in sub.order for sub in self.subs)
        self._amounts: Optional[np.ndarray] = None

    @property
    def amounts(self) -> np.ndarray:
        """Read-only ``[sub-stages x (cpu core-s, disk MB, net MB)]`` matrix:
        each sub-stage's throughput demand per slot, summed in op order
        from 0.0 (memory ops carry no throughput demand)."""
        if self._amounts is None:
            rows = [[0.0, 0.0, 0.0] for _ in self.subs]
            for row, sub in zip(rows, self.subs):
                for slot, amount, _, _ in sub.ops:
                    if slot < 3:
                        row[slot] += amount
            self._amounts = np.array(rows, dtype=float).reshape(len(rows), 3)
            self._amounts.flags.writeable = False
        return self._amounts

    def staggered(self, delta: float) -> bool:
        """Whether the stage runs staggered waves at parallelism ``delta``."""
        return not _synchronised(self.tasks, max(delta, 1.0))


def _terms(
    order: Tuple[int, ...], weight: float, util: Optional[List[float]], workers: int
) -> List[Tuple[int, float]]:
    """``(slot, weight * p / workers)`` per resource of one sub-stage; ``p``
    is the refine utilisation, 1 without one (``weight * 1.0`` is
    ``weight`` exactly, so that case skips the product)."""
    if weight <= 0:
        return []
    if util is None:
        add = weight / workers
        return [(slot, add) for slot in order]
    return [(slot, weight * util[slot] / workers) for slot in order]


def _mix(
    subs: Tuple[_Sub, ...],
    delta: float,
    durations: List[float],
    util: Optional[List[List[float]]],
    workers: int,
) -> List[Tuple[int, float]]:
    """The per-node user increments of ``delta`` tasks spread over their
    sub-stages in proportion to the sub-stage durations (occupancy)."""
    count = len(durations)
    total = sum(durations)
    if total <= 0:
        occupancy = [1.0 / count] * count
    else:
        occupancy = [d / total for d in durations]
    mix: List[Tuple[int, float]] = []
    for idx, occ in enumerate(occupancy):
        mix += _terms(
            subs[idx].order, delta * occ, None if util is None else util[idx], workers
        )
    return mix


class _Stage:
    """One running stage of a batch at one parallelism, resolved once and
    shared by every point of the batch that names it, as target or as
    competitor: its compiled pipeline, wave regime and memo-key part.

    On the first real solve :meth:`prime` adds ``own[idx]``, the per-node
    user increments of all ``delta`` tasks sitting in sub-stage ``idx``
    (synchronised stages only), and :meth:`start` gives ``start_mix``, those
    of plain user counts and amount-proportional occupancy, when first
    read.  ``safe`` says evaluating the stage cannot fail: no memory op,
    and a finite Delta (only an unbounded user count starves an op).
    """

    __slots__ = (
        "subs",
        "first",
        "delta",
        "staggered",
        "part",
        "safe",
        "primed",
        "own",
        "start_mix",
    )

    def __init__(self, pipeline: _Pipeline, delta: float, staggered: bool):
        self.subs = pipeline.subs
        self.first = pipeline.first
        self.delta = delta
        self.staggered = staggered
        self.part = (pipeline.signature, delta, staggered)
        self.safe = pipeline.pooled and delta < _INF
        self.primed = False
        self.own: Optional[List[List[Tuple[int, float]]]] = None
        self.start_mix: Optional[List[Tuple[int, float]]] = None

    def prime(self, workers: int) -> None:
        self.primed = True
        if not self.staggered:
            self.own = [
                _terms(sub.order, self.delta, None, workers) for sub in self.subs
            ]

    def start(self, workers: int) -> List[Tuple[int, float]]:
        mix = self.start_mix
        if mix is None:
            subs = self.subs
            mix = self.start_mix = _mix(
                subs, self.delta, [sub.demand for sub in subs], None, workers
            )
        return mix


class _StageCtx:
    """One stage iterating in one competition fixed point.

    Besides its current sub-stage ``durations`` and (refine only) per-slot
    utilisations ``util``, a context holds the per-node user increments it
    adds to whoever it competes with: ``mix`` for its occupancy-weighted
    sub-stage mix (rebuilt from the durations on first read after each
    :meth:`settle`) and ``own[idx]`` for all ``delta`` tasks sitting in
    sub-stage ``idx``.  The starting values are the primed
    :class:`_Stage`'s; a settle replaces them, never mutates them.
    """

    __slots__ = (
        "subs",
        "first",
        "delta",
        "staggered",
        "workers",
        "durations",
        "util",
        "mix",
        "own",
    )

    def __init__(self, stage: _Stage, workers: int):
        self.subs = stage.subs
        self.first = stage.first
        self.delta = stage.delta
        self.staggered = stage.staggered
        self.workers = workers
        self.durations = [sub.demand for sub in stage.subs]
        self.util: Optional[List[List[float]]] = None
        self.mix: Optional[List[Tuple[int, float]]] = stage.start(workers)
        self.own = stage.own

    def settle(self, durations: List[float], util: Optional[List[List[float]]]) -> None:
        self.durations = durations
        self.util = util
        self.mix = None
        # ``own`` moves with the utilisations only (plain BOE: never).
        if util is not None and not self.staggered:
            self.own = [
                _terms(sub.order, self.delta, sub_util, self.workers)
                for sub, sub_util in zip(self.subs, util)
            ]

    def mixed(self) -> List[Tuple[int, float]]:
        mix = self.mix
        if mix is None:
            mix = self.mix = _mix(
                self.subs, self.delta, self.durations, self.util, self.workers
            )
        return mix


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
        first slowest resource in op order, and the per-op detail is built
        only if read."""
        op_times: List[float] = []
        duration, times = self._sub_times(sub, users, op_times)
        return SubStageEstimate._deferred(sub, duration, times, op_times)

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
        name = target.subs[idx].name
        for ctx in system:
            if ctx.staggered:
                terms = ctx.mixed()
            elif ctx is target:
                terms = ctx.own[idx]
            else:
                # A synchronised competitor whose tasks pass the same-named
                # sub-stage passes it *together with* the target (both
                # unblock at the same stage barrier), so they co-occur.
                # Without a same-named sub-stage there is no phase lock
                # across jobs and the competitor presents its time-weighted
                # average (occupancy) mix.
                same = ctx.first.get(name)
                terms = ctx.mixed() if same is None else ctx.own[same]
            for slot, add in terms:
                users[slot] += add
        return users

    def _solve_system(self, system: List[_StageCtx]) -> None:
        """Iterate sub-stage durations to the occupancy/utilisation fixed
        point of a refined system or one with a staggered stage; results
        land in each context's ``durations``.  The contexts start settled
        on plain user counts and amount-proportional occupancy."""
        refine = self._refine
        previous_total = None
        for _ in range(self._max_iter):
            for ctx in system:
                durations: List[float] = []
                util: Optional[List[List[float]]] = [] if refine else None
                for idx, sub in enumerate(ctx.subs):
                    duration, times = self._sub_times(
                        sub, self._slot_users(system, ctx, idx)
                    )
                    durations.append(duration)
                    if refine:  # the slot times become utilisations
                        for slot in sub.order:
                            times[slot] = max(times[slot] / duration, 1e-3)
                        util.append(times)
                ctx.settle(durations, util)
            total = sum(sum(ctx.durations) for ctx in system)
            if previous_total is not None and abs(total - previous_total) <= 1e-6 * max(
                previous_total, 1e-9
            ):
                break
            previous_total = total
        else:
            if self._ctr_unconverged is not None:
                self._ctr_unconverged.inc()

    # A plain system whose stages are all synchronised has nothing to
    # converge: the fixed point is one round of the loop above.  Stage
    # ``k`` is evaluated against the settled mixes of the stages before it
    # and the starting mixes of those after it, then settles, and the
    # target is read once more at the end.  A synchronised stage's own
    # increments never move, and a stage reads a competitor's mix only when
    # the competitor has no same-named sub-stage.  So the round is
    # evaluated on demand, from the end: each read of a settled mix
    # evaluates that stage first (``_once``), with the very inputs the
    # round would give it, and a stage whose settled mix nobody reads is
    # never evaluated.  Every evaluation that happens is one the round
    # makes, on the same values in the same order.

    def _round_users(
        self,
        stages: List[_Stage],
        settled: List[Optional[List[Tuple[int, float]]]],
        reader: int,
        position: int,
        idx: int,
    ) -> List[float]:
        """:meth:`_slot_users` for sub-stage ``idx`` of the stage at
        ``reader``, read at ``position`` in the single round: competitors
        before it count with their ``settled`` mix, those after it with
        their starting mix.  ``position == len(stages)`` is the target's
        read after the round."""
        users = [0.0, 0.0, 0.0, 0.0]
        name = stages[reader].subs[idx].name
        for other, stage in enumerate(stages):
            if other == reader:
                terms = stage.own[idx]
            else:
                same = stage.first.get(name)
                if same is not None:
                    terms = stage.own[same]
                elif other < position:
                    terms = settled[other]
                    if terms is None:
                        terms = self._once(stages, settled, other)
                else:
                    terms = stage.start_mix
                    if terms is None:
                        terms = stage.start(self._cluster.workers)
            for slot, add in terms:
                users[slot] += add
        return users

    def _once(
        self,
        stages: List[_Stage],
        settled: List[Optional[List[Tuple[int, float]]]],
        position: int,
    ) -> List[Tuple[int, float]]:
        """The settled mix of the stage at ``position``: its one-round
        durations, evaluated now, spread over its sub-stages."""
        stage = stages[position]
        durations = [
            self._sub_times(
                sub, self._round_users(stages, settled, position, position, idx)
            )[0]
            for idx, sub in enumerate(stage.subs)
        ]
        mix = settled[position] = _mix(
            stage.subs, stage.delta, durations, None, self._cluster.workers
        )
        return mix

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
        built = self._pipelines
        target = self._pipeline(job, kind, task_input_mb, built)
        stages = [
            _Stage(
                target,
                delta,
                target.staggered(delta) if staggered is None else staggered,
            )
        ]
        for other, other_kind, other_delta in concurrent:
            pipeline = self._pipeline(other, other_kind, None, built)
            stages.append(
                _Stage(pipeline, other_delta, pipeline.staggered(other_delta))
            )
        return self._solve(job.name, kind, stages)

    def solve_batch(
        self,
        points: Sequence[Tuple[MapReduceJob, StageKind, float, Sequence[Tuple[MapReduceJob, StageKind, float]]]],
    ) -> List[TaskEstimate]:
        """Evaluate Eq. 3-5 for a whole vector of (job, stage, Delta,
        concurrent-set) points in one pass.

        The per-point arithmetic is *exactly* :meth:`task_time`'s — same
        cache lookups, same fixed-point solves, same float operation order —
        so batched and serial results are bit-identical.  What the batch
        amortises is the bookkeeping around the arithmetic.  Each distinct
        (job, stage) is resolved to its compiled pipeline once per call,
        and each distinct (job, stage, Delta) to a shared stage record once
        per call: its wave regime, its part of the memo key and, on the
        first real solve, its starting user increments.  An Algorithm 1
        state with ``R`` running stages asks ``R`` main points and its
        ragged tails, and they all share those ``R`` resolutions instead of
        each point resolving its whole system again.  The pipelines
        themselves are decomposed
        (:func:`~repro.mapreduce.phases.build_task_substages`) and compiled
        into slot-indexed op tuples once per model and shared by every later
        batch and by the bound screen (:meth:`pipeline`), so a tuner
        decomposes each (job, stage) once.  An uncached model
        (``cache=False``) keeps the compiled pipelines for one batch only.
        """
        if self._ctr_batch is not None:
            self._ctr_batch.inc(len(points))
        built = self._pipelines
        if built is None:
            built = LRUCache(DEFAULT_CACHE_ENTRIES)
        # Keyed by identity: the points of a batch hold their jobs, and an
        # equal job under another identity still shares the model's
        # value-keyed pipeline memo.
        pipelines: Dict[Tuple[int, StageKind], _Pipeline] = {}
        stages: Dict[Tuple[int, StageKind, float], _Stage] = {}

        def stage(job: MapReduceJob, kind: StageKind, delta: float) -> _Stage:
            found = stages.get((id(job), kind, delta))
            if found is None:
                pipeline = pipelines.get((id(job), kind))
                if pipeline is None:
                    pipeline = pipelines[(id(job), kind)] = self._pipeline(
                        job, kind, None, built
                    )
                found = stages[(id(job), kind, delta)] = _Stage(
                    pipeline, delta, pipeline.staggered(delta)
                )
            return found

        answers = []
        for job, kind, delta, concurrent in points:
            system = [stage(job, kind, delta)]
            for other, other_kind, other_delta in concurrent:
                system.append(stage(other, other_kind, other_delta))
            answers.append(self._solve(job.name, kind, system))
        return answers

    def pipeline(self, job: MapReduceJob, kind: StageKind) -> _Pipeline:
        """The compiled task pipeline of one stage at its average per-task
        input, through the model's pipeline memo (built afresh by an
        uncached model)."""
        return self._pipeline(job, kind, None, self._pipelines)

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

    def _solve(self, job: str, kind: StageKind, stages: List[_Stage]) -> TaskEstimate:
        """The target's estimate (``stages[0]``) under the others' load.

        The competition solve is a pure function of the system signature
        (sub-stage structures, parallelisms, wave regimes, in state order);
        job identity only labels the result.  Keying on the *built*
        sub-stages keeps the key call-time fresh — a changed job builds
        different sub-stages and misses — while perturbing a knob that
        leaves this stage's pipeline untouched (e.g. the reducer count, for
        a map estimate) still hits.
        """
        key = None
        if self._cache is not None:
            key = tuple([stage.part for stage in stages])
            hit = self._cache.get(key)
            if hit is not None:
                self._stats.hits += 1
                if self._ctr_hits is not None:
                    self._ctr_hits.inc()
                if hit.job == job and hit.kind is kind:
                    return hit  # a repeated query: the stored estimate
                return TaskEstimate(job=job, kind=kind, substages=hit.substages)
            self._stats.misses += 1
            if self._ctr_misses is not None:
                self._ctr_misses.inc()

        if self._ctr_solves is not None:
            self._ctr_solves.inc()
        workers = self._cluster.workers
        plain = not self._refine
        safe = True
        for stage in stages:
            if not stage.primed:
                stage.prime(workers)
            if stage.staggered:
                plain = False
            if not stage.safe:
                safe = False
        subs = stages[0].subs
        if plain:
            # One round, evaluated on demand (see _round_users); where a
            # stage could fail, every stage is evaluated in round order, so
            # the error comes from the evaluation the full round fails in.
            end = len(stages)
            settled: List[Optional[List[Tuple[int, float]]]] = [None] * end
            if not safe:
                for position in range(end):
                    self._once(stages, settled, position)
            users = [
                self._round_users(stages, settled, 0, end, idx)
                for idx in range(len(subs))
            ]
        else:
            system = [_StageCtx(stage, workers) for stage in stages]
            self._solve_system(system)
            users = [
                self._slot_users(system, system[0], idx) for idx in range(len(subs))
            ]
        # Output objects only for the target's final sub-stages.
        estimate = TaskEstimate(
            job=job,
            kind=kind,
            substages=tuple(
                [self._estimate(sub, counts) for sub, counts in zip(subs, users)]
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
