"""Analytic makespan bounds for pruning what-if candidates.

The sweep/tuning layers evaluate thousands of candidate workflows through
Algorithm 1; most of them provably cannot beat the incumbent.  This module
computes a conservative lower bound on the estimator's makespan *directly
from the BOE model's compiled sub-stage pipelines* — no Algorithm 1 state
stepping, no fixed-point refinement — so a candidate can be rejected for
the cost of a few vectorised numpy reductions.

Per-stage lower bound (the p-grid kernel)
-----------------------------------------

Algorithm 1 drains every stage at ``total / whole_stage_time`` where the
whole-stage time at parallelism ``delta`` is wave-quantized:
``(waves - 1) * (t(delta) + ovh) + (t_tail + ovh)``.  Summing the drained
fractions over the states a stage lives in shows its span is at least the
*minimum* whole-stage time over any feasible parallelism, so

``span_lb = min over integer p in [1, per_wave_ub] of
(ceil(n/p) - 1) * (t_lb(p) + ovh) + (t_lb_tail(p) + ovh)``

where ``per_wave_ub`` comes from the scheduler's container arithmetic (a
stage can never hold more containers than memory slots — plus the vcore
axis under DRF with ``enforce_vcores``) and ``t_lb(p)`` lower-bounds the
BOE task time at any ``delta`` with ``int(delta) == p``:

* **staggered-regime slope**: in the staggered regime the stage drains at
  most ``p`` tasks per wave body, each wave body no shorter than the best
  bottleneck assignment of the sub-stage demands over the resource axes
  (``_min_assignment_slope`` — each sub-stage's cost charged to one
  resource, the wave at least the worst per-resource total); unrefined
  models use the aggregate-capacity slope directly.
* **synchronized-wave bound**: when every ``delta`` mapping to ``p`` is
  synchronized (``n <= 1.5 * p``), the BOE per-sub-stage times are exactly
  ``max_R amount_R * max(1, users_R) / rate_R`` with self-only users, so
  the sum of sub-stage maxima is a valid (tighter) floor; the tail wave
  gets the same floor at its own size.

Refined models (``BOEModel(refine=True)``) redistribute contention with
sub-1 utilisation weights, which invalidates the self-contention terms;
the refined kernel keeps only the per-sub-stage zero-contention floors
(min over demanded resources, still sound, looser).

Workflow lower bound (the cut bound, vectorised across candidates)
------------------------------------------------------------------

Algorithm 1 starts a stage only after every DAG ancestor finished, and
the cluster serves each resource axis at most at its aggregate rate.
Cutting the schedule at a stage ``s`` therefore splits time into three
disjoint intervals, each with its own path *and* work floors::

    makespan >= max(cp_ready(s), anc_work(s)/agg) + span_lb(s)
                + max(cp_tail(s), desc_work(s)/agg)

maximised over all cuts, plus the whole-workflow total-work floor.  The
pure critical path and the total-work bound are special cases; the cut
form additionally prices a stage forced serial by its own configuration
(say, two reducers) that neither pure path nor pure work can see.

Batching mirrors :meth:`repro.core.boe.BOEModel.solve_batch`: stage
bounds are memoised by the value-hashed ``(job, kind)`` (jobs pin their
hash at first use, so knob candidates sharing an untouched job and jobs
rebuilt across coordinate-descent passes both skip the kernel), each
distinct job object is looked up once per stage column of a batch, a
whole batch's memo misses are priced in one numpy kernel call over a
ragged ``(stage, p)`` cell axis (each stage contributes only the cells
up to its own container cap), and the cut-bound DP runs vectorised
across all candidates of a topology group at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.boe import BOEModel, _synchronised
from repro.core.memo import DEFAULT_CACHE_ENTRIES, LRUCache
from repro.dag.workflow import Workflow
from repro.errors import EstimationError, SchedulingError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.stage import StageKind
from repro.scheduler.container import container_for

#: Relative slack deducted from every lower bound: the estimator's wave
#: arithmetic carries ``1e-9`` epsilons (``int(delta + 1e-9)``), so the
#: analytic bound concedes the same order of float slop rather than claim
#: a spuriously strict inequality.
_LB_SLACK = 1.0 - 1e-9


@dataclass(frozen=True)
class _StagePrimitives:
    """Everything the p-grid kernel needs about one (job, kind) stage."""

    n: int
    amounts: np.ndarray  # [substages x (cpu core-s, disk MB, net MB)]
    per_wave_ub: int
    overhead_s: float


class BoundsModel:
    """Vectorised makespan lower bounds for the estimates of one BOE model.

    Built on the :class:`~repro.core.boe.BOEModel` whose estimates it
    bounds, so its cluster and refinement setting are that model's, and
    each stage's demand comes from the model's own compiled pipeline
    (:meth:`~repro.core.boe.BOEModel.pipeline`).  The sweep layer keeps one
    per candidate cluster.  Stage bounds are memoised by the value-hashed
    (job, kind) key, so a batch of knob-perturbed candidates pays the
    kernel only for the stages the knob actually changed.

    Args:
        model: the BOE model whose estimates are bounded; a refined model
            (``refine=True``) selects the looser refined-model kernel.
        policy / enforce_vcores: scheduler configuration — fixes the
            container-slot cap ``per_wave_ub``.
        include_overhead: whether the bounded estimates add the job's
            per-task startup cost (:class:`~repro.core.estimator.BOESource`).
    """

    def __init__(
        self,
        model: BOEModel,
        *,
        policy: str = "drf",
        enforce_vcores: bool = False,
        include_overhead: bool = True,
    ):
        cluster = model.cluster
        self._model = model
        self._capacity = cluster.capacity
        self._refine = model.refine
        self._policy = policy
        self._enforce_vcores = enforce_vcores
        self._include_overhead = include_overhead
        node = cluster.node
        # Best per-task service rates (CPU has no node bandwidth: one task
        # pipelines at most one core, per repro.core.allocation).
        self._task_rates = np.array([1.0, node.disk_mb_s, node.network_mb_s])
        # Per-node sharing divisors: delta tasks spread over `workers`
        # nodes contend for `cores` CPUs / one disk / one NIC each.
        self._share_div = np.array(
            [float(cluster.total_cores), float(cluster.workers), float(cluster.workers)]
        )
        # Aggregate cluster capacity per resource axis.
        self._agg_rates = self._task_rates * self._share_div
        # Memos keyed on the frozen inputs themselves.  A job's hash is
        # computed once and pinned, and a lookup with the very object
        # stored in the key is decided by identity, so knob candidates
        # sharing an untouched job pay one cached hash per stage; a
        # value-identical job rebuilt by a later coordinate-descent pass
        # hits too, after one field-by-field equality check.  A ``_lows``
        # miss reads the stage from the BOE model's pipeline memo, which
        # the model's solves share, so screen and solves decompose each
        # (job, kind) once between them.
        self._lows = LRUCache(DEFAULT_CACHE_ENTRIES)  # (job, kind) -> (lb, work[3])
        self._topologies = LRUCache(DEFAULT_CACHE_ENTRIES)  # structure -> topology

    @classmethod
    def from_source(
        cls,
        source,
        *,
        policy: str = "drf",
        enforce_vcores: bool = False,
    ) -> "BoundsModel":
        """Build for what a :class:`~repro.core.estimator.BOESource`
        estimates: on its model, with its overhead accounting."""
        return cls(
            source.model,
            policy=policy,
            enforce_vcores=enforce_vcores,
            include_overhead=source.include_overhead,
        )

    # -- stage primitives --------------------------------------------------------

    def _per_wave_ub(self, job: MapReduceJob, kind: StageKind, n: int) -> int:
        container = container_for(job, kind)
        capacity = self._capacity
        slots = float("inf")
        if container.memory_mb > 0:
            slots = capacity.memory_mb / container.memory_mb
        if (
            self._policy == "drf"
            and self._enforce_vcores
            and container.vcores > 0
        ):
            slots = min(slots, capacity.vcores / container.vcores)
        delta_ub = min(float(n), slots)
        return max(1, int(delta_ub + 1e-9))

    def _primitives(self, job: MapReduceJob, kind: StageKind) -> _StagePrimitives:
        pipeline = self._model.pipeline(job, kind)
        n = pipeline.tasks
        return _StagePrimitives(
            n=n,
            amounts=pipeline.amounts,
            per_wave_ub=self._per_wave_ub(job, kind, n),
            overhead_s=(
                job.config.task_overhead_s if self._include_overhead else 0.0
            ),
        )

    # -- the p-grid lower-bound kernel -------------------------------------------

    def _min_assignment_slope(self, amounts: np.ndarray) -> float:
        """Worst-case staggered work slope under refinement.

        At the refinement fixed point every sub-stage keeps utilisation 1
        on its *bottleneck* resource, so for any bottleneck assignment
        ``sigma`` the occupancy argument still forces
        ``t >= delta * max_R sum_{sigma(s)=R} amount_sR / agg_rate_R``.
        The assignment is the model's to pick, so the sound slope is the
        min-max over all of them — sub-stage counts are tiny (<= 3), so
        plain enumeration beats being clever.
        """
        cost = amounts / self._agg_rates  # [S x 3] seconds per unit delta
        used = [np.flatnonzero(row > 0) for row in cost]
        if any(len(u) == 0 for u in used):
            return 0.0
        best = math.inf
        for combo in itertools.product(*used):
            per_resource = np.zeros(3)
            for s, r in enumerate(combo):
                per_resource[r] += cost[s, r]
            best = min(best, float(per_resource.max()))
        return best if best is not math.inf else 0.0

    def _span_lower_batch(self, prims_list: Sequence[_StagePrimitives]) -> np.ndarray:
        """Stage lower bounds for many stages in one ragged numpy kernel.

        The per-candidate cost of pruning is dominated by the one or two
        stages each knob actually perturbs — every other stage hits the
        memo — so those misses are collected across the whole candidate
        batch and priced together, which drops the per-miss numpy dispatch
        overhead by the batch width.  Sub-stage rows are zero-padded (zero
        demand contributes nothing to any floor).  The ``p`` axis is
        ragged: stage ``l`` contributes its ``per_wave_ub`` cells
        ``p = 1 .. per_wave_ub`` to one flat cell axis, and each stage's
        minimum is one ``np.minimum.reduceat`` segment, so no cell above a
        stage's container cap is ever priced.
        """
        M = len(prims_list)
        out = np.zeros(M)
        live = [m for m, p in enumerate(prims_list) if p.n > 0]
        if not live:
            return out
        s_max = max(len(prims_list[m].amounts) for m in live)
        L = len(live)
        amounts = np.zeros((L, s_max, 3))
        n = np.empty(L)
        ovh = np.empty(L)
        counts = np.empty(L, dtype=np.intp)
        for row, m in enumerate(live):
            prims = prims_list[m]
            amounts[row, : len(prims.amounts)] = prims.amounts
            n[row] = float(prims.n)
            ovh[row] = prims.overhead_s
            counts[row] = prims.per_wave_ub
        if self._refine:
            # Refined models re-weight contention with sub-1 utilisation,
            # but each sub-stage's bottleneck resource keeps utilisation
            # exactly 1 at the fixed point; the bottleneck's identity is
            # the solver's, hence the min-max assignment slope.
            slope = np.array(
                [self._min_assignment_slope(prims_list[m].amounts) for m in live]
            )
        else:
            # Work / aggregate-capacity slope (sound in every regime): the
            # staggered fixed point serves each resource's *summed*
            # sub-stage demand from the whole cluster, so ``t >= delta *
            # sum_s amount_sR / agg_rate_R`` whether or not the resource
            # ends up contended (occupancy argument).
            slope = (amounts.sum(axis=1) / self._agg_rates).max(axis=1)
        # Zero-contention floor: every sub-stage served at the best
        # per-task rate of its bottleneck resource.
        base = amounts / self._task_rates  # [L x S x 3] seconds
        t_min = base.max(axis=2).sum(axis=1)  # [L]
        # The ragged cell axis: cell c is (rows[c], grid[c]).
        starts = np.zeros(L, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        rows = np.repeat(np.arange(L), counts)
        grid = (np.arange(len(rows)) - starts[rows] + 1).astype(float)
        n_ = n[rows]
        slope_ = slope[rows]
        t_min_ = t_min[rows]
        waves = np.ceil(n_ / grid)
        t_tail_sizes = n_ - (waves - 1.0) * grid

        # Per-sub-stage self-contention at delta tasks per wave.  For
        # synchronized waves (n <= 1.5 p) the BOE times are exactly the
        # per-sub-stage maxima under self-only users; refined models keep
        # only the bottleneck's term (min over a sub-stage's *used*
        # resources, the solver picks which).
        def sync_time(cells: np.ndarray, deltas: np.ndarray) -> np.ndarray:
            b = base[rows[cells]]  # [K x S x 3]
            factor = np.maximum(1.0, deltas[:, None] / self._share_div)
            contended = b * factor[:, None, :]
            if self._refine:
                contended = np.where(b > 0, contended, np.inf).min(axis=2)
                contended[~np.isfinite(contended)] = 0.0
                floors = np.maximum(b.max(axis=2), contended)
                return floors.sum(axis=1)
            return contended.max(axis=2).sum(axis=1)

        # n <= 1.5 p: every delta in [p, p+1) is synchronized; otherwise
        # some delta may be staggered and only the slope bound holds.
        t_body = np.maximum(t_min_, grid * slope_)
        body_sync = np.flatnonzero(_synchronised(n_, grid))
        t_body[body_sync] = sync_time(body_sync, grid[body_sync])
        t_tail = np.maximum(t_min_, t_tail_sizes * slope_)
        # The ragged tail is re-priced at ``delta = last``; the model
        # treats it as synchronized whenever ``n <= 1.5 * last``, and
        # concurrent loads only inflate the synchronized time.
        tail_sync = np.flatnonzero(_synchronised(n_, t_tail_sizes))
        t_tail[tail_sync] = np.maximum(
            t_tail[tail_sync], sync_time(tail_sync, t_tail_sizes[tail_sync])
        )
        ovh_ = ovh[rows]
        whole = (waves - 1.0) * (t_body + ovh_) + (t_tail + ovh_)
        out[live] = np.minimum.reduceat(whole, starts) * _LB_SLACK
        return out

    def _resolve_lows(
        self, pending: Sequence[Tuple[MapReduceJob, StageKind]]
    ) -> None:
        """Fill the lower-bound memo for the stages it is missing, in one
        batched kernel call.  A stage whose decomposition cannot be built
        is recorded with a ``None`` bound — its candidates stay
        unprunable."""
        prims_list = []
        for job, kind in pending:
            try:
                prims_list.append(self._primitives(job, kind))
            except (EstimationError, SchedulingError):
                prims_list.append(None)
        lbs = self._span_lower_batch(
            [p for p in prims_list if p is not None]
        )
        cursor = 0
        for key, prims in zip(pending, prims_list):
            if prims is None:
                self._lows.put(key, (None, None))
                continue
            lb = float(lbs[cursor])
            cursor += 1
            if self._refine or prims.n <= 0:
                # Refined models can serve a resource above its nominal
                # capacity (sub-1 utilisation weights), so the aggregate
                # work bound only holds unrefined.
                work = np.zeros(3)
            else:
                work = prims.n * prims.amounts.sum(axis=0) / self._agg_rates
            self._lows.put(key, (lb, work))

    # -- workflow-level bounds ---------------------------------------------------

    def _topology(self, workflow: Workflow):
        """Grouping key, stage list, dependency indices and ancestor matrix.

        The key depends only on the stage *structure* (names, edges, which
        jobs are map-only), so every knob-perturbed candidate of one
        workflow lands in the same group and shares one DP.  Knob-layer
        candidates share the edge frozenset, whose hash CPython caches,
        so ``(edges, names, map-only flags)`` is a cheap memo key.
        """
        memo_key = (
            workflow.edges,
            tuple(job.name for job in workflow.jobs),
            tuple(job.is_map_only for job in workflow.jobs),
        )
        hit = self._topologies.get(memo_key)
        if hit is not None:
            return hit
        order = workflow.topological_order()
        stages: List[Tuple[str, StageKind]] = []
        deps: List[Tuple[int, ...]] = []
        last_stage: Dict[str, int] = {}
        for name in order:
            job = workflow.job(name)
            parent_last = tuple(
                last_stage[p] for p in sorted(workflow.parents(name))
            )
            for position, kind in enumerate(job.stages()):
                index = len(stages)
                stages.append((name, kind))
                deps.append(parent_last if position == 0 else (index - 1,))
                last_stage[name] = index
        key = (
            tuple(order),
            tuple(dep for dep in deps),
            tuple(kind for _, kind in stages),
        )
        topology = (key, stages, deps, self._ancestor_matrix(deps))
        self._topologies.put(memo_key, topology)
        return topology

    @staticmethod
    def _ancestor_matrix(deps: Sequence[Tuple[int, ...]]) -> np.ndarray:
        """Transitive-closure matrix: ``[s, a] == 1`` iff stage ``a`` must
        finish before stage ``s`` starts.  ``deps`` is topologically
        ordered, so one forward pass closes the relation."""
        anc = np.zeros((len(deps), len(deps)))
        for col, dep in enumerate(deps):
            for parent in dep:
                anc[col, parent] = 1.0
                anc[col] = np.maximum(anc[col], anc[parent])
        return anc

    def lower_bound(self, workflow: Workflow) -> float:
        """Lower bound for one workflow; raises :class:`EstimationError`
        when a stage cannot be bounded (its decomposition cannot be
        built)."""
        result = self.bounds_batch([workflow])[0]
        if result is None:
            raise EstimationError(
                f"could not bound workflow {workflow.name!r} on "
                f"{self._model.cluster.name!r}"
            )
        return result

    def bounds_batch(self, workflows: Sequence[Workflow]) -> List[Optional[float]]:
        """Makespan lower bounds for every candidate at once; ``None``
        marks candidates a bound could not be derived for (callers must
        treat those as unprunable).

        Candidates are grouped by stage topology; within a group the
        critical-path DP over per-stage lower bounds runs as one numpy
        recurrence across the whole candidate axis, the per-stage kernel
        is shared through the ``(job, kind)`` memo, and group-wide memo
        misses are priced in one batched kernel call.
        """
        results: List[Optional[float]] = [None] * len(workflows)
        groups: Dict[object, List[int]] = {}
        topologies: Dict[object, Tuple[list, list, np.ndarray]] = {}
        for index, workflow in enumerate(workflows):
            key, stages, deps, ancestors = self._topology(workflow)
            groups.setdefault(key, []).append(index)
            topologies[key] = (stages, deps, ancestors)
        for key, members in groups.items():
            stages, deps, ancestors = topologies[key]
            if not stages:
                continue
            # One memo pass.  Knob candidates share every untouched job
            # with the incumbent by identity, so each distinct job object
            # is looked up once per column; its ``[key, entry]`` holder is
            # shared by every row that carries it, and misses are filled
            # in place after one batched kernel call.
            seen: List[Dict[int, list]] = [{} for _ in stages]
            misses = []
            row_holders = []
            for index in members:
                job_map = workflows[index].job_map
                holders = []
                for col, (name, kind) in enumerate(stages):
                    job = job_map[name]
                    holder = seen[col].get(id(job))
                    if holder is None:
                        stage_key = (job, kind)
                        holder = [stage_key, self._lows.get(stage_key)]
                        seen[col][id(job)] = holder
                        if holder[1] is None:
                            misses.append(holder)
                    holders.append(holder)
                row_holders.append(holders)
            if misses:
                self._resolve_lows(list(dict.fromkeys(h[0] for h in misses)))
                for holder in misses:
                    holder[1] = self._lows.get(holder[0])
            low_rows = []
            work_rows = []
            zero_work = (0.0, 0.0, 0.0)
            valid = [True] * len(members)
            for row, holders in enumerate(row_holders):
                if any(holder[1][0] is None for holder in holders):
                    valid[row] = False
                    low_rows.append([0.0] * len(stages))
                    work_rows.append([zero_work] * len(stages))
                else:
                    low_rows.append([holder[1][0] for holder in holders])
                    work_rows.append([holder[1][1] for holder in holders])
            lower = np.array(low_rows)
            stage_work = np.array(work_rows)
            # Cut bound over the stage DAG, vectorised across the group's
            # candidates.  Algorithm 1 starts a stage only after every DAG
            # ancestor finished (child maps wait for whole parents, reduce
            # waits for map), and the cluster serves each resource at most
            # at its aggregate rate.  Cutting the schedule at one stage
            # ``s`` splits time into three disjoint intervals — before
            # ``s`` starts (all ancestor work happens here), the span of
            # ``s`` itself, and after ``s`` finishes (all descendant work
            # happens here) — each with its own path and work floors::
            #
            #   span >= max(cp_ready(s), anc_work(s) / agg_rate) + span_lb(s)
            #           + max(cp_tail(s), desc_work(s) / agg_rate)
            #
            # plus the finish-time floor ``(anc + own work) / agg_rate``
            # in place of the first two terms.  The pure critical path
            # (work := 0) and the total-work floor (all work on one side
            # of the cut) are special cases; the max over all cuts also
            # prices a stage forced serial by its configuration (e.g. two
            # reducers) that neither pure path nor pure work can see.
            #
            # The path recurrences run stage-major, one contiguous row of
            # candidates per step.
            by_stage = np.ascontiguousarray(lower.T)
            finish = np.empty_like(by_stage)
            ready = np.zeros_like(by_stage)
            for col, dep in enumerate(deps):
                if len(dep) > 1:
                    ready[col] = finish[list(dep)].max(axis=0)
                elif dep:
                    ready[col] = finish[dep[0]]
                finish[col] = ready[col] + by_stage[col]
            tail = np.zeros_like(by_stage)
            for col in range(len(deps) - 1, -1, -1):
                step = tail[col] + by_stage[col]
                for parent in deps[col]:
                    np.maximum(tail[parent], step, out=tail[parent])
            ready, tail = ready.T, tail.T
            # anc_work[c, s, r]: summed work of s's ancestors on resource
            # r; desc_work transposes the closure.
            anc_work = np.einsum("st,ctr->csr", ancestors, stage_work)
            desc_work = np.einsum("ts,ctr->csr", ancestors, stage_work)
            start = np.maximum(ready, anc_work.max(axis=2) * _LB_SLACK)
            fin = np.maximum(
                start + lower,
                (anc_work + stage_work).max(axis=2) * _LB_SLACK,
            )
            suffix = np.maximum(tail, desc_work.max(axis=2) * _LB_SLACK)
            lb = (fin + suffix).max(axis=1)
            total_work = stage_work.sum(axis=1).max(axis=1)
            lb = np.maximum(lb, total_work * _LB_SLACK)
            for row, index in enumerate(members):
                if valid[row]:
                    results[index] = float(lb[row])
        return results
