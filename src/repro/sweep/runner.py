"""Batched what-if evaluation of candidate workflows.

The paper's headline use case is that one state-based estimate costs
milliseconds (§V-C), so configuration tuning, capacity planning and the
experiment grids reduce to *thousands* of estimator evaluations.  This
module turns those thousands of calls from serial-and-cold into
batched-cached-parallel:

* every candidate is evaluated through the memoised BOE model
  (:class:`~repro.core.boe.BOEModel`), so sub-stage solves shared between
  candidates — the ~90 % a coordinate-descent step does not perturb — are
  paid for once;
* a batch can be fanned out over a process pool with deterministic result
  ordering (results come back in candidate order regardless of worker
  scheduling, and each worker runs the same pure code the serial path
  runs, so estimates are bit-identical either way);
* every batch feeds a :class:`SweepReport` — evaluations/s, cache hit
  rate, wall vs CPU time, per-phase breakdown — surfaced by the CLI, the
  examples and ``benchmarks/bench_sweep.py``;
* candidates can also be evaluated *distributionally*
  (:meth:`SweepRunner.simulate_candidates`): after the bound screen, the
  surviving candidates run through the ensemble layer's one replication
  driver on the same worker pool, with common random numbers across
  candidates so two configurations rank by paired deltas
  (:meth:`SweepRunner.compare_paired`) rather than two noisy points.

Process-pool semantics: batches run through
:meth:`~repro.service.pool.ResilientPool.map_with_context`.  The worker
context (cluster, task-time sources, estimator configuration) ships once
per runner, inline in each chunk, and each worker keeps its copy, caches
included, warm across batches.  A runner whose source does not pickle (e.g. a closure-based test
stub) degrades to the serial path with a WARNING and a
``pool.serial_fallback`` count, and a worker that crashes mid-map
(``BrokenProcessPool``) marks the pool broken (``pool.broken``), finishes
the remaining chunks serially, and still returns complete results
bit-identical to an all-serial run — correctness never depends on the
pool.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.cluster import Cluster
from repro.core.boe import BOEModel
from repro.core.bounds import BoundsModel
from repro.core.distributions import Variant
from repro.core.estimator import BOESource, DagEstimator, TaskTimeSource
from repro.core.fingerprint import CacheStats
from repro.dag.workflow import Workflow
from repro.errors import EstimationError, SchedulingError
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.service.pool import CancelCheck, ResilientPool, parent_cpu_clock

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Candidate:
    """One what-if scenario: a workflow, optionally on a different cluster.

    Attributes:
        workflow: the (re-configured) workflow to estimate.
        cluster: cluster override for capacity-planning sweeps; ``None``
            uses the runner's cluster.
        label: report label; defaults to the workflow name.
    """

    workflow: Workflow
    cluster: Optional[Cluster] = None
    label: Optional[str] = None

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.workflow.name


@dataclass(frozen=True)
class CandidateResult:
    """Outcome of one candidate evaluation.

    Attributes:
        index: position in the submitted batch (results are returned in
            this order).
        label: the candidate's label.
        total_time_s: estimated makespan; ``None`` when infeasible.
        states: number of workflow states of the estimate.
        overhead_s: the estimator's own wall-clock cost for this candidate.
        error: the estimation or scheduling error message for an
            infeasible candidate, ``None`` on success.
        pruned: the candidate was rejected by the analytic bound screen
            before estimation (``total_time_s`` is ``None``).
        lower_bound_s: the analytic makespan lower bound that justified
            the prune (only populated on pruned results).
        prune_reason: which threshold the lower bound exceeded —
            ``"incumbent"`` (caller-supplied incumbent estimate) or
            ``"batch_ref"`` (the evaluated in-batch reference candidate).
    """

    index: int
    label: str
    total_time_s: Optional[float]
    states: int = 0
    overhead_s: float = 0.0
    error: Optional[str] = None
    pruned: bool = False
    lower_bound_s: Optional[float] = None
    prune_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.pruned


@dataclass(frozen=True)
class _ZeroReuse:
    """What :attr:`SweepReport.reuse` reads: every Algorithm 1 run starts
    from state 0, so nothing is reused.  ``benchmarks/ledger/trace.py``
    still reads these four counters."""

    hits: int = 0
    lookups: int = 0
    states_reused: int = 0
    states_computed: int = 0


@dataclass
class SweepReport:
    """Cumulative observability of a runner's evaluations.

    Attributes:
        candidates: candidates submitted (including infeasible and pruned
            ones — nothing is silently omitted from the accounting).
        succeeded: candidates that produced an estimate.
        infeasible: candidates rejected with an estimation or scheduling
            error.
        pruned: candidates skipped by the analytic bound screen; the
            per-reason split is in ``pruned_reasons`` and each skipped
            candidate's lower bound is on its :class:`CandidateResult`.
        batches: ``evaluate`` calls served.
        wall_time_s: wall-clock time spent inside ``evaluate``.
        cpu_time_s: CPU time across the parent and every worker process
            (``> wall_time_s`` signals real parallelism).
        processes: configured worker processes (1 = serial).
        pool_used: whether any batch actually ran on the process pool.
        cache: aggregated task-time cache ledger across all processes.
        phase_s: wall-clock per phase ("build" candidate normalisation,
            "estimate" the evaluations themselves, "collect" result
            assembly and stats merging).
    """

    candidates: int = 0
    succeeded: int = 0
    infeasible: int = 0
    pruned: int = 0
    pruned_reasons: Dict[str, int] = field(default_factory=dict)
    batches: int = 0
    wall_time_s: float = 0.0
    cpu_time_s: float = 0.0
    processes: int = 1
    pool_used: bool = False
    cache: CacheStats = field(default_factory=CacheStats)
    phase_s: Dict[str, float] = field(default_factory=dict)
    reuse: ClassVar[_ZeroReuse] = _ZeroReuse()

    @property
    def evaluations_per_s(self) -> float:
        return self.candidates / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def _phase(self, name: str, seconds: float) -> None:
        self.phase_s[name] = self.phase_s.get(name, 0.0) + seconds

    def describe(self) -> str:
        """One-line summary for CLI / benchmark output."""
        pruned = f", {self.pruned} pruned" if self.pruned else ""
        return (
            f"{self.candidates} evaluations ({self.infeasible} infeasible"
            f"{pruned}) in "
            f"{self.wall_time_s * 1000:.0f} ms "
            f"({self.evaluations_per_s:.0f}/s, cpu {self.cpu_time_s * 1000:.0f} ms, "
            f"{self.processes} proc{'s' if self.processes != 1 else ''}, "
            f"cache {self.cache.describe()})"
        )


class _EvalContext:
    """Everything a (worker) process needs to evaluate candidates.

    Holds one task-time source per cluster: the default BOE source is
    rebuilt for each distinct candidate cluster (its model is bound to a
    cluster), while an explicitly supplied source is pinned to the
    runner's cluster and cluster overrides are rejected.

    On top of the per-task cache inside the sources, the context memoises
    whole candidate outcomes by (workflow, cluster): coordinate descent
    re-checks every knob against the final assignment on its no-improvement
    pass, and grids often contain repeated points.  Workflows and clusters
    are frozen dataclasses hashing by value, so the key is taken at call
    time and a mutated workflow can never match a stale entry.
    """

    #: Span wrapping each pooled chunk (see :mod:`repro.service.pool`).
    chunk_span = "sweep.chunk"

    def __init__(
        self,
        cluster: Cluster,
        source: Optional[TaskTimeSource],
        variant: Variant,
        policy: str,
        enforce_vcores: bool,
        refine: bool,
        memo: bool = True,
        max_memo_entries: int = 65_536,
        batch: bool = True,
    ):
        self._cluster = cluster
        self._fixed_source = source
        self._variant = variant
        self._policy = policy
        self._enforce_vcores = enforce_vcores
        self._refine = refine
        self._batch = batch
        self._sources: Dict[Cluster, TaskTimeSource] = {}
        if source is not None:
            self._sources[cluster] = source
        self._memo: Optional[Dict[object, CandidateResult]] = {} if memo else None
        self._max_memo_entries = max_memo_entries
        self._memo_stats = CacheStats()

    def source_for(self, cluster: Cluster) -> TaskTimeSource:
        source = self._sources.get(cluster)
        if source is None:
            if self._fixed_source is not None:
                raise EstimationError(
                    "candidates with cluster overrides require the runner's "
                    "default BOE source (an explicit source is bound to one "
                    "cluster)"
                )
            source = BOESource(BOEModel(cluster, refine=self._refine))
            self._sources[cluster] = source
        return source

    def cache_stats(self) -> CacheStats:
        """Aggregate ledger: per-task caches of every source, plus the
        candidate-level memo (a memo hit stands for all the task-time
        lookups the skipped estimate would have made)."""
        total = CacheStats()
        for source in self._sources.values():
            stats = getattr(source, "cache_stats", None)
            if stats is not None:
                total.add(stats)
        total.add(self._memo_stats)
        return total

    def evaluate(
        self,
        index: int,
        label: str,
        workflow: Workflow,
        cluster: Optional[Cluster],
    ) -> CandidateResult:
        target = cluster if cluster is not None else self._cluster
        memo_key = None
        if self._memo is not None:
            memo_key = (workflow, target)
            hit = self._memo.get(memo_key)
            if hit is not None:
                self._memo_stats.hits += 1
                return replace(hit, index=index, label=label)
            self._memo_stats.misses += 1
        estimator = DagEstimator(
            target,
            self.source_for(target),
            variant=self._variant,
            policy=self._policy,
            enforce_vcores=self._enforce_vcores,
            batch=self._batch,
        )
        try:
            estimate = estimator.estimate(workflow)
        except (EstimationError, SchedulingError) as exc:
            # A container exceeding the cluster is a scheduling error, but
            # for a sweep it is just another infeasible candidate.
            result = CandidateResult(
                index=index, label=label, total_time_s=None, error=str(exc)
            )
        else:
            result = CandidateResult(
                index=index,
                label=label,
                total_time_s=estimate.total_time,
                states=len(estimate.states),
                overhead_s=estimate.model_overhead_s,
            )
        if memo_key is not None:
            while len(self._memo) >= self._max_memo_entries:
                self._memo.pop(next(iter(self._memo)))
                self._memo_stats.evictions += 1
            self._memo[memo_key] = result
        return result


_Item = Tuple[int, str, Workflow, Optional[Cluster]]

_ChunkOutcome = Tuple[List[CandidateResult], CacheStats]


def _evaluate_chunk(context: _EvalContext, items: Sequence[_Item]) -> _ChunkOutcome:
    """Evaluate one chunk against ``context``: the sweep's pure work
    function for :meth:`~repro.service.pool.ResilientPool.map_with_context`.

    Returns the results with the chunk's cache delta, which the parent
    folds into its report.
    """
    before = context.cache_stats().snapshot()
    results = [context.evaluate(*item) for item in items]
    return results, context.cache_stats().delta(before)


class SweepRunner:
    """Shared batched-evaluation engine for what-if sweeps.

    One runner instance is meant to live for a whole sweep (a tuning run,
    a grid, a capacity plan): its task-time caches — and, when
    ``processes > 1``, its worker pool — persist across ``evaluate``
    calls, which is where the throughput comes from.

    Args:
        cluster: default target cluster.
        source: task-time source; ``None`` builds a memoised
            :class:`~repro.core.estimator.BOESource` per candidate cluster.
        variant: estimator variant (Alg1-Mean / Alg1-Mid / Alg2-Normal).
        policy: scheduler policy for the parallelism equilibrium.
        enforce_vcores: forwarded to :class:`~repro.core.estimator.DagEstimator`.
        refine: build refined BOE models (only with ``source=None``).
        memo: memoise whole candidate outcomes by (workflow, cluster);
            disable to reproduce the uncached serial reference path.
        batch: evaluate each state's task-time queries through the batched
            BOE kernel (``distribution_batch``) when the source supports
            it.  ``None`` (default) follows ``memo``.
        prune: screen candidates with analytic makespan bounds
            (:mod:`repro.core.bounds`) before estimation: a candidate whose
            lower bound exceeds the incumbent's evaluated estimate (or,
            without an incumbent, the evaluated in-batch reference
            candidate's) is skipped — provably never the batch winner.
            Default off: an exact sweep evaluates every grid point.
            Per-call override via ``evaluate(..., prune=...)``.
        processes: worker processes; 1 (default) evaluates in-process.
        chunksize: candidates per pool task; ``None`` picks
            ``ceil(n / (4 * processes))``.
        pool: a *shared* :class:`~repro.service.pool.ResilientPool` to
            borrow instead of owning one (the service multiplexes every
            job over a single pool); the pool is never closed by this
            runner and ``processes`` follows the pool's size.
    """

    def __init__(
        self,
        cluster: Cluster,
        source: Optional[TaskTimeSource] = None,
        variant: Variant = Variant.MEAN,
        policy: str = "drf",
        enforce_vcores: bool = False,
        refine: bool = False,
        memo: bool = True,
        batch: Optional[bool] = None,
        prune: bool = False,
        processes: int = 1,
        chunksize: Optional[int] = None,
        pool: Optional[ResilientPool] = None,
    ):
        if processes < 1:
            raise EstimationError(f"processes must be >= 1: {processes}")
        if chunksize is not None and chunksize < 1:
            raise EstimationError(f"chunksize must be >= 1: {chunksize}")
        self._context = _EvalContext(
            cluster,
            source,
            variant,
            policy,
            enforce_vcores,
            refine,
            memo=memo,
            batch=memo if batch is None else batch,
        )
        self._own_pool = pool is None
        self._pool = pool if pool is not None else ResilientPool(processes, label="sweep")
        self._processes = max(1, self._pool.processes)
        self._chunksize = chunksize
        self._prune = prune
        # One BoundsModel per candidate cluster; ``None`` marks clusters
        # whose source cannot be bounded (stubs, scaled wrappers).
        self._bounds_models: Dict[Cluster, Optional[BoundsModel]] = {}
        self._report = SweepReport(processes=self._processes)

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the shipped worker context and shut an owned pool down
        (a borrowed pool stays up)."""
        self._pool.release(self._context)
        if self._own_pool:
            self._pool.close()

    @property
    def report(self) -> SweepReport:
        """Cumulative stats over every ``evaluate`` call so far."""
        return self._report

    def reset_report(self) -> None:
        self._report = SweepReport(processes=self._processes)

    # -- evaluation --------------------------------------------------------------

    def _bounds_for(self, cluster: Cluster) -> Optional[BoundsModel]:
        """The bounds model matching this cluster's task-time source.

        ``None`` — no pruning — when the source is not a plain
        :class:`~repro.core.estimator.BOESource` (stubs, measured profiles,
        scaled wrappers): bounds derived from the BOE decomposition
        would not bound what such a source estimates.
        """
        if cluster in self._bounds_models:
            return self._bounds_models[cluster]
        model: Optional[BoundsModel] = None
        try:
            source = self._context.source_for(cluster)
        except EstimationError:
            source = None
        if source is not None and type(source) is BOESource:
            model = BoundsModel.from_source(
                source,
                policy=self._context._policy,
                enforce_vcores=self._context._enforce_vcores,
            )
        self._bounds_models[cluster] = model
        return model

    def _lower_bounds(
        self, pairs: Sequence[Tuple[Optional[Cluster], Workflow]]
    ) -> List[Optional[float]]:
        """Analytic makespan lower bound per ``(cluster, workflow)`` pair.

        Pairs are batched through
        :meth:`~repro.core.bounds.BoundsModel.bounds_batch` per cluster key
        (``None`` is the runner's cluster); a pair whose cluster has no
        bounds model (see :meth:`_bounds_for`) gets ``None``.
        """
        bounds: List[Optional[float]] = [None] * len(pairs)
        by_cluster: Dict[Optional[Cluster], List[int]] = {}
        for position, (cluster, _) in enumerate(pairs):
            by_cluster.setdefault(cluster, []).append(position)
        for cluster, positions in by_cluster.items():
            model = self._bounds_for(
                cluster if cluster is not None else self._context._cluster
            )
            if model is None:
                continue
            batch = model.bounds_batch([pairs[p][1] for p in positions])
            for position, lower in zip(positions, batch):
                bounds[position] = lower
        return bounds

    def _prune_items(
        self,
        items: List[_Item],
        incumbent_time_s: Optional[float],
    ) -> Tuple[List[_Item], List[CandidateResult]]:
        """Split a batch into (surviving items, pruned results).

        Lower bounds are computed for every candidate with a boundable
        source (grouped per cluster, batched through
        :meth:`~repro.core.bounds.BoundsModel.bounds_batch`).  The prune
        threshold is always an *evaluated* estimate: the caller's
        incumbent, or — without one — the estimate of the in-batch
        candidate with the smallest lower bound, evaluated here first
        (reason ``"batch_ref"``).  Either way a candidate estimating below
        the threshold also lower-bounds below it, so the batch winner can
        never be pruned.
        """
        bounds = self._lower_bounds([(item[3], item[2]) for item in items])
        registry = get_metrics()
        threshold = incumbent_time_s
        reason = "incumbent"
        reference: Optional[CandidateResult] = None
        if threshold is None:
            bounded = [p for p, b in enumerate(bounds) if b is not None]
            if len(bounded) > 1:
                ref_pos = min(bounded, key=lambda p: bounds[p])
                reference = self._context.evaluate(*items[ref_pos])
                if reference.ok:
                    threshold = reference.total_time_s
                    reason = "batch_ref"
                items = [it for p, it in enumerate(items) if p != ref_pos]
                bounds = [b for p, b in enumerate(bounds) if p != ref_pos]
        if threshold is None:
            kept = items
            pruned_results: List[CandidateResult] = []
        else:
            kept = []
            pruned_results = []
            pruned_ctr = (
                registry.labeled_counter("sweep.pruned", reason=reason)
                if registry.enabled
                else None
            )
            for item, lower in zip(items, bounds):
                if lower is not None and lower > threshold:
                    index, label, _, _ = item
                    pruned_results.append(
                        CandidateResult(
                            index=index,
                            label=label,
                            total_time_s=None,
                            pruned=True,
                            lower_bound_s=lower,
                            prune_reason=reason,
                        )
                    )
                    if pruned_ctr is not None:
                        pruned_ctr.inc()
                else:
                    kept.append(item)
        if reference is not None:
            pruned_results.append(reference)
        return kept, pruned_results

    def evaluate(
        self,
        candidates: Sequence[Union[Candidate, Workflow]],
        cancel: Optional[CancelCheck] = None,
        *,
        prune: Optional[bool] = None,
        incumbent_time_s: Optional[float] = None,
    ) -> List[CandidateResult]:
        """Estimate every candidate; results in submission order.

        Infeasible candidates (estimation or scheduling errors) are
        captured in their
        :class:`CandidateResult` rather than raised, so one broken grid
        point cannot abort a sweep.

        With pruning enabled (``prune=True`` here or on the runner), every
        candidate's analytic lower bound (:mod:`repro.core.bounds`) is
        compared against ``incumbent_time_s`` — the incumbent's evaluated
        estimate, its tightest upper bound — or, absent one, against the
        estimate of the batch's most promising candidate; candidates that
        provably cannot win come back with ``pruned=True`` instead of an
        estimate.  Pass ``prune=False`` for an exact sweep of every point.

        ``cancel`` is polled between candidates/chunks (see
        :data:`~repro.service.pool.CancelCheck`): a truthy return raises
        :class:`~repro.errors.JobCancelledError` and queued pool work is
        released; the check may instead raise its own typed error (the
        service's cooperative deadlines).
        """
        t0 = time.perf_counter()
        tracer = get_tracer()
        span = (
            tracer.begin("sweep.batch", candidates=len(candidates))
            if tracer.enabled
            else None
        )
        items: List[_Item] = []
        for index, entry in enumerate(candidates):
            if isinstance(entry, Workflow):
                entry = Candidate(workflow=entry)
            items.append((index, entry.name, entry.workflow, entry.cluster))
        do_prune = self._prune if prune is None else prune
        pruned_results: List[CandidateResult] = []
        prune_cpu = 0.0
        bounds_before = self._report.phase_s.get("bounds", 0.0)
        if do_prune and len(items) > 1:
            tb = time.perf_counter()
            cpu_b = parent_cpu_clock()
            items, pruned_results = self._prune_items(items, incumbent_time_s)
            prune_cpu = parent_cpu_clock() - cpu_b
            self._report._phase("bounds", time.perf_counter() - tb)
        report = self._report
        bounds_wall = report.phase_s.get("bounds", 0.0) - bounds_before
        report._phase("build", time.perf_counter() - t0 - bounds_wall)
        if not items and not pruned_results:
            tracer.finish(span, pooled=False)
            return []

        t1 = time.perf_counter()
        try:
            mapped = self._pool.map_with_context(
                self._context,
                _evaluate_chunk,
                items,
                chunksize=self._chunksize,
                cancel=cancel,
            )
        except BaseException as exc:
            if span is not None:
                tracer.finish(span, error=type(exc).__name__)
            raise
        results: List[CandidateResult] = []
        cache_delta = CacheStats()
        for chunk_results, chunk_cache in mapped.outputs:
            results.extend(chunk_results)
            cache_delta.add(chunk_cache)
        cpu_s, pooled = mapped.cpu_s, mapped.pooled
        report._phase("estimate", time.perf_counter() - t1)

        t2 = time.perf_counter()
        results.extend(pruned_results)
        results.sort(key=lambda r: r.index)
        pruned_count = sum(1 for r in results if r.pruned)
        report.candidates += len(results)
        report.succeeded += sum(1 for r in results if r.ok)
        report.infeasible += sum(1 for r in results if r.error is not None)
        report.pruned += pruned_count
        for r in results:
            if r.pruned:
                report.pruned_reasons[r.prune_reason] = (
                    report.pruned_reasons.get(r.prune_reason, 0) + 1
                )
        report.batches += 1
        report.cpu_time_s += cpu_s + prune_cpu
        report.pool_used = report.pool_used or pooled
        report.cache.add(cache_delta)
        report._phase("collect", time.perf_counter() - t2)
        report.wall_time_s += time.perf_counter() - t0
        if span is not None:
            tracer.finish(
                span,
                pooled=pooled,
                infeasible=sum(1 for r in results if r.error is not None),
                pruned=pruned_count,
            )
        logger.debug("sweep batch: %s", report.describe())
        return results

    # -- distributional evaluation ------------------------------------------------

    def simulate_candidates(
        self,
        candidates: Sequence[Union[Candidate, Workflow]],
        config=None,
        ensemble=None,
        cancel: Optional[CancelCheck] = None,
        *,
        prune: Optional[bool] = None,
        incumbent_time_s: Optional[float] = None,
    ) -> List[Optional["EnsembleResult"]]:
        """Evaluate candidates *distributionally*: a replication ensemble
        of the ground-truth simulator per candidate, instead of one BOE
        point estimate.

        Reuses the runner's worker pool (replication chunks ride the same
        executor as estimator chunks) and the runner's report accounting.  Every candidate runs the full ``ensemble.replications``
        budget under the same ``base_seed`` — common random numbers across
        candidates, so the returned sample vectors are pairable
        (:func:`repro.ensemble.compare.paired_from_samples`); per-candidate
        early stopping would break that alignment and is left to
        :class:`repro.ensemble.EnsembleRunner`.

        Args:
            candidates: what-if scenarios (cluster overrides respected).
            config: base :class:`~repro.simulator.engine.SimulationConfig`
                whose seeds are re-derived per replication.
            ensemble: :class:`~repro.ensemble.EnsembleConfig`; its
                ``processes`` field is ignored in favour of the runner's.
            prune: screen candidates with analytic lower bounds before
                spending any replication budget; ``None`` follows the
                runner's ``prune`` setting.
            incumbent_time_s: the evaluated incumbent makespan the bound
                screen compares against; pruning a *distributional* batch
                requires it (there is no cheap in-batch reference, so
                without an incumbent nothing is pruned).  The analytic
                bound holds for the deterministic estimator, which the
                simulator validates in expectation — a pruned candidate is
                one the model proves worse than the incumbent, spending
                zero replications on it.

        Returns:
            One :class:`~repro.ensemble.EnsembleResult` per candidate, in
            submission order; a pruned candidate's slot is ``None``.
        """
        from repro.ensemble.engine import EnsembleConfig, VariantSpec, _replicate
        from repro.simulator.engine import SimulationConfig

        ens = ensemble if ensemble is not None else EnsembleConfig()
        config = config if config is not None else SimulationConfig()
        t0 = time.perf_counter()
        tracer = get_tracer()
        span = tracer.begin(
            "sweep.simulate_batch",
            candidates=len(candidates),
            replications=ens.replications,
        )
        variants: List[Tuple[str, VariantSpec]] = []
        for entry in candidates:
            if isinstance(entry, Workflow):
                entry = Candidate(workflow=entry)
            cluster = (
                entry.cluster
                if entry.cluster is not None
                else self._context._cluster
            )
            variants.append(
                (entry.name, VariantSpec(entry.workflow, cluster, config))
            )
        report = self._report
        # Bound screen: an analytic lower bound above the incumbent's
        # evaluated makespan skips the candidate's whole replication
        # budget — the biggest single saving pruning can buy, since one
        # ensemble costs ``replications`` full simulations.
        pruned_out = [False] * len(variants)
        should_prune = self._prune if prune is None else prune
        if should_prune and incumbent_time_s is not None and variants:
            bounds = self._lower_bounds(
                [(variant.cluster, variant.workflow) for _, variant in variants]
            )
            pruned_out = [b is not None and b > incumbent_time_s for b in bounds]
            skipped = sum(pruned_out)
            registry = get_metrics()
            if registry.enabled:
                registry.labeled_counter("sweep.pruned", reason="incumbent").inc(
                    skipped
                )
            if skipped:
                report.pruned += skipped
                report.pruned_reasons["incumbent"] = (
                    report.pruned_reasons.get("incumbent", 0) + skipped
                )
        # The survivors replicate as one batch under common seeds: work
        # items are (candidate, replication) pairs, so chunks may span
        # candidates.
        run = _replicate(
            [variant for (_, variant), out in zip(variants, pruned_out) if not out],
            ens,
            pool=self._pool,
            cancel=cancel,
        )
        survivors = iter(run.accumulators)
        results = [
            None if out else next(survivors).result(label, ens, run)
            for (label, _), out in zip(variants, pruned_out)
        ]
        report.candidates += len(results)
        report.succeeded += len(run.accumulators)
        report.batches += 1
        report.cpu_time_s += run.cpu_s
        report.wall_time_s += time.perf_counter() - t0
        report.pool_used = report.pool_used or run.pooled
        tracer.finish(span, pooled=run.pooled)
        logger.debug("distributional sweep batch: %s", report.describe())
        return results

    def compare_paired(
        self,
        baseline: Union[Candidate, Workflow],
        candidate: Union[Candidate, Workflow],
        config=None,
        ensemble=None,
    ) -> "PairedComparison":
        """Rank two configurations by the distribution of paired deltas.

        Both sides run under common random numbers through
        :meth:`simulate_candidates` (same pool, same base seed), and the
        aligned sample vectors become a
        :class:`~repro.ensemble.PairedComparison` — a delta CI that is
        tighter than comparing two independent point estimates ever could
        be.
        """
        from repro.ensemble.compare import paired_from_samples

        ens_a, ens_b = self.simulate_candidates(
            [baseline, candidate], config=config, ensemble=ensemble
        )
        return paired_from_samples(
            ens_a.workflow,
            ens_a.samples,
            ens_b.workflow,
            ens_b.samples,
            base_seed=ens_a.base_seed,
            aborted=ens_a.aborted,
            wall_time_s=ens_a.wall_time_s,
            cpu_time_s=ens_a.cpu_time_s,
            processes=self._processes,
            pool_used=ens_a.pool_used,
        )


def default_processes(cap: int = 8) -> int:
    """A sensible pool size for CLI/benchmark use: the machine's cores,
    capped (estimator sweeps saturate quickly), and 1 on single-core boxes
    (where the pool is pure overhead)."""
    cores = os.cpu_count() or 1
    return max(1, min(cap, cores))
