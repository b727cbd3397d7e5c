"""Parallel Monte Carlo replication engine for the simulator.

The BOE/Algorithm 1 estimators predict *expected* makespan; the simulator
that validates them is stochastic (seeded input-size skew, seeded failure
injection), so a single run is one sample of a distribution.  This engine
turns N seeded replications into that distribution — cheaply, in parallel
and deterministically:

* **Seed streaming** — replication *i* re-seeds the caller's
  :class:`~repro.simulator.engine.SimulationConfig` through
  :func:`~repro.simulator.seeding.replication_config`, a pure function of
  ``(base_seed, i)``, so any process may run any replication.
* **One replication driver** — :class:`EnsembleRunner` and
  :func:`repro.ensemble.compare.compare_paired` both run through
  ``_replicate``: the variants are the pool context of
  :meth:`~repro.service.pool.ResilientPool.map_with_context`, pickled once
  per run, and work items are bare ``(variant, index)`` integer pairs.
  Callers differ only in their early-stopping rule.
* **Streaming aggregation** — each replication reduces to a small
  :class:`ReplicationRecord` inside the worker; the parent folds records
  into P² quantile markers, Welford summaries and per-state duration
  summaries *in replication order* (an index-ordered reorder buffer), so
  no trace is retained beyond the configurable ``exemplars`` prefix.
* **Adaptive early stopping** — after each round the caller's stop rule
  (for :class:`EnsembleRunner`, the order-statistic CI of the target
  quantile against ``ci_tol``) is checked; rounds are fixed by the config
  (never by the worker count), so the replication count at which an
  ensemble stops is itself deterministic.

Determinism contract: a given ``(base_seed, n)`` produces bit-identical
aggregates regardless of process count or chunk arrival order, enforced by
``tests/ensemble/test_engine.py`` against the serial path (mirroring the
sweep layer's parity contract) and pinned to the bit by
``tests/ensemble/test_ensemble_golden.py``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.dag.workflow import Workflow
from repro.errors import JobAbortedError, SpecificationError
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.service.pool import CancelCheck, ResilientPool
from repro.simulator.engine import SimulationConfig, simulate
from repro.simulator.seeding import replication_config
from repro.simulator.trace import SimulationResult
from repro.ensemble.quantiles import (
    P2Quantile,
    RunningStat,
    quantile_ci,
    sample_quantile,
)

logger = logging.getLogger(__name__)

#: Quantiles every ensemble tracks with streaming P² markers.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


@dataclass(frozen=True)
class EnsembleConfig:
    """Knobs of one replication ensemble.

    Attributes:
        replications: hard maximum replication count (the full budget when
            early stopping is off).
        min_replications: hard minimum before early stopping may trigger.
        base_seed: root of the per-replication seed tree
            (:func:`~repro.simulator.seeding.replication_seeds`).
        target_quantile: the quantile whose confidence interval drives
            early stopping (and is reported with its CI).
        ci_tol: relative CI tolerance — stop once the target quantile's CI
            half-width is ``<= ci_tol * estimate``.  ``None`` disables
            early stopping (the full budget runs).
        ci_z: normal critical value of the CI (1.96 = 95 %).
        exemplars: how many full :class:`SimulationResult` traces survive
            (replications ``0..exemplars-1``) for Perfetto export; all
            other replications are reduced to records in the worker.
        processes: worker processes; 1 runs in-process.
        chunksize: work items per pool task; ``None`` picks
            ``ceil(n / (4 * processes))`` per batch.
        round_size: replications added per early-stopping round after the
            initial ``min_replications``; ``None`` uses
            ``min_replications``.  Rounds are a function of the config
            only, so early-stop decisions are identical for any process
            count.
    """

    replications: int = 64
    min_replications: int = 8
    base_seed: int = 42
    target_quantile: float = 0.95
    ci_tol: Optional[float] = None
    ci_z: float = 1.96
    exemplars: int = 1
    processes: int = 1
    chunksize: Optional[int] = None
    round_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise SpecificationError(
                f"replications must be >= 1: {self.replications}"
            )
        if not 1 <= self.min_replications <= self.replications:
            raise SpecificationError(
                "min_replications must be in [1, replications]: "
                f"{self.min_replications} vs {self.replications}"
            )
        if not 0.0 < self.target_quantile < 1.0:
            raise SpecificationError(
                f"target quantile must be in (0, 1): {self.target_quantile}"
            )
        if self.ci_tol is not None and self.ci_tol <= 0.0:
            raise SpecificationError(f"ci_tol must be > 0: {self.ci_tol}")
        if self.ci_z <= 0.0:
            raise SpecificationError(f"ci_z must be > 0: {self.ci_z}")
        if self.exemplars < 0:
            raise SpecificationError(f"exemplars must be >= 0: {self.exemplars}")
        if self.processes < 1:
            raise SpecificationError(f"processes must be >= 1: {self.processes}")
        if self.chunksize is not None and self.chunksize < 1:
            raise SpecificationError(f"chunksize must be >= 1: {self.chunksize}")
        if self.round_size is not None and self.round_size < 1:
            raise SpecificationError(
                f"round_size must be >= 1: {self.round_size}"
            )

    def round_targets(self) -> List[int]:
        """Cumulative replication counts at which early stopping is checked.

        ``[min_replications, min+round, min+2*round, ..., replications]``
        — a pure function of the config, never of the machine.
        """
        step = self.round_size or self.min_replications
        targets = [min(self.min_replications, self.replications)]
        while targets[-1] < self.replications:
            targets.append(min(self.replications, targets[-1] + step))
        return targets

    def tracked_quantiles(self) -> Tuple[float, ...]:
        """The streaming quantile set: defaults plus the target."""
        if self.target_quantile in DEFAULT_QUANTILES:
            return DEFAULT_QUANTILES
        return tuple(sorted((*DEFAULT_QUANTILES, self.target_quantile)))


@dataclass(frozen=True)
class ReplicationRecord:
    """The streaming reduction of one replication — all a worker returns
    for a non-exemplar run."""

    index: int
    skew_seed: int
    failure_seed: int
    makespan: float
    tasks: int
    states: int
    failed_attempts: int
    state_durations: Tuple[float, ...]
    #: Why the run aborted (a task failed every allowed attempt), or
    #: ``None``; an aborted run has no makespan to aggregate.
    aborted: Optional[str] = None


@dataclass(frozen=True)
class EnsembleResult:
    """Distributional outcome of one ensemble.

    ``replications`` counts every run, ``aborted`` those whose job
    aborted; the makespan statistics, quantiles and ``samples`` cover the
    rest.  All fields except the wall/CPU telemetry are covered by the
    determinism contract: identical for a given ``(config, workflow)``
    across process counts and chunk orders.
    """

    workflow: str
    replications: int
    max_replications: int
    early_stopped: bool
    base_seed: int
    target_quantile: float
    ci: Tuple[float, float]
    quantiles: Dict[float, float]
    makespan: Dict[str, float]
    failed_attempts: Dict[str, float]
    state_durations: Tuple[Dict[str, float], ...]
    samples: Tuple[float, ...]
    exemplars: Tuple[SimulationResult, ...] = ()
    aborted: int = 0
    wall_time_s: float = 0.0
    cpu_time_s: float = 0.0
    processes: int = 1
    pool_used: bool = False

    def quantile(self, q: float) -> float:
        """Exact sample quantile of the retained makespan scalars."""
        return sample_quantile(sorted(self.samples), q)

    @property
    def ci_halfwidth(self) -> float:
        return (self.ci[1] - self.ci[0]) / 2.0

    @property
    def ci_rel_halfwidth(self) -> float:
        """CI half-width relative to the target-quantile estimate."""
        estimate = self.quantiles[self.target_quantile]
        return self.ci_halfwidth / estimate if estimate > 0 else 0.0

    def describe(self) -> str:
        """One-line summary for CLI / benchmark output."""
        stopped = " (early stop)" if self.early_stopped else ""
        return (
            f"{self.replications}/{self.max_replications} replications"
            f"{stopped} in {self.wall_time_s * 1000:.0f} ms "
            f"(cpu {self.cpu_time_s * 1000:.0f} ms, {self.processes} "
            f"proc{'s' if self.processes != 1 else ''}"
            f"{', pooled' if self.pool_used else ''}); makespan "
            f"p50 {self.quantiles[0.5]:.1f}s p95 {self.quantiles[0.95]:.1f}s "
            f"p99 {self.quantiles[0.99]:.1f}s, "
            f"P{self.target_quantile * 100:g} CI "
            f"[{self.ci[0]:.1f}, {self.ci[1]:.1f}]s"
            + (f", {self.aborted} aborted" if self.aborted else "")
        )


@dataclass(frozen=True)
class VariantSpec:
    """One simulated configuration: what a replication index is applied to."""

    workflow: Workflow
    cluster: Cluster
    config: SimulationConfig


def run_replication(
    variant: VariantSpec, base_seed: int, index: int, keep_trace: bool
) -> Tuple[ReplicationRecord, Optional[SimulationResult]]:
    """Execute one replication and reduce it to its record.

    The full trace is dropped inside the worker unless ``keep_trace`` —
    this is the streaming-aggregation boundary.
    """
    config = replication_config(variant.config, base_seed, index)
    try:
        result = simulate(variant.workflow, variant.cluster, config)
    except JobAbortedError as exc:
        aborted = ReplicationRecord(
            index, config.skew.seed, config.failures.seed, math.nan, 0, 0, 0, (),
            aborted=str(exc),
        )
        return aborted, None
    record = ReplicationRecord(
        index=index,
        skew_seed=config.skew.seed,
        failure_seed=config.failures.seed,
        makespan=result.makespan,
        tasks=result.task_count,
        states=len(result.states),
        failed_attempts=len(result.failed_attempts),
        state_durations=tuple(s.duration for s in result.states),
    )
    return record, (result if keep_trace else None)


class _Accumulator:
    """Index-ordered streaming aggregation of replication records.

    Records may arrive in any order (pool chunks complete when they
    complete); a reorder buffer releases them strictly by replication
    index, so every P²/Welford update sequence — and therefore every
    aggregate bit — is independent of chunking.
    """

    def __init__(self, quantiles: Sequence[float], counter=None):
        self._p2 = {q: P2Quantile(q) for q in quantiles}
        self.makespan = RunningStat()
        self.failed = RunningStat()
        self.states: List[RunningStat] = []
        self.samples: List[float] = []
        self.aborted: List[str] = []  # abort messages, in replication order
        self.exemplars: Dict[int, SimulationResult] = {}
        self._pending: Dict[
            int, Tuple[ReplicationRecord, Optional[SimulationResult]]
        ] = {}
        self._next = 0
        self._counter = counter

    @property
    def count(self) -> int:
        return self._next

    def add(
        self, record: ReplicationRecord, trace: Optional[SimulationResult]
    ) -> None:
        self._pending[record.index] = (record, trace)
        while self._next in self._pending:
            self._consume(*self._pending.pop(self._next))

    def _consume(
        self, record: ReplicationRecord, trace: Optional[SimulationResult]
    ) -> None:
        assert record.index == self._next
        self._next += 1
        if self._counter is not None:
            self._counter.inc()
        if record.aborted is not None:
            self.aborted.append(record.aborted)
            return
        self.samples.append(record.makespan)
        self.makespan.push(record.makespan)
        self.failed.push(float(record.failed_attempts))
        for p2 in self._p2.values():
            p2.push(record.makespan)
        for i, duration in enumerate(record.state_durations):
            if i >= len(self.states):
                self.states.append(RunningStat())
            self.states[i].push(duration)
        if trace is not None:
            self.exemplars[record.index] = trace

    def settled(self) -> bool:
        """True when no out-of-order record is still buffered."""
        return not self._pending

    def quantiles(self) -> Dict[float, float]:
        return {q: p2.value for q, p2 in self._p2.items()}

    def target_ci(self, q: float, z: float) -> Tuple[float, float]:
        return quantile_ci(sorted(self.samples), q, z)

    def result(
        self, label: str, ens: EnsembleConfig, run: _Replicated
    ) -> EnsembleResult:
        """The :class:`EnsembleResult` of this accumulator's replications."""
        return EnsembleResult(
            workflow=label,
            replications=self.count,
            max_replications=ens.replications,
            early_stopped=run.early_stopped,
            base_seed=ens.base_seed,
            target_quantile=ens.target_quantile,
            ci=self.target_ci(ens.target_quantile, ens.ci_z),
            quantiles=self.quantiles(),
            makespan=self.makespan.snapshot(),
            failed_attempts=self.failed.snapshot(),
            state_durations=tuple(s.snapshot() for s in self.states),
            samples=tuple(self.samples),
            exemplars=tuple(self.exemplars[i] for i in sorted(self.exemplars)),
            aborted=len(self.aborted),
            wall_time_s=run.wall_s,
            cpu_time_s=run.cpu_s,
            processes=run.processes,
            pool_used=run.pooled,
        )


# -- pooled execution -------------------------------------------------------------


@dataclass(frozen=True)
class _EnsembleSetup:
    """Everything a replication needs: the read-only pool context."""

    variants: Tuple[VariantSpec, ...]
    base_seed: int
    keep_trace_below: int

    #: Span wrapping each pooled chunk (see :mod:`repro.service.pool`).
    chunk_span = "ensemble.chunk"


#: One work item: (variant index, replication index).
_Item = Tuple[int, int]


def _evaluate_items(
    setup: _EnsembleSetup, items: Sequence[_Item]
) -> List[Tuple[int, ReplicationRecord, Optional[SimulationResult]]]:
    out = []
    for variant_idx, index in items:
        record, trace = run_replication(
            setup.variants[variant_idx],
            setup.base_seed,
            index,
            keep_trace=index < setup.keep_trace_below,
        )
        out.append((variant_idx, record, trace))
    return out


class _Replicated(NamedTuple):
    """What :func:`_replicate` returns: one accumulator per variant plus
    the run's telemetry."""

    accumulators: List[_Accumulator]
    wall_s: float
    cpu_s: float
    processes: int
    pooled: bool
    early_stopped: bool


def _replicate(
    variants: Sequence[VariantSpec],
    ens: EnsembleConfig,
    pool: Optional[ResilientPool] = None,
    cancel: Optional[CancelCheck] = None,
    stop: Optional[Callable[[List[_Accumulator]], bool]] = None,
) -> _Replicated:
    """Run ``ens``'s replications of every variant under common seeds.

    The one replication driver: every variant's replication ``i`` runs
    under the seeds of ``(ens.base_seed, i)``.  ``pool`` is borrowed (the
    service's); without one an ``ens.processes`` pool is owned for the
    call.  With ``stop`` the budget runs in the rounds of
    :meth:`EnsembleConfig.round_targets`, and the run ends after the
    first round whose accumulators satisfy ``stop``; without it the whole
    budget is one batch.  ``cancel`` is polled between chunks.

    A replication whose job aborts is counted, not fatal.  Its index is
    one common-random-number draw, so it counts as aborted under every
    variant and paired sample vectors stay aligned; only when every
    replication aborts does the run raise :class:`JobAbortedError`.
    """
    t0 = time.perf_counter()
    registry = get_metrics()
    counter = registry.counter("ensemble.replications") if registry.enabled else None
    accumulators = [_Accumulator(ens.tracked_quantiles(), counter) for _ in variants]
    setup = _EnsembleSetup(tuple(variants), ens.base_seed, ens.exemplars)
    owned = pool is None
    if pool is None:
        pool = ResilientPool(ens.processes, label="ensemble")
    cpu_s, pooled, early_stopped = 0.0, False, False
    done = 0
    try:
        for target in ens.round_targets() if stop is not None else [ens.replications]:
            items = [(v, i) for i in range(done, target) for v in range(len(variants))]
            mapped = pool.map_with_context(
                setup, _evaluate_items, items, chunksize=ens.chunksize, cancel=cancel
            )
            cpu_s += mapped.cpu_s
            pooled = pooled or mapped.pooled
            outputs = [output for chunk in mapped.outputs for output in chunk]
            aborted = {
                r.index: r.aborted for _, r, _ in outputs if r.aborted is not None
            }
            for variant_idx, record, trace in outputs:
                if record.index in aborted:
                    record = replace(record, aborted=aborted[record.index])
                    trace = None
                accumulators[variant_idx].add(record, trace)
            assert all(acc.settled() for acc in accumulators)
            done = target
            if stop is not None and done < ens.replications and stop(accumulators):
                early_stopped = True
                if registry.enabled:
                    registry.counter("ensemble.early_stops").inc()
                break
    finally:
        pool.release(setup)
        if owned:
            pool.close()
    if any(not acc.samples for acc in accumulators):
        raise JobAbortedError(
            f"all {done} replications aborted; the first: "
            f"{accumulators[0].aborted[0]}"
        )
    return _Replicated(
        accumulators,
        time.perf_counter() - t0,
        cpu_s,
        max(1, pool.processes),
        pooled,
        early_stopped,
    )


class EnsembleRunner:
    """Replication-ensemble engine bound to one cluster + simulation config.

    Args:
        cluster: the simulated cluster.
        config: base :class:`SimulationConfig`; its skew/failure *shapes*
            apply to every replication while the seeds are re-derived per
            replication.  ``None`` uses the defaults.
        ensemble: the :class:`EnsembleConfig` policy.
        pool: a *shared* :class:`~repro.service.pool.ResilientPool` to
            borrow instead of owning one per run (the service multiplexes
            every job over a single pool); ``ensemble.processes`` is then
            superseded by the pool's size.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[SimulationConfig] = None,
        ensemble: Optional[EnsembleConfig] = None,
        pool: Optional[ResilientPool] = None,
    ):
        self._cluster = cluster
        self._config = config if config is not None else SimulationConfig()
        self._ensemble = ensemble if ensemble is not None else EnsembleConfig()
        self._pool = pool

    def run(
        self, workflow: Workflow, cancel: Optional[CancelCheck] = None
    ) -> EnsembleResult:
        """Run the ensemble for ``workflow`` and aggregate its distribution.

        ``cancel`` is polled between replication chunks (see
        :data:`~repro.service.pool.CancelCheck`): a truthy return raises
        :class:`~repro.errors.JobCancelledError`; the check may instead
        raise its own typed error (the service's cooperative deadlines).
        """
        ens = self._ensemble
        tracer = get_tracer()
        span = tracer.begin(
            "ensemble.run",
            workflow=workflow.name,
            max_replications=ens.replications,
            processes=ens.processes,
        )

        def converged(accumulators: List[_Accumulator]) -> bool:
            (acc,) = accumulators
            if not acc.samples:
                return False
            lo, hi = acc.target_ci(ens.target_quantile, ens.ci_z)
            estimate = sample_quantile(sorted(acc.samples), ens.target_quantile)
            return estimate > 0 and (hi - lo) / 2.0 <= ens.ci_tol * estimate

        run = _replicate(
            [VariantSpec(workflow, self._cluster, self._config)],
            ens,
            pool=self._pool,
            cancel=cancel,
            stop=converged if ens.ci_tol is not None else None,
        )
        result = run.accumulators[0].result(workflow.name, ens, run)
        tracer.finish(
            span,
            replications=result.replications,
            early_stopped=result.early_stopped,
            pooled=result.pool_used,
        )
        logger.debug("ensemble %s: %s", workflow.name, result.describe())
        return result


def run_ensemble(
    workflow: Workflow,
    cluster: Cluster,
    config: Optional[SimulationConfig] = None,
    ensemble: Optional[EnsembleConfig] = None,
) -> EnsembleResult:
    """Convenience wrapper: build an :class:`EnsembleRunner` and run it."""
    return EnsembleRunner(cluster, config=config, ensemble=ensemble).run(workflow)
