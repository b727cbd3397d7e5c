"""Paired what-if comparisons under common random numbers (CRN).

Ranking two configurations by two independent point samples confuses the
configuration effect with replication noise.  The classic variance-
reduction fix is *common random numbers*: run both configurations under
the **same** per-replication seeds, so the skew draws and failure draws
that make one replication slow hit both sides alike, and the paired delta

    ``delta_i = makespan_B(seed_i) - makespan_A(seed_i)``

cancels the shared noise.  The paired CI half-width
``z * std(delta) / sqrt(n)`` is then strictly tighter than the unpaired
(Welch) half-width ``z * sqrt(var_A/n + var_B/n)`` whenever the two sides
are positively correlated — which CRN engineers by construction (the knob
sweeps the paper cares about, cluster size / reducer count / compression,
leave most draws shared).

Early stopping here targets the *delta*: sampling continues until the
paired CI half-width drops below ``ci_tol`` relative to the baseline's
mean makespan, within the usual hard min/max replication bounds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.dag.workflow import Workflow
from repro.errors import SpecificationError
from repro.obs.tracer import get_tracer
from repro.service.pool import CancelCheck, ResilientPool
from repro.simulator.engine import SimulationConfig
from repro.ensemble.engine import (
    EnsembleConfig,
    VariantSpec,
    _Accumulator,
    _replicate,
)
from repro.ensemble.quantiles import RunningStat, mean_halfwidth

logger = logging.getLogger(__name__)

__all__ = ["PairedComparison", "compare_paired", "paired_from_samples"]


@dataclass(frozen=True)
class PairedComparison:
    """Distribution of paired makespan deltas between two configurations.

    ``deltas[i] = samples_b[i] - samples_a[i]`` under common random
    numbers: negative deltas mean B is faster.  The unpaired half-width is
    the Welch interval the same samples would give if A and B had been run
    independently — reported so the CRN variance reduction is visible.
    ``aborted`` counts the replication pairs dropped because either
    side's job aborted.
    """

    label_a: str
    label_b: str
    replications: int
    base_seed: int
    samples_a: Tuple[float, ...]
    samples_b: Tuple[float, ...]
    deltas: Tuple[float, ...]
    mean_a: float
    mean_b: float
    mean_delta: float
    ci: Tuple[float, float]
    paired_halfwidth: float
    unpaired_halfwidth: float
    win_rate: float
    early_stopped: bool = False
    aborted: int = 0
    wall_time_s: float = 0.0
    cpu_time_s: float = 0.0
    processes: int = 1
    pool_used: bool = False

    @property
    def variance_reduction(self) -> float:
        """How much tighter pairing made the CI (>1 = tighter)."""
        if self.paired_halfwidth <= 0:
            return float("inf")
        return self.unpaired_halfwidth / self.paired_halfwidth

    @property
    def significant(self) -> bool:
        """True when the delta CI excludes zero."""
        return self.ci[0] > 0.0 or self.ci[1] < 0.0

    def describe(self) -> str:
        verdict = (
            f"{self.label_b} faster"
            if self.ci[1] < 0
            else f"{self.label_a} faster"
            if self.ci[0] > 0
            else "no significant difference"
        )
        return (
            f"{self.label_b} - {self.label_a}: {self.mean_delta:+.1f}s "
            f"[{self.ci[0]:+.1f}, {self.ci[1]:+.1f}] over "
            f"{self.replications} paired replications "
            + (f"({self.aborted} aborted) " if self.aborted else "")
            + f"(win rate {self.win_rate:.0%}, CI {self.variance_reduction:.1f}x "
            f"tighter than unpaired) — {verdict}"
        )


def paired_from_samples(
    label_a: str,
    samples_a: Sequence[float],
    label_b: str,
    samples_b: Sequence[float],
    base_seed: int,
    z: float = 1.96,
    **telemetry,
) -> PairedComparison:
    """Build a :class:`PairedComparison` from aligned CRN sample vectors.

    ``samples_a[i]`` and ``samples_b[i]`` must come from the *same*
    replication seeds (index ``i`` of ``base_seed``) — that alignment is
    what makes the subtraction meaningful.
    """
    if len(samples_a) != len(samples_b) or not samples_a:
        raise SpecificationError(
            "paired comparison needs equal-length, non-empty sample vectors: "
            f"{len(samples_a)} vs {len(samples_b)}"
        )
    stat_a, stat_b, stat_d = RunningStat(), RunningStat(), RunningStat()
    deltas = []
    wins = 0
    for a, b in zip(samples_a, samples_b):
        delta = b - a
        deltas.append(delta)
        stat_a.push(a)
        stat_b.push(b)
        stat_d.push(delta)
        if delta < 0:
            wins += 1
    n = len(deltas)
    paired = mean_halfwidth(n, stat_d.std, z)
    unpaired = mean_halfwidth(n, (stat_a.variance + stat_b.variance) ** 0.5, z)
    return PairedComparison(
        label_a=label_a,
        label_b=label_b,
        replications=n,
        base_seed=base_seed,
        samples_a=tuple(samples_a),
        samples_b=tuple(samples_b),
        deltas=tuple(deltas),
        mean_a=stat_a.mean,
        mean_b=stat_b.mean,
        mean_delta=stat_d.mean,
        ci=(stat_d.mean - paired, stat_d.mean + paired),
        paired_halfwidth=paired,
        unpaired_halfwidth=unpaired,
        win_rate=wins / n,
        **telemetry,
    )


def compare_paired(
    workflow_a: Workflow,
    workflow_b: Workflow,
    cluster: Cluster,
    cluster_b: Optional[Cluster] = None,
    config: Optional[SimulationConfig] = None,
    ensemble: Optional[EnsembleConfig] = None,
    labels: Optional[Tuple[str, str]] = None,
    pool: Optional[ResilientPool] = None,
    cancel: Optional[CancelCheck] = None,
) -> PairedComparison:
    """Compare two configurations with common random numbers.

    Replication ``i`` of both sides runs under the seeds derived from
    ``(ensemble.base_seed, i)``; with ``ensemble.ci_tol`` set, sampling
    stops once the paired delta CI half-width is within
    ``ci_tol * mean(A makespan)``, between the configured min/max bounds.
    The early-stop schedule depends only on the config, so the comparison
    is deterministic for any process count.  ``pool`` and ``cancel`` are
    those of :meth:`EnsembleRunner.run`.
    """
    ens = ensemble if ensemble is not None else EnsembleConfig()
    config = config if config is not None else SimulationConfig()
    label_a, label_b = labels if labels is not None else (
        workflow_a.name,
        workflow_b.name,
    )
    tracer = get_tracer()
    span = tracer.begin("ensemble.compare", a=label_a, b=label_b)

    def converged(accumulators: List[_Accumulator]) -> bool:
        acc_a, acc_b = accumulators
        deltas = RunningStat()
        for a, b in zip(acc_a.samples, acc_b.samples):
            deltas.push(b - a)
        halfwidth = mean_halfwidth(deltas.count, deltas.std, ens.ci_z)
        baseline = acc_a.makespan.mean
        return baseline > 0 and halfwidth <= ens.ci_tol * baseline

    run = _replicate(
        [
            VariantSpec(workflow_a, cluster, config),
            VariantSpec(
                workflow_b, cluster_b if cluster_b is not None else cluster, config
            ),
        ],
        replace(ens, exemplars=0),
        pool=pool,
        cancel=cancel,
        stop=converged if ens.ci_tol is not None else None,
    )
    acc_a, acc_b = run.accumulators
    comparison = paired_from_samples(
        label_a,
        acc_a.samples,
        label_b,
        acc_b.samples,
        base_seed=ens.base_seed,
        z=ens.ci_z,
        early_stopped=run.early_stopped,
        aborted=len(acc_a.aborted),
        wall_time_s=run.wall_s,
        cpu_time_s=run.cpu_s,
        processes=run.processes,
        pool_used=run.pooled,
    )
    tracer.finish(
        span,
        replications=comparison.replications,
        early_stopped=comparison.early_stopped,
        pooled=comparison.pool_used,
    )
    logger.debug("paired comparison: %s", comparison.describe())
    return comparison
