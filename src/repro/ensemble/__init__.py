"""Parallel Monte Carlo replication ensembles (see ``docs/performance.md``).

Turns the stochastic simulator into a distribution machine: N seeded
replications across a process pool, streamed into P² quantiles
and Welford summaries (no trace retention beyond K exemplars), with
sequential early stopping on the target quantile's CI and common-random-
number paired comparisons for what-if ranking.

Quickstart::

    from repro import EnsembleConfig, run_ensemble, paper_cluster, weblog_dag

    result = run_ensemble(
        weblog_dag(), paper_cluster(),
        ensemble=EnsembleConfig(replications=64, ci_tol=0.05, processes=8),
    )
    print(result.quantiles[0.95], result.ci)
"""

from repro.ensemble.compare import (
    PairedComparison,
    compare_paired,
    paired_from_samples,
)
from repro.ensemble.engine import (
    DEFAULT_QUANTILES,
    EnsembleConfig,
    EnsembleResult,
    EnsembleRunner,
    ReplicationRecord,
    VariantSpec,
    run_ensemble,
    run_replication,
)
from repro.ensemble.quantiles import (
    P2Quantile,
    RunningStat,
    mean_halfwidth,
    quantile_ci,
    sample_quantile,
)

__all__ = [
    "DEFAULT_QUANTILES",
    "EnsembleConfig",
    "EnsembleResult",
    "EnsembleRunner",
    "P2Quantile",
    "PairedComparison",
    "ReplicationRecord",
    "RunningStat",
    "VariantSpec",
    "compare_paired",
    "mean_halfwidth",
    "paired_from_samples",
    "quantile_ci",
    "run_ensemble",
    "run_replication",
    "sample_quantile",
]
