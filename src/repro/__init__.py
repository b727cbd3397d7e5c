"""Reproduction of *Performance Models of Data Parallel DAG Workflows for
Large Scale Data Analytics* (Shi & Lu, ICDE 2021).

The package implements the paper's two connected contributions and every
substrate they need:

* :class:`~repro.core.boe.BOEModel` — the Bottleneck Oriented Estimation
  cost model for task-level execution time under preemptable-resource
  contention (paper §III);
* :class:`~repro.core.estimator.DagEstimator` — the state-based workflow
  estimator, Algorithm 1 (paper §IV), with the Alg1-Mean / Alg1-Mid /
  Alg2-Normal variants of Table III;
* a fluid discrete-event cluster simulator (:mod:`repro.simulator`) standing
  in for the paper's 11-node Hadoop testbed as ground truth;
* the YARN/DRF scheduling substrate (:mod:`repro.scheduler`), the MapReduce
  job model (:mod:`repro.mapreduce`), DAG workflows (:mod:`repro.dag`),
  profiling (:mod:`repro.profiling`), the evaluation workloads
  (:mod:`repro.workloads`: WC, TeraSort variants, KMeans, PageRank,
  TPC-H Q1-Q22, the Fig. 1 weblog DAG) and the baselines the paper compares
  against (:mod:`repro.baselines`: Starfish, MRTuner, Ernest, regression).

Quickstart::

    from repro import (
        paper_cluster, wordcount, single_job_workflow, simulate,
        estimate_workflow,
    )

    cluster = paper_cluster()
    workflow = single_job_workflow(wordcount())
    measured = simulate(workflow, cluster)       # ground truth
    predicted = estimate_workflow(workflow, cluster)  # BOE + Algorithm 1
    print(measured.makespan, predicted.total_time)

Every table and figure of the paper's evaluation has a driver in
:mod:`repro.experiments` and a benchmark under ``benchmarks/``.

Observability (:mod:`repro.obs`): span tracing (``trace_span``,
``REPRO_TRACE=1``), a mergeable metrics registry, Perfetto/Chrome trace
export of simulation runs and the per-state bottleneck attribution report —
see ``docs/observability.md``.
"""

import logging as _logging

# Library etiquette: ``repro.*`` modules log via logging.getLogger(__name__)
# and the package root stays silent unless the embedding application (or the
# CLI's --log-level) configures a handler.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro.baselines import (
    BOEPredictor,
    ErnestModel,
    MRTunerBestCase,
    RegressionModel,
    StarfishBestCase,
)
from repro.cluster import (
    Cluster,
    NodeSpec,
    Resource,
    ResourceVector,
    paper_cluster,
    single_node_cluster,
)
from repro.core import (
    BOEModel,
    BOESource,
    CacheStats,
    DagEstimate,
    DagEstimator,
    ScaledSource,
    TaskEstimate,
    TaskTimeDistribution,
    Variant,
    estimate_workflow,
)
from repro.ensemble import (
    EnsembleConfig,
    EnsembleResult,
    EnsembleRunner,
    PairedComparison,
    compare_paired,
    run_ensemble,
)
from repro.dag import (
    Workflow,
    WorkflowBuilder,
    chain,
    parallel,
    sequence,
    single_job_workflow,
)
from repro.errors import (
    EstimationError,
    ProfileError,
    ReproError,
    SchedulingError,
    SimulationError,
    SpecificationError,
    TraceWindowError,
    WorkflowError,
)
from repro.mapreduce import (
    CompressionSpec,
    JobConfig,
    MapReduceJob,
    SkewModel,
    StageKind,
)
from repro.obs import (
    AttributionReport,
    MetricsRegistry,
    Tracer,
    attribute_bottlenecks,
    configure_logging,
    enable_tracing,
    get_metrics,
    get_tracer,
    to_chrome_trace,
    trace_span,
    write_trace,
)
from repro.profiling import JobProfile, ProfileSource, profile_job, profile_workflow
from repro.progress import ProgressEstimator, ProgressReport, snapshot_at
from repro.simulator import (
    FailureModel,
    SimulationConfig,
    SimulationResult,
    Simulator,
    replication_config,
    replication_seeds,
    simulate,
)
from repro.spark import SparkAppBuilder, SparkStageJob, spark_kmeans, spark_pagerank, spark_sort
from repro.sweep import Candidate, CandidateResult, SweepReport, SweepRunner
from repro.tuning import GreedyTuner, TuningResult, tune_workflow
from repro.workloads import (
    kmeans,
    pagerank,
    table3_workflows,
    terasort,
    terasort_3r,
    tpch_query,
    weblog_dag,
    wordcount,
)

__version__ = "1.0.0"

__all__ = [
    "AttributionReport",
    "MetricsRegistry",
    "Tracer",
    "attribute_bottlenecks",
    "configure_logging",
    "enable_tracing",
    "get_metrics",
    "get_tracer",
    "to_chrome_trace",
    "trace_span",
    "write_trace",
    "tune_workflow",
    "spark_sort",
    "spark_pagerank",
    "spark_kmeans",
    "snapshot_at",
    "TuningResult",
    "SparkStageJob",
    "SparkAppBuilder",
    "ScaledSource",
    "ProgressReport",
    "ProgressEstimator",
    "GreedyTuner",
    "FailureModel",
    "BOEModel",
    "BOEPredictor",
    "BOESource",
    "CacheStats",
    "Candidate",
    "CandidateResult",
    "Cluster",
    "CompressionSpec",
    "DagEstimate",
    "DagEstimator",
    "EnsembleConfig",
    "EnsembleResult",
    "EnsembleRunner",
    "ErnestModel",
    "EstimationError",
    "JobConfig",
    "JobProfile",
    "MRTunerBestCase",
    "MapReduceJob",
    "NodeSpec",
    "PairedComparison",
    "ProfileError",
    "ProfileSource",
    "RegressionModel",
    "ReproError",
    "Resource",
    "ResourceVector",
    "SchedulingError",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "Simulator",
    "SkewModel",
    "SpecificationError",
    "StageKind",
    "StarfishBestCase",
    "SweepReport",
    "SweepRunner",
    "TaskEstimate",
    "TaskTimeDistribution",
    "TraceWindowError",
    "Variant",
    "Workflow",
    "WorkflowBuilder",
    "WorkflowError",
    "chain",
    "compare_paired",
    "estimate_workflow",
    "kmeans",
    "pagerank",
    "paper_cluster",
    "parallel",
    "profile_job",
    "profile_workflow",
    "replication_config",
    "replication_seeds",
    "run_ensemble",
    "sequence",
    "simulate",
    "single_job_workflow",
    "single_node_cluster",
    "table3_workflows",
    "terasort",
    "terasort_3r",
    "tpch_query",
    "weblog_dag",
    "wordcount",
]
