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

import importlib as _importlib
import logging as _logging

# Library etiquette: ``repro.*`` modules log via logging.getLogger(__name__)
# and the package root stays silent unless the embedding application (or the
# CLI's --log-level) configures a handler.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

#: Public name -> the subpackage that defines it.  ``import repro`` loads
#: none of them: the first access to a name imports its subpackage (PEP 562
#: module ``__getattr__``), so a command pays only for what it uses.
_EXPORTS = {
    "repro.baselines": (
        "BOEPredictor", "ErnestModel", "MRTunerBestCase", "RegressionModel",
        "StarfishBestCase",
    ),
    "repro.cluster": (
        "Cluster", "NodeSpec", "Resource", "ResourceVector", "paper_cluster",
        "single_node_cluster",
    ),
    "repro.core": (
        "BOEModel", "BOESource", "CacheStats", "DagEstimate", "DagEstimator",
        "ScaledSource", "TaskEstimate", "TaskTimeDistribution", "Variant",
        "estimate_workflow",
    ),
    "repro.dag": (
        "Workflow", "WorkflowBuilder", "chain", "parallel", "sequence",
        "single_job_workflow",
    ),
    "repro.ensemble": (
        "EnsembleConfig", "EnsembleResult", "EnsembleRunner", "PairedComparison",
        "compare_paired", "run_ensemble",
    ),
    "repro.errors": (
        "EstimationError", "JobAbortedError", "ProfileError", "ReproError",
        "SchedulingError", "SimulationError", "SpecificationError",
        "TraceWindowError", "WorkflowError",
    ),
    "repro.mapreduce": (
        "CompressionSpec", "JobConfig", "MapReduceJob", "SkewModel", "StageKind",
    ),
    "repro.obs": (
        "AttributionReport", "MetricsRegistry", "Tracer", "attribute_bottlenecks",
        "configure_logging", "enable_tracing", "get_metrics", "get_tracer",
        "to_chrome_trace", "trace_span", "write_trace",
    ),
    "repro.profiling": (
        "JobProfile", "ProfileSource", "profile_job", "profile_workflow",
    ),
    "repro.progress": (
        "ProgressEstimator", "ProgressReport", "snapshot_at",
    ),
    "repro.simulator": (
        "FailureModel", "SimulationConfig", "SimulationResult", "Simulator",
        "replication_config", "replication_seeds", "simulate",
    ),
    "repro.spark": (
        "SparkAppBuilder", "SparkStageJob", "spark_kmeans", "spark_pagerank",
        "spark_sort",
    ),
    "repro.sweep": (
        "Candidate", "CandidateResult", "SweepReport", "SweepRunner",
    ),
    "repro.tuning": (
        "GreedyTuner", "TuningResult", "tune_workflow",
    ),
    "repro.workloads": (
        "kmeans", "pagerank", "table3_workflows", "terasort", "terasort_3r",
        "tpch_query", "weblog_dag", "wordcount",
    ),
}
_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "1.0.0"

__all__ = sorted(_DEFINED_IN)


def __getattr__(name: str):
    module = _DEFINED_IN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_DEFINED_IN))
