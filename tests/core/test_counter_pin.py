"""Work counters of the estimator stack, pinned.

A cheaper cold Algorithm 1 state must come from doing the same work with
less bookkeeping, not from doing less of the model's work.  With the metrics
registry armed, the estimate-cold inputs (TPC-H Q1-Q22 at 80 GB and the
Table III DAGs at scale 0.05, each estimated cold) and the four tune-dense
weblog tunes (25-100 GB) must ask BOE the same points, hit and miss its memo
the same number of times, solve the same systems and walk the same number
of Algorithm 1 states as the recorded totals.
"""

from __future__ import annotations

from typing import Callable, Dict

import pytest

import repro
from repro.cluster import paper_cluster
from repro.core.parallelism import clear_parallelism_memo
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.units import gb

COUNTERS = (
    "boe.cache.hits",
    "boe.cache.misses",
    "boe.system_solves",
    "boe.batch_points",
    "est.iterations",
)

#: Totals per workload, recorded before the cold-state rework.
PINNED = {
    "estimate-cold": {
        "boe.cache.hits": 26,
        "boe.cache.misses": 1367,
        "boe.system_solves": 1367,
        "boe.batch_points": 1393,
        "est.iterations": 693,
    },
    "tune-dense": {
        "boe.cache.hits": 858,
        "boe.cache.misses": 784,
        "boe.system_solves": 784,
        "boe.batch_points": 1642,
        "est.iterations": 2592,
    },
}


def _estimate_cold() -> None:
    cluster = paper_cluster()
    inputs = [repro.tpch_query(q, gb(80)) for q in range(1, 23)]
    inputs += list(repro.table3_workflows(0.05).values())
    for workflow in inputs:
        clear_parallelism_memo()
        repro.estimate_workflow(workflow, cluster)


def _tune_dense() -> None:
    cluster = paper_cluster()
    for size in (25, 50, 75, 100):
        clear_parallelism_memo()
        repro.GreedyTuner(cluster, prune=True).tune(repro.weblog_dag(gb(size)), None)


WORKLOADS: Dict[str, Callable[[], None]] = {
    "estimate-cold": _estimate_cold,
    "tune-dense": _tune_dense,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_work_counters_match_recorded_totals(workload):
    registry = MetricsRegistry(enabled=True)
    previous = set_metrics(registry)
    try:
        WORKLOADS[workload]()
    finally:
        set_metrics(previous)
    snapshot = registry.snapshot()
    got = {name: snapshot.get(name, {}).get("value", 0) for name in COUNTERS}
    assert got == PINNED[workload]
