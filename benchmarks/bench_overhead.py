"""§V-C "Execution time" — the cost of computing an estimate.

Paper shape asserted: computing the state-based estimate costs well under
one second for every one of the 51 DAG workflows, cheap enough for runtime
optimisation loops.  The benchmark times the worst-case workflow's estimate
directly.
"""

import pytest

from _bench_utils import emit
from repro.cluster import paper_cluster
from repro.core import BOEModel, BOESource, DagEstimator
from repro.experiments.overhead import render, run_overhead
from repro.sweep import SweepRunner
from repro.workloads import table3_workflows


@pytest.fixture(scope="module")
def rows():
    with SweepRunner(paper_cluster()) as runner:
        result = run_overhead(runner=runner)
    emit(render(result, runner.report))
    return result



def test_bench_overhead(benchmark, rows):
    assert len(rows) == 51
    worst = max(rows, key=lambda r: r.overhead_s)
    assert worst.overhead_s < 1.0, (
        f"{worst.workflow} took {worst.overhead_s:.3f}s to estimate"
    )

    cluster = paper_cluster()
    estimator = DagEstimator(cluster, BOESource(BOEModel(cluster)))
    workflow = table3_workflows(scale=0.05)[worst.workflow]
    estimate = benchmark(lambda: estimator.estimate(workflow))
    assert estimate.model_overhead_s < 1.0
