"""Table III — end-to-end estimation accuracy for the 51 DAG workflows.

Reproduces the full 51-workflow grid (TS-Q1..Q22, WC-Q1..Q22, WC-TS,
WC-TS2R, WC-TS3R, WC-KM, WC-PR, TS-KM, TS-PR) with the three estimator rows
Alg1-Mean / Alg1-Mid / Alg2-Normal, at a reduced input scale (the DAG
shapes, scheduling structure and therefore the estimation problem are
scale-free).

Paper shapes asserted: all three variants average in the nineties (paper:
95.00 / 93.50 / 96.38 %), no workflow collapses (paper min: 81.13 %,
allowing some slack for our smaller scale), and the skew-aware Alg2-Normal
is at least competitive with the others.  The benchmark times one full
state-based estimate.
"""

import pytest

from _bench_utils import emit
from repro.cluster import paper_cluster
from repro.core import DagEstimator, Variant
from repro.experiments.table3 import (
    VARIANTS,
    VARIANT_LABELS,
    render,
    run_table3,
    summarise_variant,
)
from repro.profiling import ProfileSource, profile_workflow
from repro.workloads import table3_workflows


@pytest.fixture(scope="module")
def rows():
    result = run_table3(scale=0.05)
    emit(render(result))
    return result



def test_bench_table3(benchmark, rows):
    assert len(rows) == 51
    for variant in VARIANTS:
        summary = summarise_variant(rows, variant)
        assert summary["mean"] > 0.85, VARIANT_LABELS[variant]
        assert summary["min"] > 0.55, VARIANT_LABELS[variant]
    # The three-variant ordering is workload-dependent; assert the
    # skew-aware variant is competitive in the aggregate.
    means = {v: summarise_variant(rows, v)["mean"] for v in VARIANTS}
    assert means[Variant.NORMAL] > 0.85

    # Benchmark: one full state-based estimate under the Table III protocol.
    cluster = paper_cluster()
    workflow = table3_workflows(scale=0.05)["WC-Q5"]
    from repro.simulator import SimulationConfig, simulate
    from repro.mapreduce import SkewModel

    result = simulate(
        workflow, cluster, SimulationConfig(skew=SkewModel(sigma=0.2))
    )
    source = ProfileSource(profile_workflow(workflow, cluster, result=result))
    estimator = DagEstimator(cluster, source, variant=Variant.MEAN)
    benchmark(lambda: estimator.estimate(workflow))
