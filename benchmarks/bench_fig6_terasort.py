"""Fig. 6 (d-f) — TS task-time estimation across the parallelism sweep.

Paper shapes asserted: the TS map is I/O-heavy so its time grows with
parallelism from low degrees (disk saturates early, unlike WC); the shuffle
is network-bound with the largest baseline improvement factor (paper: 10.6x
at parallelism 12); the reduce crosses over from CPU-bound to disk-bound.
"""

import pytest

from _bench_utils import emit
from repro.cluster import Resource, paper_cluster
from repro.core import BOEModel
from repro.experiments.fig6 import render, run_fig6
from repro.mapreduce import StageKind
from repro.workloads import terasort


@pytest.fixture(scope="module")
def panels():
    result = run_fig6("ts")
    emit(render(result))
    return result



def test_bench_fig6_ts(benchmark, panels):
    # Shape 1: every panel's BOE beats the frozen-profile baseline.
    for label in ("map", "shuffle", "reduce"):
        assert (
            panels[label].boe_mean_accuracy > panels[label].baseline_mean_accuracy
        ), label
    # Shape 2: multi-x improvement at parallelism 12 (paper: 4.3/10.6/1.9x).
    assert panels["map"].point_at(12).factor > 3.0
    assert panels["shuffle"].point_at(12).factor > 3.0
    assert panels["reduce"].point_at(12).factor > 1.5
    # Shape 3: unlike WC, the I/O-bound map grows from low parallelism.
    assert panels["map"].point_at(6).measured_s > 1.5 * panels["map"].point_at(1).measured_s
    # Shape 4: the reduce bottleneck crosses from CPU to disk with parallelism.
    cluster = paper_cluster()
    model = BOEModel(cluster)
    job = terasort()
    low = model.task_time(job, StageKind.REDUCE, 10.0, staggered=False)
    high = model.task_time(job, StageKind.REDUCE, 120.0, staggered=False)
    assert low.substage("reduce").bottleneck is Resource.CPU
    assert high.substage("reduce").bottleneck is Resource.DISK

    benchmark(lambda: model.task_time(job, StageKind.REDUCE, 120.0))
