"""Fig. 6 (a-c) — WC task-time estimation across the parallelism sweep.

Paper shapes asserted: WC stays CPU-bound, so its map time is flat up to the
6-core mark and grows beyond it; the frozen-profile baseline is constant so
its error explodes with parallelism while BOE tracks the measurement,
yielding a multi-x improvement factor at parallelism 12 (paper: 6.6x on the
map panel).  The benchmark times one full BOE task evaluation.
"""

import pytest

from _bench_utils import emit
from repro.core import BOEModel
from repro.cluster import paper_cluster
from repro.experiments.fig6 import render, run_fig6
from repro.mapreduce import StageKind
from repro.workloads import wordcount


@pytest.fixture(scope="module")
def panels():
    result = run_fig6("wc")
    emit(render(result))
    return result



def test_bench_fig6_wc(benchmark, panels):
    # Shape 1: BOE beats the frozen-profile baseline overall and by a
    # multi-x factor at parallelism 12 on the map panel.
    assert panels["map"].boe_mean_accuracy > panels["map"].baseline_mean_accuracy
    assert panels["map"].point_at(12).factor > 2.0
    # Shape 2: CPU saturates at the core count — map time flat to 6, then up.
    flat = panels["map"].point_at(6).measured_s
    assert panels["map"].point_at(1).measured_s == pytest.approx(flat, rel=0.25)
    assert panels["map"].point_at(12).measured_s > 1.5 * flat
    # Shape 3: the baseline cannot respond to parallelism at all.
    assert len({p.baseline_s for p in panels["map"].points}) == 1
    # Shape 4: BOE accuracy in the paper's ballpark on map/reduce panels.
    assert panels["map"].boe_mean_accuracy > 0.85
    assert panels["reduce"].boe_mean_accuracy > 0.8

    cluster = paper_cluster()
    model = BOEModel(cluster)
    job = wordcount()
    benchmark(lambda: model.task_time(job, StageKind.REDUCE, 120.0))
