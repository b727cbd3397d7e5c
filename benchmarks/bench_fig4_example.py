"""Fig. 4 — the BOE worked example (paper §III-A3).

Reproduces the two panels exactly: 200 s CPU-bound at parallelism 1
(p_disk = 10 %, p_net = 50 %), 500 s network-bound at parallelism 5
(p_disk = 20 %).  The benchmark times one BOE sub-stage evaluation.
"""

import pytest

from _bench_utils import emit
from repro.core import BOEModel, StageLoad
from repro.experiments.fig4 import (
    EXPECTED,
    fig4_cluster,
    fig4_substage,
    render,
    run_fig4,
)


@pytest.fixture(scope="module")
def fig4_rows():
    rows = run_fig4()
    emit(render(rows))
    return rows



def test_bench_fig4(benchmark, fig4_rows):
    """Assert the paper's exact numbers, then time the model."""
    for row in fig4_rows:
        expected = EXPECTED[row.delta]
        assert row.duration_s == pytest.approx(expected["duration"])
        assert row.bottleneck is expected["bottleneck"]
        assert row.utilisation["disk"] == pytest.approx(expected["disk"])
        assert row.utilisation["network"] == pytest.approx(expected["network"])

    model = BOEModel(fig4_cluster())
    sub = fig4_substage()
    estimate = benchmark(lambda: model.substage_time(StageLoad("demo", sub, 5.0)))
    assert estimate.duration == pytest.approx(500.0)
