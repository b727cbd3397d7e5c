"""Table I — the workload catalogue with identified bottlenecks.

Paper shape asserted: the BOE model identifies every bottleneck the paper
annotates (WC: CPU; TSC: CPU; TS: CPU+disk; TS3R: CPU+network; the micro
multi-job rows likewise).  The benchmark times a full catalogue scan.
"""

import pytest

from _bench_utils import emit
from repro.experiments.table1 import render, run_table1


@pytest.fixture(scope="module")
def rows():
    result = run_table1(scale=0.1)
    emit(render(result))
    return result



def test_bench_table1(benchmark, rows):
    for row in rows:
        assert row.matches, (
            f"{row.name}: expected {[x.value for x in row.expected]}, "
            f"identified {[x.value for x in row.identified]}"
        )
    benchmark.pedantic(run_table1, kwargs={"scale": 0.1}, rounds=3, iterations=1)
