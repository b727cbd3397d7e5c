"""The program surface the benchmark ledger calls (``benchmarks/ledger``).

The ledger's workloads build their oracles and tuners through the top-level
``repro`` names, and its traced pass reads sweep-report fields.  Each test
here makes those calls exactly as ``benchmarks/ledger/workloads.py`` and
``benchmarks/ledger/trace.py`` do, so that a signature change fails here
first rather than in a benchmark run.
"""

from __future__ import annotations

import repro
from repro.cluster import paper_cluster
from repro.core.parallelism import clear_parallelism_memo
from repro.sweep import SweepRunner
from repro.tuning import Knob
from repro.units import gb


def test_uncached_unbatched_oracle_equals_default_estimate():
    cluster = paper_cluster()
    workflow = repro.table3_workflows(0.05)["WC-TS"]
    clear_parallelism_memo()
    source = repro.BOESource(repro.BOEModel(cluster, cache=False))
    estimator = repro.DagEstimator(cluster, source, batch=False)
    oracle = estimator.estimate(workflow).total_time
    assert oracle == repro.estimate_workflow(workflow, cluster).total_time


def test_tuner_prune_flag_keeps_the_winner():
    cluster = paper_cluster()
    workflow = repro.weblog_dag(gb(5))
    job = workflow.jobs[-1]
    space = [Knob(job.name, "num_reducers", (job.num_reducers, 2, 8, 32))]
    results = [
        repro.GreedyTuner(cluster, prune=prune).tune(workflow, space)
        for prune in (True, False)
    ]
    assert results[0].assignment == results[1].assignment
    assert results[0].tuned_estimate_s == results[1].tuned_estimate_s
    assert results[0].evaluations == results[1].evaluations


def test_sweep_report_fields_the_trace_reads():
    runner = SweepRunner(paper_cluster())
    runner.evaluate([repro.weblog_dag(gb(5))])
    report = runner.report
    assert report.candidates == 1 and report.pruned == 0
    reuse = report.reuse
    assert (reuse.hits, reuse.states_reused, reuse.states_computed) == (0, 0, 0)
    assert reuse.lookups == 0
    memo = runner._context._memo_stats
    assert (memo.hits, memo.misses) == (0, 1)
