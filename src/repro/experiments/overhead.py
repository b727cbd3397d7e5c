"""§V-C "Execution time" — the cost of computing an estimate.

The paper's closing evaluation point: computing the state-based estimate
takes under one second per DAG workflow, cheap enough for runtime use
(query re-writing, self-tuning).  This driver measures the wall-clock
overhead of Algorithm 1 for a set of workflows, using the BOE source so the
measurement includes the task-level model's arithmetic.

The grid is evaluated through :class:`~repro.sweep.SweepRunner` — the
workflows form one batch, each row's ``overhead_s`` is the estimator's own
wall-clock for that workflow (unchanged semantics), and the runner's
:class:`~repro.sweep.SweepReport` adds batch-level telemetry
(evaluations/s, cache reuse across the grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.tables import render_table
from repro.cluster.cluster import Cluster, paper_cluster
from repro.errors import EstimationError
from repro.sweep import Candidate, SweepReport, SweepRunner
from repro.workloads.hybrid import table3_workflows


@dataclass(frozen=True)
class OverheadRow:
    """Estimation cost for one workflow."""

    workflow: str
    jobs: int
    states: int
    overhead_s: float
    estimate_s: float


def run_overhead(
    cluster: Optional[Cluster] = None,
    scale: float = 0.05,
    names: Optional[Sequence[str]] = None,
    runner: Optional[SweepRunner] = None,
) -> List[OverheadRow]:
    """Measure pure estimation overhead (no simulation in the loop).

    Args:
        cluster: target cluster (defaults to the paper's).
        scale: input-volume scale vs the paper.
        names: workflow subset; ``None`` runs the full Table III grid.
        runner: a pre-configured shared runner (its report accumulates);
            ``None`` builds a serial one.
    """
    cluster = cluster or paper_cluster()
    workflows = table3_workflows(scale=scale)
    if names is not None:
        workflows = {n: workflows[n] for n in names}
    if runner is None:
        runner = SweepRunner(cluster)
    batch = [
        Candidate(workflow, label=name) for name, workflow in workflows.items()
    ]
    results = runner.evaluate(batch)
    rows: List[OverheadRow] = []
    for candidate, result in zip(batch, results):
        if not result.ok:
            raise EstimationError(
                f"overhead grid workflow {result.label!r} failed: {result.error}"
            )
        rows.append(
            OverheadRow(
                workflow=result.label,
                jobs=len(candidate.workflow.jobs),
                states=result.states,
                overhead_s=result.overhead_s,
                estimate_s=result.total_time_s,
            )
        )
    return rows


def render(rows: Sequence[OverheadRow], report: SweepReport) -> str:
    """The overhead table, worst case and sweep report ``repro-dag
    overhead`` prints; ``report`` is the runner's that measured ``rows``."""
    worst = max(rows, key=lambda r: r.overhead_s)
    table = render_table(
        ["workflow", "jobs", "states", "overhead (ms)"],
        [
            [r.workflow, r.jobs, r.states, f"{r.overhead_s * 1000:.1f}"]
            for r in sorted(rows, key=lambda r: -r.overhead_s)[:10]
        ],
        title="Estimation overhead (10 most expensive workflows)",
    )
    return "\n".join([
        table,
        f"max overhead: {worst.overhead_s * 1000:.1f} ms ({worst.workflow}) — "
        "paper requires < 1 s",
        f"sweep: {report.describe()}",
    ])
