"""Table III — end-to-end DAG estimation accuracy for the 51 workflows.

The paper's protocol (§V-C): run each hybrid workflow (micro benchmark in
parallel with a TPC-H query or HiBench analytics DAG), collect task-time
profiles *from that run* ("to eliminate the error of task-level models, we
use task execution time profiles with the identical degree of parallelism
for each stage"), and let the state-based Algorithm 1 re-derive the
end-to-end execution time from the profiles in three flavours:

* ``Alg1-Mean``  — per-task time = profile mean;
* ``Alg1-Mid``   — per-task time = profile median;
* ``Alg2-Normal``— skew-aware normal order statistics per wave.

Accuracy is the estimated total against the simulated makespan.  The bench
asserts the paper's aggregate shape: all three variants average in the
nineties, with the normal variant at least as good as the mean/median ones
under skew, and no workflow collapsing below ~0.75.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.accuracy import accuracy
from repro.analysis.tables import percentage, render_table
from repro.cluster.cluster import Cluster, paper_cluster
from repro.core.distributions import Variant
from repro.core.estimator import DagEstimator
from repro.dag.workflow import Workflow
from repro.errors import EstimationError
from repro.mapreduce.task import SkewModel
from repro.profiling.profiler import ProfileSource, profile_workflow
from repro.simulator.engine import SimulationConfig, simulate
from repro.workloads.hybrid import table3_workflows

#: The three estimator rows of Table III.
VARIANTS: Tuple[Variant, ...] = (Variant.MEAN, Variant.MEDIAN, Variant.NORMAL)

VARIANT_LABELS = {
    Variant.MEAN: "Alg1-Mean",
    Variant.MEDIAN: "Alg1-Mid",
    Variant.NORMAL: "Alg2-Normal",
}


@dataclass(frozen=True)
class Table3Row:
    """Accuracy of the three estimator variants on one workflow."""

    workflow: str
    simulated_s: float
    estimates_s: Dict[Variant, float]
    overheads_s: Dict[Variant, float]

    def accuracy(self, variant: Variant) -> float:
        return accuracy(self.estimates_s[variant], self.simulated_s)


def evaluate_workflow(
    workflow: Workflow,
    cluster: Cluster,
    skew_sigma: float = 0.2,
    variants: Sequence[Variant] = VARIANTS,
) -> Table3Row:
    """Run the Table III protocol on one workflow."""
    sim_config = SimulationConfig(skew=SkewModel(sigma=skew_sigma))
    result = simulate(workflow, cluster, sim_config)
    profiles = profile_workflow(workflow, cluster, result=result)
    source = ProfileSource(profiles)
    estimates: Dict[Variant, float] = {}
    overheads: Dict[Variant, float] = {}
    for variant in variants:
        estimator = DagEstimator(cluster, source, variant=variant)
        estimate = estimator.estimate(workflow)
        estimates[variant] = estimate.total_time
        overheads[variant] = estimate.model_overhead_s
    return Table3Row(
        workflow=workflow.name,
        simulated_s=result.makespan,
        estimates_s=estimates,
        overheads_s=overheads,
    )


def run_table3(
    cluster: Optional[Cluster] = None,
    scale: float = 0.05,
    skew_sigma: float = 0.2,
    names: Optional[Sequence[str]] = None,
    variants: Sequence[Variant] = VARIANTS,
) -> List[Table3Row]:
    """Evaluate the Table III workflows (optionally a named subset).

    The default scale (5 % of the paper's volumes) keeps the 51-workflow
    sweep tractable; DAG shapes and scheduling structure are scale-free.
    """
    cluster = cluster or paper_cluster()
    workflows = table3_workflows(scale=scale)
    if names is not None:
        missing = [n for n in names if n not in workflows]
        if missing:
            raise EstimationError(f"unknown Table III workflows: {missing}")
        selected = {n: workflows[n] for n in names}
    else:
        selected = workflows
    return [
        evaluate_workflow(wf, cluster, skew_sigma=skew_sigma, variants=variants)
        for wf in selected.values()
    ]


def summarise_variant(rows: Sequence[Table3Row], variant: Variant) -> Dict[str, float]:
    """Mean / median / min accuracy of one variant over the rows."""
    if not rows:
        raise EstimationError("no Table III rows to summarise")
    import statistics

    values = [row.accuracy(variant) for row in rows]
    return {
        "mean": statistics.fmean(values),
        "median": float(statistics.median(values)),
        "min": min(values),
        "max": max(values),
    }


def render(rows: Sequence[Table3Row]) -> str:
    """The Table III table and per-variant summaries ``repro-dag table3``
    prints."""
    table = render_table(
        ["workflow", "simulated", *(VARIANT_LABELS[v] for v in VARIANTS)],
        [
            [
                r.workflow,
                f"{r.simulated_s:.1f}",
                *(percentage(r.accuracy(v)) for v in VARIANTS),
            ]
            for r in rows
        ],
        title="Table III — DAG estimation accuracy",
    )
    summaries = []
    for v in VARIANTS:
        s = summarise_variant(rows, v)
        summaries.append(
            f"{VARIANT_LABELS[v]}: mean {percentage(s['mean'])}, "
            f"median {percentage(s['median'])}, min {percentage(s['min'])}"
        )
    return "\n".join([table, *summaries])
