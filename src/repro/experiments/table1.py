"""Table I — the workload catalogue with identified bottlenecks.

For every catalogue workload, run the BOE model over each job stage at the
parallelism the scheduler would grant and collect the bottleneck resources
it identifies.  The bench asserts the paper's annotations: WC is CPU-bound,
TS touches CPU and disk, TS3R's replicas push it to the network, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.tables import render_table
from repro.cluster.cluster import Cluster, paper_cluster
from repro.cluster.resources import Resource
from repro.core.boe import BOEModel
from repro.core.parallelism import RunningStage, estimate_parallelism
from repro.dag.analysis import level_groups
from repro.dag.workflow import Workflow
from repro.mapreduce.stage import StageKind
from repro.workloads.catalog import TABLE1


@dataclass(frozen=True)
class Table1Row:
    """BOE's verdict on one catalogue workload."""

    name: str
    group: str
    compressed: bool
    replicas: Tuple[int, ...]
    expected: Tuple[Resource, ...]
    identified: Tuple[Resource, ...]

    @property
    def matches(self) -> bool:
        """Every expected bottleneck appears among the identified ones."""
        return set(self.expected) <= set(self.identified)


def identify_bottlenecks(
    workflow: Workflow, cluster: Cluster, model: Optional[BOEModel] = None
) -> Set[Resource]:
    """Bottlenecks across all stages of all jobs, including every sub-stage.

    Jobs on the same DAG level are treated as concurrent (their maps
    contend).  Each stage is probed at two operating points — the minimal
    parallelism (one task per node) and the DRF-granted maximum — because
    Table I's annotations span the parallelism sweep (e.g. TeraSort's
    "CPU, Disk": CPU binds while cores are free, the disks once they are
    oversubscribed).
    """
    model = model or BOEModel(cluster)
    found: Set[Resource] = set()
    for group in level_groups(workflow):
        jobs = [workflow.job(name) for name in group]
        for kind in (StageKind.MAP, StageKind.REDUCE):
            stages = [
                RunningStage(job, kind, float(job.num_tasks(kind)))
                for job in jobs
                if kind in job.stages()
            ]
            if not stages:
                continue
            deltas = estimate_parallelism(stages, cluster)
            for stage in stages:
                high = max(deltas[stage.job.name], 1.0)
                low = min(high, float(cluster.workers))
                for delta in {low, high}:
                    scale = delta / high
                    concurrent = [
                        (other.job, other.kind, deltas[other.job.name] * scale)
                        for other in stages
                        if other.job.name != stage.job.name
                    ]
                    estimate = model.task_time(stage.job, kind, delta, concurrent)
                    for sub in estimate.substages:
                        # Ignore sub-stages that are a negligible slice of
                        # the task: their "bottleneck" is not a system
                        # bottleneck.
                        if sub.duration >= 0.2 * estimate.duration:
                            found.add(sub.bottleneck)
    return found


def run_table1(cluster: Optional[Cluster] = None, scale: float = 0.2) -> List[Table1Row]:
    """Evaluate every Table I row at the given input scale."""
    cluster = cluster or paper_cluster()
    model = BOEModel(cluster)
    rows: List[Table1Row] = []
    for entry in TABLE1:
        workflow = entry.factory(scale)
        identified = identify_bottlenecks(workflow, cluster, model)
        rows.append(
            Table1Row(
                name=entry.name,
                group=entry.group,
                compressed=entry.compressed,
                replicas=entry.replicas,
                expected=entry.expected_bottlenecks,
                identified=tuple(sorted(identified, key=lambda r: r.value)),
            )
        )
    return rows


def render(rows: Sequence[Table1Row]) -> str:
    """The Table I table ``repro-dag table1`` prints."""
    return render_table(
        ["workload", "C", "R", "expected", "identified", "match"],
        [
            [
                r.name,
                "Y" if r.compressed else "N",
                ",".join(str(x) for x in r.replicas),
                ",".join(x.value for x in r.expected) or "-",
                ",".join(x.value for x in r.identified),
                "yes" if r.matches else "NO",
            ]
            for r in rows
        ],
        title="Table I — workloads and identified bottlenecks",
    )
