"""Fig. 6 — task-time estimation vs degree of parallelism (single jobs).

For WC (panels a-c) and TS (panels d-f), the paper sweeps the per-node
degree of parallelism from 1 to 12 and compares, per stage (map / shuffle /
reduce), the measured median task time against the BOE estimate and against
the Starfish/MRTuner best-case baseline (the ground-truth time at the
profiling parallelism, assumed invariant).

We reproduce the sweep mechanically: per parallelism setting, containers are
re-sized so each node admits exactly that many tasks, the reducer count is
set to fill the cluster in one wave, the simulator provides the measured
medians, and each predictor is scored with the paper's accuracy metric.
The headline *shapes* asserted by the bench: BOE stays accurate across the
sweep while the frozen-profile baseline's error grows with the distance from
the profiling parallelism, yielding multi-x improvement factors at
parallelism 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.accuracy import accuracy, improvement_factor
from repro.analysis.tables import percentage, render_series
from repro.baselines.starfish import StarfishBestCase
from repro.cluster.cluster import Cluster, paper_cluster
from repro.core.boe import BOEModel
from repro.errors import SpecificationError
from repro.experiments.common import with_tasks_per_node
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.stage import StageKind
from repro.mapreduce.task import SkewModel
from repro.simulator.engine import SimulationConfig, simulate
from repro.simulator.metrics import median_task_time
from repro.dag.workflow import single_job_workflow
from repro.units import gb
from repro.workloads.terasort import terasort
from repro.workloads.wordcount import wordcount

#: The three panels per workload: (label, stage kind, sub-stage name).
PANELS: Tuple[Tuple[str, StageKind, Optional[str]], ...] = (
    ("map", StageKind.MAP, None),
    ("shuffle", StageKind.REDUCE, "shuffle"),
    ("reduce", StageKind.REDUCE, "reduce"),
)


@dataclass(frozen=True)
class Fig6Point:
    """One x-position of one panel."""

    delta_per_node: int
    measured_s: float
    boe_s: float
    baseline_s: float

    @property
    def boe_accuracy(self) -> float:
        return accuracy(self.boe_s, self.measured_s)

    @property
    def baseline_accuracy(self) -> float:
        return accuracy(self.baseline_s, self.measured_s)

    @property
    def factor(self) -> float:
        return improvement_factor(self.baseline_s, self.boe_s, self.measured_s)


@dataclass
class Fig6Panel:
    """One of the six panels (workload x stage)."""

    workload: str
    stage: str
    points: List[Fig6Point] = field(default_factory=list)

    @property
    def boe_mean_accuracy(self) -> float:
        return sum(p.boe_accuracy for p in self.points) / len(self.points)

    @property
    def baseline_mean_accuracy(self) -> float:
        return sum(p.baseline_accuracy for p in self.points) / len(self.points)

    def point_at(self, delta: int) -> Fig6Point:
        for p in self.points:
            if p.delta_per_node == delta:
                return p
        raise SpecificationError(f"no point at parallelism {delta}")


def _base_job(workload: str, scale: float) -> MapReduceJob:
    if workload == "wc":
        return wordcount(input_mb=gb(100) * scale)
    if workload == "ts":
        return terasort(input_mb=gb(100) * scale)
    raise SpecificationError(f"fig6 workload must be 'wc' or 'ts', got {workload!r}")


def run_fig6(
    workload: str = "wc",
    cluster: Optional[Cluster] = None,
    deltas: Sequence[int] = tuple(range(1, 13)),
    scale: float = 0.2,
    profiling_delta: int = 1,
    skew_sigma: float = 0.2,
) -> Dict[str, Fig6Panel]:
    """Run the sweep for one workload; returns panels keyed by stage name.

    Args:
        workload: "wc" (panels a-c) or "ts" (panels d-f).
        cluster: target cluster (defaults to the paper testbed).
        deltas: per-node parallelism grid (the paper uses 1..12).
        scale: input-volume scale relative to the paper's 100 GB.  Task
            times depend on the split size, not the total volume, so the
            sweep's shape is scale-invariant — but the stage must own at
            least ``max(deltas) * workers`` tasks or the top of the sweep is
            never reached; the default 0.2 gives 157 map tasks against the
            120 slots of the paper grid.
        profiling_delta: per-node parallelism of the baseline's profiling
            run (the baseline replays this measurement everywhere).
        skew_sigma: lognormal input-size skew applied by the simulator (the
            models are blind to it, as in the real measurement).
    """
    from dataclasses import replace

    cluster = cluster or paper_cluster()
    max_slots = max(deltas) * cluster.workers
    # Fix the task population across the sweep: the parallelism knob must
    # change only the *slots*, never the per-task data volume.
    base = replace(_base_job(workload, scale), num_reducers=max_slots)
    if base.num_map_tasks < max_slots:
        raise SpecificationError(
            f"scale {scale} yields {base.num_map_tasks} map tasks; the sweep "
            f"needs at least {max_slots} — raise the scale"
        )
    model = BOEModel(cluster)
    sim_config = SimulationConfig(skew=SkewModel(sigma=skew_sigma))

    # Baseline: profile once at the profiling parallelism.
    baseline = StarfishBestCase()
    profile_job_spec = with_tasks_per_node(base, cluster, profiling_delta)
    baseline.profile(profile_job_spec, cluster, sim_config)

    panels = {
        label: Fig6Panel(workload=workload, stage=label) for label, _, _ in PANELS
    }
    for delta in deltas:
        job = with_tasks_per_node(base, cluster, delta)
        result = simulate(single_job_workflow(job), cluster, sim_config)
        slots = float(delta * cluster.workers)
        for label, kind, substage in PANELS:
            measured = median_task_time(result, job.name, kind, substage)
            # A stage cannot run more tasks than it owns.
            effective_delta = min(slots, float(job.num_tasks(kind)))
            estimate = model.task_time(job, kind, effective_delta)
            boe = (
                estimate.duration
                if substage is None
                else estimate.substage(substage).duration
            )
            base_pred = baseline.predict(
                profile_job_spec, kind, effective_delta, substage
            )
            panels[label].points.append(
                Fig6Point(
                    delta_per_node=delta,
                    measured_s=measured,
                    boe_s=boe,
                    baseline_s=base_pred,
                )
            )
    return panels


def render(panels: Mapping[str, Fig6Panel]) -> str:
    """The Fig. 6 series ``repro-dag fig6`` prints, a blank line after each."""
    return "\n".join(
        render_series(
            "delta/node",
            [p.delta_per_node for p in panel.points],
            {
                "measured": [f"{p.measured_s:.1f}" for p in panel.points],
                "BOE": [f"{p.boe_s:.1f}" for p in panel.points],
                "baseline": [f"{p.baseline_s:.1f}" for p in panel.points],
            },
            title=(
                f"Fig. 6 {panel.workload.upper()} {label}: "
                f"BOE acc {percentage(panel.boe_mean_accuracy)}, "
                f"baseline {percentage(panel.baseline_mean_accuracy)}"
            ),
        )
        + "\n"
        for label, panel in panels.items()
    )
