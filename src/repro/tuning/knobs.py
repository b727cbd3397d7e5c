"""Tunable configuration knobs and search spaces.

The paper's closing line promises to "apply our cost models in automatic
tuning for DAG workflows" — this package builds that application.  A *knob*
is one configuration field of one job together with its candidate values;
an *assignment* maps knobs to chosen values and can be applied to a workflow
to produce the re-configured copy.

The default search space covers the classic Hadoop tuning surface the
paper's workloads exercise (Table I's ``C`` column, reducer counts, split
sizes, container sizing), with candidate grids anchored at the job's current
configuration so the tuner explores around the deployment rather than a
fixed absolute menu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.dag.workflow import Workflow
from repro.errors import SpecificationError
from repro.mapreduce.config import NO_COMPRESSION, SNAPPY_TEXT
from repro.mapreduce.job import MapReduceJob

#: Knob field names understood by :func:`apply_assignment`.
FIELDS = ("num_reducers", "compression", "split_mb", "map_memory_mb")


@dataclass(frozen=True)
class Knob:
    """One tunable field of one job.

    Attributes:
        job: job name within the workflow.
        field: one of :data:`FIELDS`.
        choices: candidate values, first entry = current value.
    """

    job: str
    field: str
    choices: Tuple

    def __post_init__(self) -> None:
        if self.field not in FIELDS:
            raise SpecificationError(
                f"unknown knob field {self.field!r}; pick one of {FIELDS}"
            )
        if len(self.choices) < 2:
            raise SpecificationError(
                f"knob {self.job}/{self.field} needs at least 2 choices"
            )

    @property
    def key(self) -> Tuple[str, str]:
        return (self.job, self.field)


Assignment = Dict[Tuple[str, str], object]


def current_value(workflow: Workflow, knob: Knob) -> object:
    """The workflow's *actual* value of the knob's field.

    This is the tuner's baseline.  Knob grids conventionally list the
    current value first, but nothing enforces it (custom spaces, or a
    workflow re-configured after the space was built), so the baseline is
    always derived from the workflow itself.  A knob naming a job absent
    from the workflow falls back to its first choice (such knobs are inert:
    :func:`apply_assignment` ignores foreign job names).
    """
    if knob.job not in workflow.job_map:
        return knob.choices[0]
    job = workflow.job(knob.job)
    if knob.field == "num_reducers":
        return job.num_reducers
    if knob.field == "compression":
        return job.config.compression
    if knob.field == "split_mb":
        return job.config.split_mb
    if knob.field == "map_memory_mb":
        return job.config.map_container.memory_mb
    raise SpecificationError(f"unknown knob field {knob.field!r}")  # pragma: no cover


def default_space(workflow: Workflow, cluster: Cluster) -> List[Knob]:
    """The standard knob grid for every job of a workflow."""
    knobs: List[Knob] = []
    slots = cluster.capacity.max_containers(ResourceVector(1.0, 3000.0))
    for job in workflow.jobs:
        if not job.is_map_only:
            current = job.num_reducers
            candidates = sorted(
                {
                    current,
                    max(2, current // 2),
                    current * 2,
                    slots,
                    2 * slots,
                }
            )
            # Current first (the tuner's baseline), then the rest.
            ordered = (current, *[c for c in candidates if c != current])
            knobs.append(Knob(job.name, "num_reducers", ordered))
        compression = job.config.compression
        knobs.append(
            Knob(
                job.name,
                "compression",
                (compression, SNAPPY_TEXT if not compression.enabled else NO_COMPRESSION),
            )
        )
        split = job.config.split_mb
        knobs.append(
            Knob(job.name, "split_mb", (split, split / 2, split * 2))
        )
        memory = job.config.map_container.memory_mb
        knobs.append(
            Knob(
                job.name,
                "map_memory_mb",
                (memory, memory / 2, memory * 2),
            )
        )
    return knobs


def wide_space(
    workflow: Workflow,
    cluster: Cluster,
    jobs: Optional[Sequence[str]] = None,
) -> List[Knob]:
    """A magnitude-spanning what-if grid.

    :func:`default_space` explores a tight neighbourhood of the deployed
    configuration — the greedy tuner's workhorse, where most candidates
    are near-neutral.  ``wide_space`` spans orders of magnitude per knob
    instead: the grid a capacity-planning sweep asks about ("what if the
    split were 32x smaller? one reducer? 16x the memory?"), where many
    extremes are provably bad and the analytic bound screen
    (:mod:`repro.core.bounds`) rejects them before estimation.

    Args:
        workflow: the workflow to build knobs for.
        cluster: sizes the reducer-count ceiling from container slots.
        jobs: restrict to these job names (default: every job).  Sweeps
            over a DAG's *dominant* jobs keep the grid focused where
            configuration actually moves the makespan.
    """
    knobs: List[Knob] = []
    slots = cluster.capacity.max_containers(ResourceVector(1.0, 3000.0))
    selected = None if jobs is None else set(jobs)
    for job in workflow.jobs:
        if selected is not None and job.name not in selected:
            continue
        if not job.is_map_only:
            current = job.num_reducers
            candidates = sorted(
                {
                    current,
                    1,
                    2,
                    max(2, current // 8),
                    current * 4,
                    slots,
                    4 * slots,
                    8 * slots,
                }
            )
            ordered = (current, *[c for c in candidates if c != current])
            knobs.append(Knob(job.name, "num_reducers", ordered))
        compression = job.config.compression
        knobs.append(
            Knob(
                job.name,
                "compression",
                (compression, SNAPPY_TEXT if not compression.enabled else NO_COMPRESSION),
            )
        )
        split = job.config.split_mb
        knobs.append(
            Knob(
                job.name,
                "split_mb",
                (split, split / 32, split / 8, split / 2, split * 2, split * 8),
            )
        )
        memory = job.config.map_container.memory_mb
        knobs.append(
            Knob(
                job.name,
                "map_memory_mb",
                (memory, memory / 4, memory / 2, memory * 2, memory * 4, memory * 16),
            )
        )
    return knobs


def _apply_field(job: MapReduceJob, field: str, value: object) -> MapReduceJob:
    """One job with one configuration field overridden."""
    if field == "num_reducers":
        reducers = int(value)
        if reducers < 0:
            raise SpecificationError(f"reducer count must be >= 0: {reducers}")
        return replace(job, num_reducers=reducers)
    if field == "compression":
        return job.with_config(compression=value)
    if field == "split_mb":
        return job.with_config(split_mb=float(value))
    if field == "map_memory_mb":
        container = job.config.map_container
        return job.with_config(
            map_container=ResourceVector(container.vcores, float(value))
        )
    raise SpecificationError(f"unknown knob field {field!r}")  # pragma: no cover


def apply_assignment(workflow: Workflow, assignment: Assignment) -> Workflow:
    """A copy of the workflow with the assignment's values applied."""
    jobs: List[MapReduceJob] = []
    for job in workflow.jobs:
        updated = job
        for (job_name, field), value in assignment.items():
            if job_name == job.name:
                updated = _apply_field(updated, field, value)
        jobs.append(updated)
    return Workflow(name=workflow.name, jobs=tuple(jobs), edges=workflow.edges)


def apply_knob_value(
    workflow: Workflow, key: Tuple[str, str], value: object
) -> Workflow:
    """A copy of the workflow with a single knob overridden.

    Equivalent to :func:`apply_assignment` with a one-entry assignment, but
    every job other than the knob's keeps its *object* identity, so
    downstream value comparisons (candidate memoisation, BOE cache keys)
    short-circuit on ``is`` instead of comparing whole profiles.
    A key naming a job absent from the workflow is inert, matching
    :func:`apply_assignment`.
    """
    job_name, field = key
    if job_name not in workflow.job_map:
        return workflow
    jobs = tuple(
        _apply_field(job, field, value) if job.name == job_name else job
        for job in workflow.jobs
    )
    return Workflow(name=workflow.name, jobs=jobs, edges=workflow.edges)
