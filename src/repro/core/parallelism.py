"""Estimating the degree of parallelism ``Delta_i`` per running job stage.

Step 1 of every Algorithm 1 iteration: "estimate the degree of parallelism
for each running job using the properties of schedulers" (§IV-A2).  Given the
stages running in a workflow state and how many tasks each still has, the
scheduler equilibrium determines how many containers each holds — DRF by
default, FIFO/fair for ablations — and that count *is* ``Delta_i``.

The same scheduler code drives the simulator's placement, so model-vs-ground
truth discrepancies in ``Delta`` come only from granularity (the model's
equilibrium is continuous; the placer grants whole containers) — mirroring
the paper, where both the model and the cluster assume YARN DRF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.core.memo import LRUCache
from repro.errors import EstimationError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.stage import StageKind
from repro.scheduler.container import JobDemand, container_for
from repro.scheduler.drf import drf_equilibrium
from repro.scheduler.fair import fair_equilibrium
from repro.scheduler.fifo import fifo_equilibrium

_EQUILIBRIA: Dict[str, Callable] = {
    "drf": drf_equilibrium,
    "fifo": fifo_equilibrium,
    "fair": fair_equilibrium,
}


@dataclass(frozen=True)
class RunningStage:
    """One stage currently running in a workflow state.

    Attributes:
        job: the job specification.
        kind: MAP or REDUCE.
        remaining_tasks: tasks not yet completed (fractional mid-estimate).
    """

    job: MapReduceJob
    kind: StageKind
    remaining_tasks: float

    def __post_init__(self) -> None:
        if self.remaining_tasks < 0:
            raise EstimationError(
                f"remaining tasks of {self.job.name!r} must be >= 0"
            )

    @property
    def key(self):
        return (self.job.name, self.kind)


#: Memoised equilibria.  The solve is a pure function of (demand list,
#: capacity, policy, vcore flag) — all frozen, value-hashed structures, so
#: keys are taken from the call-time values and stay mutation-safe.  What-if
#: sweeps revisit the same scheduler states constantly (a knob perturbing one
#: job leaves every other state's demand vector unchanged).
_MEMO = LRUCache(65_536)


def clear_parallelism_memo() -> None:
    """Drop the equilibrium memo (benchmark hygiene)."""
    _MEMO.clear()


#: One stage's row of an equilibrium query and of its memo key: job name,
#: container request and demand cap (whole tasks).
DemandRow = Tuple[str, ResourceVector, int]


def estimate_parallelism(
    stages: Sequence[RunningStage],
    cluster: Cluster,
    policy: str = "drf",
    enforce_vcores: bool = False,
) -> Dict[str, float]:
    """``Delta_i`` per job for one workflow state.

    Returns a mapping from job name to the continuous equilibrium container
    count, capped by each stage's remaining tasks.
    """
    rows = tuple(
        (
            stage.job.name,
            container_for(stage.job, stage.kind),
            int(math.ceil(stage.remaining_tasks - 1e-9)),
        )
        for stage in stages
    )
    return dict(equilibrium(rows, cluster.capacity, policy, enforce_vcores))


def equilibrium(
    rows: Tuple[DemandRow, ...],
    capacity: ResourceVector,
    policy: str = "drf",
    enforce_vcores: bool = False,
) -> Mapping[str, float]:
    """:func:`estimate_parallelism` for demand rows already in key form.

    The rows *are* the memo key, so a hit builds no object; the
    :class:`JobDemand` list the scheduler takes is built only on a miss.
    The returned mapping is the memo's own entry: read it, never mutate it.
    """
    if policy not in _EQUILIBRIA:
        raise EstimationError(f"unknown scheduler policy {policy!r}")
    key = (rows, capacity, policy, enforce_vcores)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    demands = [
        JobDemand(name=name, container=container, max_tasks=max_tasks)
        for name, container, max_tasks in rows
    ]
    solve = _EQUILIBRIA[policy]
    if policy == "drf":
        deltas = solve(demands, capacity, enforce_vcores=enforce_vcores)
    else:
        deltas = solve(demands, capacity)
    _MEMO.put(key, deltas)
    return deltas
