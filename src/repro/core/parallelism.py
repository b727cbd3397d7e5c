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
from typing import Callable, Dict, Sequence

from repro.cluster.cluster import Cluster
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
    if policy not in _EQUILIBRIA:
        raise EstimationError(f"unknown scheduler policy {policy!r}")
    demands = [
        JobDemand(
            name=stage.job.name,
            container=container_for(stage.job, stage.kind),
            max_tasks=int(math.ceil(stage.remaining_tasks - 1e-9)),
        )
        for stage in stages
    ]
    key = (
        tuple((d.name, d.container, d.max_tasks) for d in demands),
        cluster.capacity,
        policy,
        enforce_vcores,
    )
    hit = _MEMO.get(key)
    if hit is not None:
        return dict(hit)
    equilibrium = _EQUILIBRIA[policy]
    if policy == "drf":
        deltas = equilibrium(
            demands, cluster.capacity, enforce_vcores=enforce_vcores
        )
    else:
        deltas = equilibrium(demands, cluster.capacity)
    _MEMO.put(key, dict(deltas))
    return deltas
