"""The paper's contribution: BOE task-level model + state-based DAG estimator."""

from repro.core.allocation import StageLoad, per_task_throughput, resource_users, share_fraction
from repro.core.boe import (
    BOEModel,
    OpEstimate,
    SubStageEstimate,
    TaskEstimate,
    align_substage,
)
from repro.core.distributions import (
    TaskTimeDistribution,
    Variant,
    completion_rate,
    stage_time,
    wave_sizes,
)
from repro.core.estimator import (
    BOESource,
    DagEstimator,
    ScaledSource,
    TaskTimeSource,
    estimate_workflow,
)
from repro.core.fingerprint import (
    CacheStats,
    LRUCache,
    job_fingerprint,
    value_fingerprint,
)
from repro.core.parallelism import RunningStage, estimate_parallelism
from repro.core.state import DagEstimate, EstimatedState

__all__ = [
    "BOEModel",
    "BOESource",
    "CacheStats",
    "DagEstimate",
    "DagEstimator",
    "EstimatedState",
    "LRUCache",
    "OpEstimate",
    "RunningStage",
    "ScaledSource",
    "StageLoad",
    "SubStageEstimate",
    "TaskEstimate",
    "TaskTimeDistribution",
    "TaskTimeSource",
    "Variant",
    "align_substage",
    "completion_rate",
    "estimate_parallelism",
    "estimate_workflow",
    "job_fingerprint",
    "per_task_throughput",
    "resource_users",
    "share_fraction",
    "stage_time",
    "value_fingerprint",
    "wave_sizes",
]
