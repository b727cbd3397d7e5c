"""The MapReduce job model.

A :class:`MapReduceJob` captures the *job profile* the paper's models consume
(Problem 1: "job profile J"): data-flow statistics (input volume,
selectivities) and per-core compute throughputs of the user-defined map and
reduce functions.  In the authors' system these numbers come from Hadoop job
history; here they come either from workload definitions
(:mod:`repro.workloads`) or from profiling simulator runs
(:mod:`repro.profiling`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional

from repro.errors import SpecificationError
from repro.mapreduce.config import DEFAULT_CONFIG, JobConfig
from repro.mapreduce import stage as stage_math
from repro.mapreduce.stage import StageKind


@dataclass(frozen=True)
class MapReduceJob:
    """Specification + profile of one MapReduce job.

    Attributes:
        name: unique label within a workflow.
        input_mb: total job input volume (MB).
        map_selectivity: map output bytes per input byte (before
            compression); a combiner shows up here as selectivity < 1.
        reduce_selectivity: reduce output bytes per (uncompressed) reduce
            input byte.
        map_cpu_mb_s: per-core throughput of the map-side compute pipeline
            (deserialisation + user map + combiner + sort), in input MB/s.
            Compression CPU cost is accounted separately from
            ``config.compression``.
        reduce_cpu_mb_s: per-core throughput of the reduce-side compute
            pipeline, in uncompressed reduce-input MB/s.
        num_reducers: number of reduce tasks.  ``0`` declares a map-only job
            (no shuffle, map writes straight to HDFS).
        config: framework configuration.
    """

    name: str
    input_mb: float
    map_selectivity: float = 1.0
    reduce_selectivity: float = 1.0
    map_cpu_mb_s: float = 50.0
    reduce_cpu_mb_s: float = 50.0
    num_reducers: int = 60
    config: JobConfig = DEFAULT_CONFIG

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("job name must be non-empty")
        if self.input_mb <= 0:
            raise SpecificationError(f"job input must be positive: {self.name}")
        if self.map_selectivity < 0 or self.reduce_selectivity < 0:
            raise SpecificationError(f"selectivities must be non-negative: {self.name}")
        if self.map_cpu_mb_s <= 0 or self.reduce_cpu_mb_s <= 0:
            raise SpecificationError(f"compute throughputs must be positive: {self.name}")
        if self.num_reducers < 0:
            raise SpecificationError(f"num_reducers must be >= 0: {self.name}")

    # -- task counts ----------------------------------------------------------

    @property
    def num_map_tasks(self) -> int:
        return stage_math.num_map_tasks(self.input_mb, self.config.split_mb)

    @property
    def num_reduce_tasks(self) -> int:
        return self.num_reducers

    @property
    def is_map_only(self) -> bool:
        """True when the job has no reduce stage (e.g. a filter/projection)."""
        return self.num_reducers == 0

    def num_tasks(self, kind: StageKind) -> int:
        return self.num_map_tasks if kind is StageKind.MAP else self.num_reduce_tasks

    def stages(self) -> tuple:
        """The schedulable stages of this job, in execution order."""
        if self.is_map_only:
            return (StageKind.MAP,)
        return (StageKind.MAP, StageKind.REDUCE)

    # -- data flow ------------------------------------------------------------

    @property
    def map_output_mb(self) -> float:
        """Uncompressed map output of the whole job."""
        return stage_math.map_output_mb(self)

    @property
    def shuffle_mb(self) -> float:
        """Bytes crossing the shuffle (compressed representation)."""
        return 0.0 if self.is_map_only else stage_math.shuffle_mb(self)

    @property
    def output_mb(self) -> float:
        """Bytes written to HDFS by the final stage (one replica's worth)."""
        if self.is_map_only:
            return stage_math.map_output_mb(self)
        return stage_math.reduce_output_mb(self)

    def task_input_mb(self, kind: StageKind) -> float:
        """Average per-task input of the given stage."""
        n = self.num_tasks(kind)
        if n == 0:
            raise SpecificationError(f"job {self.name} has no {kind} tasks")
        return stage_math.stage_input_mb(self, kind) / n

    # -- convenience ----------------------------------------------------------

    def renamed(self, name: str) -> "MapReduceJob":
        """A copy of this job under a different name (for DAG composition)."""
        return replace(self, name=name)

    def with_config(self, **changes) -> "MapReduceJob":
        """A copy with configuration fields updated."""
        return replace(self, config=self.config.with_(**changes))

    def scaled(self, factor: float, name: Optional[str] = None) -> "MapReduceJob":
        """A copy processing ``factor`` times the input volume.

        Task counts scale through the split size; selectivities and compute
        rates are volume-independent, so they carry over unchanged.
        """
        if factor <= 0:
            raise SpecificationError(f"scale factor must be positive: {factor}")
        return replace(self, input_mb=self.input_mb * factor, name=name or self.name)

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"{self.name}: in={self.input_mb:.0f}MB maps={self.num_map_tasks} "
            f"reds={self.num_reducers} sel=({self.map_selectivity:.2f},"
            f"{self.reduce_selectivity:.2f}) cpu=({self.map_cpu_mb_s:.0f},"
            f"{self.reduce_cpu_mb_s:.0f})MB/s C={'Y' if self.config.compression.enabled else 'N'} "
            f"R={self.config.replicas}"
        )

    def __getstate__(self) -> Dict[str, object]:
        # Strip the hash pin (see below): hash values are per-process
        # (string hashing is seed-randomised), so they must never travel
        # through pickle to pool workers.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)


# Jobs are hashed on every model-cache lookup (the BOE pipeline memo and
# the bound screen's stage memos key on ``(job, kind)``), and the generated
# dataclass hash re-walks all fields including the nested config each time.  Instances are
# frozen, so the value is computed once and pinned per object.  Installed
# after class creation because ``@dataclass(frozen=True)`` overwrites a
# ``__hash__`` defined in the class body; dataclass subclasses regenerate
# their own ``__hash__`` and simply skip the pin.
_GENERATED_JOB_HASH = MapReduceJob.__hash__


def _cached_job_hash(self: MapReduceJob) -> int:
    value = self.__dict__.get("_hash_pin")
    if value is None:
        value = _GENERATED_JOB_HASH(self)
        object.__setattr__(self, "_hash_pin", value)
    return value


MapReduceJob.__hash__ = _cached_job_hash  # type: ignore[method-assign]
