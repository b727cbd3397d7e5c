"""Stage kinds and stage-level data-flow arithmetic.

A MapReduce job is divided into map, shuffle and reduce *stages* (paper
§II-A).  Following the paper's execution model, the shuffle is carried by the
reduce tasks (their first sub-stage), so a job contributes exactly two
*schedulable* stages — MAP and REDUCE — and the workflow-level state
transitions happen at map->reduce boundaries (Fig. 5).

The functions here compute the byte volumes flowing through each stage from a
job's selectivities; they are the single source of truth used by both the BOE
model and the simulator.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.mapreduce.job import MapReduceJob


class StageKind(enum.Enum):
    """Schedulable stage of a MapReduce job."""

    MAP = "map"
    REDUCE = "reduce"

    # Members are singletons, so identity decides equality; hashing by
    # identity runs in C, where Enum's default hashes the member name in
    # Python.  Every memo key of the cost models holds a kind.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def order(self) -> int:
        """MAP precedes REDUCE within a job."""
        return 0 if self is StageKind.MAP else 1


def num_map_tasks(input_mb: float, split_mb: float) -> int:
    """Number of map tasks for ``input_mb`` of input at the given split size."""
    if input_mb <= 0:
        raise ValueError(f"input size must be positive: {input_mb}")
    return max(1, math.ceil(input_mb / split_mb))


def map_output_mb(job: "MapReduceJob") -> float:
    """Uncompressed map-output volume of the whole job, in MB."""
    return job.input_mb * job.map_selectivity


def map_output_on_disk_mb(job: "MapReduceJob") -> float:
    """Map-output volume as materialised on disk / shipped on the wire.

    This is where map-output compression takes effect: the spilled and
    shuffled representation shrinks by the compression ratio.
    """
    return map_output_mb(job) * job.config.compression.effective_ratio


def shuffle_mb(job: "MapReduceJob") -> float:
    """Total bytes copied by the shuffle (compressed representation)."""
    return map_output_on_disk_mb(job)


def reduce_input_mb(job: "MapReduceJob") -> float:
    """Logical (uncompressed) bytes entering the reduce functions."""
    return map_output_mb(job)


def reduce_output_mb(job: "MapReduceJob") -> float:
    """Bytes written to HDFS by the whole reduce stage (one replica's worth)."""
    return reduce_input_mb(job) * job.reduce_selectivity


def stage_input_mb(job: "MapReduceJob", kind: StageKind) -> float:
    """Total input volume of the given stage, in the units the stage reads.

    MAP reads the (uncompressed) job input; REDUCE reads the compressed
    shuffle representation.
    """
    if kind is StageKind.MAP:
        return job.input_mb
    return shuffle_mb(job)
