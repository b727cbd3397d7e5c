"""Fig. 4 — the BOE worked example, reproduced exactly.

A node reads at 500 MB/s, ships at 100 MB/s, and computes (for this task) at
50 MB/s per core; the task processes 10 million 100-byte records (10 000 MB)
through one pipelined sub-stage of read + transfer + compute.

* At parallelism 1 the task takes max(20 s, 100 s, 200 s) = **200 s**,
  CPU-bound, with disk at 10 % and network at 50 % utilisation (Fig. 4a).
* At parallelism 5 the shares shrink to 100 / 20 MB/s, the compute keeps its
  one core, and the task takes max(100 s, 500 s, 200 s) = **500 s**,
  network-bound, with disk at 20 % utilisation (Fig. 4b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.tables import render_table
from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeSpec
from repro.cluster.resources import Resource
from repro.core.allocation import StageLoad
from repro.core.boe import BOEModel
from repro.mapreduce.phases import (
    OP_COMPUTE,
    OP_READ,
    OP_TRANSFER,
    OpSpec,
    SubStageSpec,
)

#: The example's data volume: 10 M records x 100 B.
DATA_MB = 10_000.0
#: Node resource throughputs of the example.
READ_MB_S = 500.0
NETWORK_MB_S = 100.0
COMPUTE_MB_S_PER_CORE = 50.0


@dataclass(frozen=True)
class Fig4Row:
    """One panel of Fig. 4."""

    delta: int
    duration_s: float
    bottleneck: Resource
    utilisation: Dict[str, float]


def fig4_cluster() -> Cluster:
    """The single node of the worked example (more than 5 cores)."""
    node = NodeSpec(
        cores=6, memory_mb=32_000.0, disk_mb_s=READ_MB_S, network_mb_s=NETWORK_MB_S
    )
    return Cluster(node=node, workers=1, name="fig4-node")


def fig4_substage() -> SubStageSpec:
    """The example task's single pipelined sub-stage."""
    return SubStageSpec(
        "fig4",
        (
            OpSpec(OP_READ, Resource.DISK, DATA_MB),
            OpSpec(OP_TRANSFER, Resource.NETWORK, DATA_MB),
            OpSpec(
                OP_COMPUTE,
                Resource.CPU,
                DATA_MB / COMPUTE_MB_S_PER_CORE,
                per_flow_cap=1.0,
            ),
        ),
    )


def run_fig4() -> List[Fig4Row]:
    """Evaluate the example at parallelism 1 and 5 (the two panels)."""
    model = BOEModel(fig4_cluster())
    sub = fig4_substage()
    rows: List[Fig4Row] = []
    for delta in (1, 5):
        estimate = model.substage_time(StageLoad("fig4", sub, float(delta)))
        rows.append(
            Fig4Row(
                delta=delta,
                duration_s=estimate.duration,
                bottleneck=estimate.bottleneck,
                utilisation={
                    op.resource.value: op.utilisation for op in estimate.ops
                },
            )
        )
    return rows


def render(rows: Sequence[Fig4Row]) -> str:
    """The Fig. 4 table ``repro-dag fig4`` prints."""
    return render_table(
        ["parallelism", "duration (s)", "bottleneck", "p_disk", "p_net", "p_cpu"],
        [
            [
                r.delta,
                f"{r.duration_s:.0f}",
                r.bottleneck.value,
                f"{r.utilisation.get('disk', 0):.2f}",
                f"{r.utilisation.get('network', 0):.2f}",
                f"{r.utilisation.get('cpu', 0):.2f}",
            ]
            for r in rows
        ],
        title="Fig. 4 — BOE worked example",
    )


#: The numbers printed in the paper, for assertion in tests and benches.
EXPECTED = {
    1: {"duration": 200.0, "bottleneck": Resource.CPU, "disk": 0.10, "network": 0.50},
    5: {"duration": 500.0, "bottleneck": Resource.NETWORK, "disk": 0.20, "network": 1.0},
}
