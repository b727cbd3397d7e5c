"""Bit-parity guard for every replication-ensemble entry point.

``data/ensemble_golden.json`` pins, as ``float.hex``, the aggregates of a
fixed set of small seeded ensembles over skewed, failure-injected
workflows: samples, P² quantiles, the target-quantile CI, the makespan,
failure and per-state summaries, exemplar makespans, ``replications`` and
``early_stopped``.  Each scenario runs in process and on a two-worker
pool, and both must reproduce the pin to the bit:

* ``run_ensemble`` over the full budget, and with ``ci_tol`` and
  ``round_size`` set so that it stops early;
* ``compare_paired`` over the full budget, and stopping early on the
  paired delta.

Re-pin only after a deliberate change of results::

    PYTHONPATH=src python tests/ensemble/test_ensemble_golden.py --write
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

from repro.cluster import Cluster, paper_cluster
from repro.cluster.node import PAPER_NODE
from repro.dag import single_job_workflow
from repro.ensemble import EnsembleConfig, compare_paired, run_ensemble
from repro.mapreduce import SkewModel
from repro.simulator import FailureModel, SimulationConfig
from repro.units import gb
from repro.workloads import terasort, weblog_dag

GOLDEN = Path(__file__).parent / "data" / "ensemble_golden.json"
PROCESSES = (1, 2)

#: Both noise sources armed, so every replication is its own draw.
CONFIG = SimulationConfig(
    skew=SkewModel(sigma=0.3),
    failures=FailureModel(probability=0.05),
)


def _hex(value: Any) -> Any:
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {_key(k): _hex(v) for k, v in value.items()}
    return [_hex(v) for v in value]


def _key(key: Any) -> str:
    return key.hex() if isinstance(key, float) else str(key)


def _ensemble(result) -> Dict[str, Any]:
    return _hex(
        {
            "samples": result.samples,
            "quantiles": result.quantiles,
            "ci": result.ci,
            "makespan": result.makespan,
            "failed_attempts": result.failed_attempts,
            "state_durations": result.state_durations,
            "exemplars": [e.makespan for e in result.exemplars],
            "replications": result.replications,
            "max_replications": result.max_replications,
            "early_stopped": result.early_stopped,
        }
    )


def _paired(comparison) -> Dict[str, Any]:
    return _hex(
        {
            "samples_a": comparison.samples_a,
            "samples_b": comparison.samples_b,
            "deltas": comparison.deltas,
            "means": (comparison.mean_a, comparison.mean_b, comparison.mean_delta),
            "ci": comparison.ci,
            "halfwidths": (
                comparison.paired_halfwidth,
                comparison.unpaired_halfwidth,
            ),
            "win_rate": comparison.win_rate,
            "replications": comparison.replications,
            "early_stopped": comparison.early_stopped,
        }
    )


def _ts(reducers: int = 20):
    return single_job_workflow(replace(terasort(gb(1)), num_reducers=reducers))


def ensemble_full(processes: int) -> Dict[str, Any]:
    result = run_ensemble(
        weblog_dag(input_mb=gb(1)),
        paper_cluster(),
        CONFIG,
        EnsembleConfig(
            replications=10,
            min_replications=4,
            base_seed=5,
            exemplars=2,
            processes=processes,
        ),
    )
    return _ensemble(result)


def ensemble_early_stop(processes: int) -> Dict[str, Any]:
    result = run_ensemble(
        _ts(),
        paper_cluster(),
        CONFIG,
        EnsembleConfig(
            replications=40,
            min_replications=6,
            round_size=3,
            ci_tol=0.04,
            base_seed=3,
            exemplars=1,
            processes=processes,
        ),
    )
    return _ensemble(result)


def compare_full(processes: int) -> Dict[str, Any]:
    comparison = compare_paired(
        _ts(20),
        _ts(10),
        paper_cluster(),
        config=CONFIG,
        ensemble=EnsembleConfig(
            replications=6, min_replications=6, base_seed=11, processes=processes
        ),
    )
    return _paired(comparison)


def compare_early_stop(processes: int) -> Dict[str, Any]:
    comparison = compare_paired(
        weblog_dag(input_mb=gb(1)),
        weblog_dag(input_mb=gb(1)),
        Cluster(node=PAPER_NODE, workers=8, name="8w"),
        cluster_b=paper_cluster(),
        config=CONFIG,
        ensemble=EnsembleConfig(
            replications=24,
            min_replications=4,
            round_size=2,
            ci_tol=0.0005,
            base_seed=2,
            processes=processes,
        ),
    )
    return _paired(comparison)


SCENARIOS: Dict[str, Callable[[int], Dict[str, Any]]] = {
    f.__name__: f
    for f in (
        ensemble_full,
        ensemble_early_stop,
        compare_full,
        compare_early_stop,
    )
}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_covers_every_scenario(golden):
    assert set(golden) == set(SCENARIOS)
    # The pin exercises what it claims: full budgets and early stops; the
    # early stops come after the first round.
    assert golden["ensemble_early_stop"]["early_stopped"]
    assert golden["ensemble_early_stop"]["replications"] == 9
    assert not golden["ensemble_full"]["early_stopped"]
    assert golden["compare_early_stop"]["early_stopped"]
    assert golden["compare_early_stop"]["replications"] == 6
    assert not golden["compare_full"]["early_stopped"]


@pytest.mark.parametrize("processes", PROCESSES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_aggregates_match_golden(golden, scenario, processes):
    assert SCENARIOS[scenario](processes) == golden[scenario]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    pinned = {name: run(1) for name, run in SCENARIOS.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} ensemble scenarios to {GOLDEN}")
