"""Bit-parity guards for the BOE competition kernel.

Two independent checks pin every BOE estimate to the bit:

* **Golden digests** (``data/boe_golden.json``): per workflow and ``refine``
  setting, ``float.hex`` of Algorithm 1's total time and a sha256 over every
  state's task times, for TPC-H Q1-Q22 at 80 GB, the Table III DAGs at scale
  0.05 and the Fig. 1 weblog DAG at 5-100 GB.  Both the batched, cached
  estimator path and the unbatched, uncached one must reproduce them.
* **Differential oracle**: :class:`DictPathOracle` is the straightforward
  dict-keyed fixed point (users counted per :class:`Resource` in a dict,
  every round re-deriving occupancies).  Every point the estimator asks the
  production kernel about on generated DAGs is re-solved by the oracle and
  must compare equal, down to each operation's utilisation.

Re-pin the digests only after a deliberate change of results::

    PYTHONPATH=src python tests/core/test_boe_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.cluster import paper_cluster
from repro.cluster.resources import Resource
from repro.core import BOEModel, BOESource, DagEstimator, StageLoad
from repro.core.allocation import per_task_throughput
from repro.core.boe import OpEstimate, SubStageEstimate, TaskEstimate
from repro.core.state import LazyStates
from repro.core import boe
from repro.errors import EstimationError, SpecificationError
from repro.mapreduce import StageKind, build_task_substages
from repro.mapreduce.phases import OP_COMPUTE, OP_READ, OP_TRANSFER, OpSpec, SubStageSpec
from repro.units import gb
from repro.workloads import table3_workflows, tpch_query, weblog_dag
from repro.workloads.generator import random_workflow

GOLDEN = Path(__file__).parent / "data" / "boe_golden.json"
WEBLOG_GB = (5, 25, 50, 75, 100)
#: Generated DAGs the differential test walks.
RANDOM_DAGS = 30


def golden_workflows() -> Dict[str, object]:
    workflows = {f"tpch-q{q}": tpch_query(q, gb(80)) for q in range(1, 23)}
    workflows.update(
        {f"table3/{name}": wf for name, wf in table3_workflows(0.05).items()}
    )
    workflows.update({f"weblog-{size}gb": weblog_dag(gb(size)) for size in WEBLOG_GB})
    return workflows


def digest(estimate) -> Dict[str, str]:
    """The pinned form of one estimate: total time and a task-time hash."""
    sha = hashlib.sha256()
    for index, state in enumerate(estimate.states):
        for (job, kind), value in sorted(
            state.task_times.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            sha.update(f"{index} {job} {kind.value} {value.hex()}\n".encode())
    return {"total_time": estimate.total_time.hex(), "task_times_sha256": sha.hexdigest()}


def estimate(workflow, refine: bool, fast_path: bool):
    """The batched, cached path (``fast_path``) or the unbatched, uncached one."""
    cluster = paper_cluster()
    model = BOEModel(cluster, refine=refine, cache=fast_path)
    return DagEstimator(cluster, BOESource(model), batch=fast_path).estimate(workflow)


def key(name: str, refine: bool) -> str:
    return f"{name}|refine={refine}"


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def workflows() -> Dict[str, object]:
    return golden_workflows()


class TestGoldenDigests:
    def test_covers_every_workflow(self, golden, workflows):
        assert set(golden) == {
            key(name, refine) for name in workflows for refine in (False, True)
        }

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("fast_path", [True, False], ids=["batched", "unbatched"])
    def test_estimates_match_digests(self, golden, workflows, refine, fast_path):
        drifted = [
            name
            for name, workflow in workflows.items()
            if digest(estimate(workflow, refine, fast_path)) != golden[key(name, refine)]
        ]
        assert not drifted, f"BOE estimates drifted from the golden digests: {drifted}"


# -- differential oracle ---------------------------------------------------------


@dataclass
class _Ctx:
    substages: List[SubStageSpec]
    delta: float
    staggered: bool
    durations: List[float] = field(default_factory=list)
    utilisation: List[Dict[Resource, float]] = field(default_factory=list)

    def occupancy(self) -> List[float]:
        total = sum(self.durations)
        if total <= 0:
            return [1.0 / len(self.substages)] * len(self.substages)
        return [d / total for d in self.durations]


class DictPathOracle:
    """The competition fixed point with Resource-keyed dicts throughout.

    Same model, same float operations in the same order as the production
    kernel, written for legibility: every users map is rebuilt from scratch,
    occupancies are re-derived on each use and every sub-stage evaluation
    builds its output objects.  Nothing but the sub-stage decomposition is
    shared with production.
    """

    def __init__(self, model: BOEModel):
        self._cluster = model.cluster
        self._refine = model.refine
        self._max_iter = model._max_iter

    def _evaluate(self, substage: SubStageSpec, users: Dict[Resource, float]):
        op_times = []
        resource_time: Dict[Resource, float] = {}
        for op in substage.ops:
            throughput = per_task_throughput(op.resource, users, self._cluster)
            if op.per_flow_cap is not None:
                throughput = min(throughput, op.per_flow_cap)
            if throughput <= 0:
                raise EstimationError(f"zero throughput for {op.kind}")
            t_op = op.amount / throughput
            op_times.append((op, t_op))
            resource_time[op.resource] = resource_time.get(op.resource, 0.0) + t_op
        duration = max(resource_time.values())
        if duration <= 0:
            duration = 1e-12
        bottleneck = max(resource_time, key=resource_time.__getitem__)
        ops = tuple(
            OpEstimate(
                kind=op.kind,
                resource=op.resource,
                time=t,
                utilisation=resource_time[op.resource] / duration,
            )
            for op, t in op_times
        )
        return SubStageEstimate(
            name=substage.name, duration=duration, bottleneck=bottleneck, ops=ops
        )

    def _users_for(self, target: _Ctx, target_idx: int, system: Sequence[_Ctx]):
        users: Dict[Resource, float] = {}
        workers = self._cluster.workers
        target_name = target.substages[target_idx].name
        for ctx in system:
            if ctx.staggered:
                contributions = [
                    (idx, ctx.delta * occ) for idx, occ in enumerate(ctx.occupancy())
                ]
            elif ctx is target:
                contributions = [(target_idx, ctx.delta)]
            else:
                same = [
                    idx for idx, sub in enumerate(ctx.substages) if sub.name == target_name
                ]
                if same:
                    contributions = [(same[0], ctx.delta)]
                else:
                    contributions = [
                        (idx, ctx.delta * occ) for idx, occ in enumerate(ctx.occupancy())
                    ]
            for idx, weight in contributions:
                if weight <= 0:
                    continue
                per_resource: Dict[Resource, float] = {}
                for op in ctx.substages[idx].ops:
                    per_resource[op.resource] = 1.0
                if self._refine and ctx.utilisation:
                    for resource in per_resource:
                        per_resource[resource] = ctx.utilisation[idx].get(resource, 1.0)
                for resource, p in per_resource.items():
                    users[resource] = users.get(resource, 0.0) + weight * p / workers
        return users

    def _solve_system(self, system: List[_Ctx]) -> None:
        for ctx in system:
            ctx.durations = [sum(op.amount for op in sub.ops) for sub in ctx.substages]
            ctx.utilisation = [{} for _ in ctx.substages]
        needs_iteration = self._refine or any(c.staggered for c in system)
        rounds = self._max_iter if needs_iteration else 1
        previous_total = None
        for _ in range(rounds):
            for ctx in system:
                new_durations: List[float] = []
                new_util: List[Dict[Resource, float]] = []
                for idx in range(len(ctx.substages)):
                    users = self._users_for(ctx, idx, system)
                    est = self._evaluate(ctx.substages[idx], users)
                    new_durations.append(est.duration)
                    new_util.append(
                        {op.resource: max(op.utilisation, 1e-3) for op in est.ops}
                    )
                ctx.durations = new_durations
                ctx.utilisation = new_util
            total = sum(sum(ctx.durations) for ctx in system)
            if previous_total is not None and abs(total - previous_total) <= 1e-6 * max(
                previous_total, 1e-9
            ):
                break
            previous_total = total

    def _ctx(self, job, kind: StageKind, delta: float, staggered: bool) -> _Ctx:
        substages = build_task_substages(
            job, kind, remote_fraction=self._cluster.remote_fraction
        )
        return _Ctx(substages=substages, delta=delta, staggered=staggered)

    def task_time(
        self,
        job,
        kind: StageKind,
        delta: float,
        concurrent: Sequence[Tuple[object, StageKind, float]] = (),
    ) -> TaskEstimate:
        def stagger(stage_job, stage_kind, stage_delta):
            return stage_job.num_tasks(stage_kind) > 1.5 * max(stage_delta, 1.0)

        target = self._ctx(job, kind, delta, stagger(job, kind, delta))
        system = [target] + [
            self._ctx(other, other_kind, other_delta, stagger(other, other_kind, other_delta))
            for other, other_kind, other_delta in concurrent
        ]
        self._solve_system(system)
        substages = tuple(
            self._evaluate(target.substages[idx], self._users_for(target, idx, system))
            for idx in range(len(target.substages))
        )
        return TaskEstimate(job=job.name, kind=kind, substages=substages)


class _RecordingModel(BOEModel):
    """Production BOE that logs every batched point and its answer."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log: List[Tuple[tuple, TaskEstimate]] = []

    def solve_batch(self, points):
        estimates = super().solve_batch(points)
        self.log.extend(zip(points, estimates))
        return estimates


class TestDictPathDifferential:
    @pytest.mark.parametrize("refine", [False, True])
    def test_kernel_equals_dict_path_on_generated_dags(self, refine):
        cluster = paper_cluster()
        checked = 0
        for index in range(RANDOM_DAGS):
            model = _RecordingModel(cluster, refine=refine)
            oracle = DictPathOracle(BOEModel(cluster, refine=refine, cache=False))
            DagEstimator(cluster, BOESource(model)).estimate(random_workflow(index))
            assert model.log, f"DAG {index} asked BOE nothing"
            for (job, kind, delta, concurrent), got in model.log:
                want = oracle.task_time(job, kind, delta, concurrent)
                assert got == want, (index, job.name, kind, delta)
                checked += 1
        assert checked > RANDOM_DAGS

    def test_unbatched_task_time_equals_dict_path(self, small_wc, small_ts):
        cluster = paper_cluster()
        for refine in (False, True):
            model = BOEModel(cluster, refine=refine, cache=False)
            oracle = DictPathOracle(model)
            for kind in (StageKind.MAP, StageKind.REDUCE):
                for delta in (1.0, 7.0, 40.0, 400.0):
                    concurrent = [(small_wc, StageKind.MAP, 25.0), (small_wc, kind, 5.0)]
                    assert model.task_time(small_ts, kind, delta, concurrent) == (
                        oracle.task_time(small_ts, kind, delta, concurrent)
                    )


class TestBatchedEqualsSerial:
    """Every answer the batched, memoised kernel gives Algorithm 1 equals an
    unbatched, uncached ``task_time`` of the same point and the dict path,
    with its per-op detail read lazily or after a pickle round trip; and a
    plan's lazily built states equal states built as the estimate ends."""

    @staticmethod
    def workflows() -> Dict[str, object]:
        named = {f"table3/{name}": wf for name, wf in table3_workflows(0.05).items()}
        named.update({f"generated/{i}": random_workflow(i) for i in range(RANDOM_DAGS)})
        return named

    @staticmethod
    def _fields(estimate: TaskEstimate) -> List[tuple]:
        """Everything but the per-op detail, which stays unread."""
        return [(estimate.job, estimate.kind)] + [
            (sub.name, sub.duration.hex(), sub.bottleneck) for sub in estimate.substages
        ]

    @pytest.mark.parametrize("refine", [False, True])
    def test_batched_answers_equal_serial_and_dict_path(self, refine):
        cluster = paper_cluster()
        serial = BOEModel(cluster, refine=refine, cache=False)
        oracle = DictPathOracle(serial)
        checked = 0
        for name, workflow in self.workflows().items():
            model = _RecordingModel(cluster, refine=refine)
            DagEstimator(cluster, BOESource(model)).estimate(workflow)
            # The memo's entries, pickled before anything reads their ops
            # (a sweep pickles BOE sources into pool contexts).
            memo = list(model._cache._data.values())
            thawed = pickle.loads(pickle.dumps(memo))
            for (job, kind, delta, concurrent), got in model.log:
                want = serial.task_time(job, kind, delta, concurrent)
                assert self._fields(got) == self._fields(want), (name, job.name, kind)
                exact = oracle.task_time(job, kind, delta, concurrent)
                assert [sub.ops for sub in got.substages] == [
                    sub.ops for sub in exact.substages
                ], (name, job.name, kind)
                assert got == want == exact, (name, job.name, kind)
                checked += 1
            assert thawed == memo, name
            for before, after in zip(memo, thawed):
                assert [s.ops for s in after.substages] == [
                    s.ops for s in before.substages
                ]
        assert checked > 1000

    def test_lazy_states_equal_states_built_at_once(self):
        cluster = paper_cluster()
        workflows = list(self.workflows().values())
        # One estimator for every workflow: the later estimates replay and
        # extend steps the earlier plans' records share.
        shared = DagEstimator(cluster, BOESource(BOEModel(cluster)))
        plans = [shared.estimate(workflow) for workflow in workflows]
        for workflow, plan in zip(workflows, plans):
            assert isinstance(plan.states, LazyStates)
            count = plan.state_count
            assert len(plan.states) == count and plan.states._states is None
            eager = DagEstimator(cluster, BOESource(BOEModel(cluster))).estimate(workflow)
            eager_states = list(eager.states)
            lazy_states = list(plan.states)
            assert len(lazy_states) == count == len(eager_states)
            for lazy, built in zip(lazy_states, eager_states):
                assert lazy.index == built.index
                assert lazy.t_start.hex() == built.t_start.hex()
                assert lazy.t_end.hex() == built.t_end.hex()
                assert lazy.running == built.running
                assert list(lazy.deltas.items()) == list(built.deltas.items())
                assert list(lazy.task_times.items()) == list(built.task_times.items())
                assert [v.hex() for v in lazy.task_times.values()] == [
                    v.hex() for v in built.task_times.values()
                ]
            assert plan.states == eager.states == eager_states
            assert pickle.loads(pickle.dumps(plan.states)) == eager_states


class TestErrorParity:
    """Inputs the kernel rejects, it rejects exactly as the dict path does."""

    def _both(self, cluster, job, delta):
        model = BOEModel(cluster, cache=False)
        raised = []
        for solver in (model, DictPathOracle(model)):
            with pytest.raises(Exception) as info:
                solver.task_time(job, StageKind.MAP, delta)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        return raised[0]

    def test_zero_throughput(self, small_ts):
        # Infinitely many users starve every resource.
        kind, message = self._both(paper_cluster(), small_ts, float("inf"))
        assert kind is EstimationError and message.startswith("zero throughput for")

    def test_memory_is_no_throughput_pool(self, small_ts, monkeypatch):
        pipeline = [
            SubStageSpec(
                "map",
                (OpSpec(OP_READ, Resource.DISK, 10.0), OpSpec(OP_COMPUTE, Resource.MEMORY, 5.0)),
            )
        ]
        for module in (boe, sys.modules[__name__]):
            monkeypatch.setattr(module, "build_task_substages", lambda *a, **k: pipeline)
        kind, _ = self._both(paper_cluster(), small_ts, 4.0)
        assert kind is SpecificationError

    @pytest.mark.parametrize("failure", ["memory-op", "infinite-delta"])
    def test_failing_competitor_raises_as_dict_path(
        self, small_ts, small_wc, monkeypatch, failure
    ):
        """A competitor whose own evaluation fails fails the solve, even
        when the target reads only its same-named sub-stages' own load and
        never its settled mix: a memory op, or an infinite Delta that
        starves the competitor's disk but not the target's cores."""
        build = build_task_substages
        delta = 40.0
        if failure == "memory-op":
            competitor_ops = (
                OpSpec(OP_READ, Resource.DISK, 10.0),
                OpSpec(OP_COMPUTE, Resource.MEMORY, 5.0),
            )
            target_ops = None
        else:
            competitor_ops = (OpSpec(OP_READ, Resource.DISK, 10.0),)
            target_ops = (OpSpec(OP_COMPUTE, Resource.CPU, 5.0, per_flow_cap=1.0),)
            delta = float("inf")

        def patched(job, kind, **kwargs):
            substages = build(small_ts, kind, **kwargs)
            ops = competitor_ops if job.name == small_wc.name else target_ops
            if ops is None:
                return substages
            # The target's sub-stage names, so every read is phase-locked.
            return [SubStageSpec(sub.name, ops) for sub in substages]

        for module in (boe, sys.modules[__name__]):
            monkeypatch.setattr(module, "build_task_substages", patched)
        model = BOEModel(paper_cluster(), cache=False)
        raised = []
        for solver in (model, DictPathOracle(model)):
            with pytest.raises(Exception) as info:
                solver.task_time(
                    small_ts, StageKind.MAP, 40.0, [(small_wc, StageKind.MAP, delta)]
                )
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        want = SpecificationError if failure == "memory-op" else EstimationError
        assert raised[0][0] is want


class TestBottleneckTieBreak:
    @pytest.mark.parametrize("first", [Resource.DISK, Resource.NETWORK])
    def test_first_resource_in_op_order_wins_a_tie(self, first):
        cluster = paper_cluster()
        node = cluster.node
        # One second on either device: an exact tie.
        ops = [
            OpSpec(OP_READ, Resource.DISK, node.disk_mb_s),
            OpSpec(OP_TRANSFER, Resource.NETWORK, node.network_mb_s),
        ]
        if first is Resource.NETWORK:
            ops.reverse()
        sub = SubStageSpec("map", tuple(ops))
        model = BOEModel(cluster)
        got = model.substage_time(StageLoad("t", sub, 1.0))
        assert got.duration == 1.0 and got.bottleneck is first
        assert got == DictPathOracle(model)._evaluate(sub, {})


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    pinned = {
        key(name, refine): digest(estimate(workflow, refine, fast_path=False))
        for name, workflow in golden_workflows().items()
        for refine in (False, True)
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} digests to {GOLDEN}")
