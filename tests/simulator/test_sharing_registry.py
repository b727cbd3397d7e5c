"""The sharing registry: one place that interns pipelines, classes and
compositions for every event loop.

Pins what the class key is (demands summed in op order, caps min-folded),
that a cached composition answers with the class solver's own floats (also
once the bounded memo has evicted it), that the failure split is the op-amount-weighted one, and that the fast loop
reaches rates only through the registry.
"""

import pytest

from repro.cluster import Cluster
from repro.cluster.node import PAPER_NODE
from repro.cluster.resources import Resource
from repro.errors import SimulationError
from repro.mapreduce.phases import OP_COMPUTE, OP_READ, OP_WRITE, OpSpec, SubStageSpec
from repro.mapreduce.stage import StageKind
from repro.mapreduce.task import SkewModel
from repro.simulator import FailureModel, SimulationConfig, simulate
from repro.simulator import engine, sharing
from repro.simulator.sharing import SharingRegistry, class_sort_key
from repro.workloads import entry

CAPACITIES = {"cpu": 6.0, "disk": 120.0, "net": 110.0}


class _Job:
    """A job whose every task runs the given sub-stages."""

    def __init__(self, name, *substages):
        self.name = name
        self._substages = list(substages)

    def custom_task_substages(self, kind, task_input_mb, remote_fraction):
        return self._substages


def _sub(name, *ops):
    return SubStageSpec(name, tuple(ops))


class TestInterning:
    def test_same_pool_ops_sum_in_op_order_and_caps_min_fold(self):
        # 0.1 + 0.2 + 0.3 is not 0.3 + 0.2 + 0.1 in floats: the class
        # weight must be the op-order sum, the one the per-flow path forms.
        sub = _sub(
            "mixed",
            OpSpec(OP_READ, Resource.DISK, 0.1),
            OpSpec(OP_COMPUTE, Resource.CPU, 2.0, per_flow_cap=1.0),
            OpSpec(OP_WRITE, Resource.DISK, 0.2),
            OpSpec(OP_COMPUTE, Resource.CPU, 4.0, per_flow_cap=1.0),
            OpSpec(OP_WRITE, Resource.DISK, 0.3),
        )
        registry = SharingRegistry(CAPACITIES)
        pipe = registry.pipeline(_Job("j", sub), StageKind.MAP, 1.0)
        (cid,) = pipe.scids
        assert registry.weights[cid] == {"disk": (0.1 + 0.2) + 0.3, "cpu": 6.0}
        assert registry.weights[cid]["disk"] != (0.3 + 0.2) + 0.1
        assert list(registry.weights[cid]) == ["disk", "cpu"]  # first-seen order
        assert registry.caps[cid] == min(1.0 / 2.0, 1.0 / 4.0)
        assert pipe.fail_weights == [0.1 + 2.0 + 0.2 + 4.0 + 0.3]

    def test_one_class_per_key_across_pipelines(self):
        a = _sub("a", OpSpec(OP_READ, Resource.DISK, 5.0), OpSpec(OP_COMPUTE, Resource.CPU, 1.0, 1.0))
        b = _sub("b", OpSpec(OP_COMPUTE, Resource.CPU, 1.0, 1.0), OpSpec(OP_READ, Resource.DISK, 5.0))
        other = _sub("c", OpSpec(OP_READ, Resource.DISK, 6.0))
        registry = SharingRegistry(CAPACITIES)
        first = registry.pipeline(_Job("x", a, other), StageKind.MAP, 1.0)
        second = registry.pipeline(_Job("y", b), StageKind.MAP, 1.0)
        assert first.scids == (0, 1)
        assert second.scids == (0,)  # same key, op order aside
        assert registry.weights[0] == {"disk": 5.0, "cpu": 1.0}  # first interned

    def test_identical_tasks_share_one_pipeline(self):
        job = _Job("j", _sub("s", OpSpec(OP_READ, Resource.DISK, 1.0)))
        registry = SharingRegistry(CAPACITIES)
        first = registry.pipeline(job, StageKind.MAP, 64.0)
        assert registry.pipeline(job, StageKind.MAP, 64.0) is first
        assert registry.pipeline(job, StageKind.MAP, 65.0).pid == first.pid + 1
        assert registry.pipelines == [first, registry.pipeline(job, StageKind.MAP, 65.0)]

    def test_gate_flag_marks_reduce_shuffles_only(self):
        shuffle = _sub("shuffle", OpSpec(OP_READ, Resource.DISK, 1.0))
        registry = SharingRegistry(CAPACITIES)
        assert registry.pipeline(_Job("r", shuffle), StageKind.REDUCE, 1.0).gate0
        assert not registry.pipeline(_Job("m", shuffle), StageKind.MAP, 1.0).gate0

    def test_rejects_non_throughput_and_empty_demands(self):
        registry = SharingRegistry(CAPACITIES)
        memory = _sub("m", OpSpec(OP_READ, Resource.MEMORY, 1.0))
        with pytest.raises(SimulationError, match="not a throughput pool"):
            registry.pipeline(_Job("m", memory), StageKind.MAP, 1.0)
        zero = _sub("z", OpSpec(OP_READ, Resource.DISK, 0.0))
        with pytest.raises(SimulationError, match="non-positive demand"):
            registry.pipeline(_Job("z", zero), StageKind.MAP, 1.0)


class TestRates:
    def _registry(self):
        registry = SharingRegistry(CAPACITIES)
        registry.intern({"disk": 10.0, "cpu": 0.5}, 2.0)
        registry.intern({"disk": 4.0}, None)
        registry.intern({"cpu": 1.0, "net": 3.0}, 1.0)
        return registry

    @staticmethod
    def _fresh(registry, composition):
        """Canonical class order and the class solver's rates in it."""
        order = sorted(
            composition,
            key=lambda item: class_sort_key(
                registry.caps[item[0]], tuple(sorted(registry.weights[item[0]].items()))
            ),
        )
        return order, sharing.solve_max_min_classes(
            [registry.weights[cid] for cid, _ in order],
            [registry.caps[cid] for cid, _ in order],
            [count for _, count in order],
            CAPACITIES,
        )

    def test_cache_hit_returns_the_fresh_solve(self, monkeypatch):
        registry = self._registry()
        composition = ((0, 3), (1, 2), (2, 1))
        order, fresh = self._fresh(registry, composition)
        first = registry.rates(composition)
        calls = []
        monkeypatch.setattr(
            sharing, "solve_max_min_classes", lambda *args: calls.append(args)
        )
        again = registry.rates(composition)
        assert not calls  # served from the cache
        assert again == first
        assert [again[cid] for cid, _ in order] == fresh  # bit-identical

    def test_bounded_memo_evicts_and_stays_exact(self, monkeypatch):
        # A two-entry memo cycling through four compositions evicts on
        # every miss; every answer must still be the class solver's floats.
        monkeypatch.setattr(sharing, "DEFAULT_CACHE_ENTRIES", 2)
        registry = self._registry()
        compositions = [((0, 3), (1, 2)), ((1, 1), (2, 4)), ((0, 1),), ((0, 2), (2, 2))]
        solve = sharing.solve_max_min_classes
        calls = []

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(sharing, "solve_max_min_classes", counted)
        for _ in range(2):
            for composition in compositions:
                order, fresh = self._fresh(registry, composition)
                got = registry.rates(composition)
                assert [got[cid] for cid, _ in order] == fresh
                assert len(registry._rates) <= 2
        # Two fresh solves per lookup: the registry's (an evicted entry is
        # re-solved) and the reference's.
        assert len(calls) == 2 * 2 * len(compositions)

    def test_compositions_are_solved_independently(self):
        registry = self._registry()
        alone = registry.rates(((1, 1),))
        crowded = registry.rates(((1, 3),))
        assert alone[1] == 120.0 / 4.0
        assert crowded[1] == 120.0 / 12.0

    def test_flow_level_solve_groups_through_the_registry(self):
        flows = [
            sharing.FlowSpec(f"a{i}", (("disk", 2.0), ("cpu", 0.5)), cap=1.0)
            for i in range(3)
        ] + [sharing.FlowSpec("b", (("disk", 1.0), ("disk", 1.0)))]
        rates = sharing.solve_max_min(flows, CAPACITIES)
        registry = SharingRegistry(CAPACITIES)
        a = registry.intern({"disk": 2.0, "cpu": 0.5}, 1.0)
        b = registry.intern({"disk": 2.0}, None)
        rate_of = registry.rates(((a, 3), (b, 1)))
        assert rates == {"a0": rate_of[a], "a1": rate_of[a], "a2": rate_of[a], "b": rate_of[b]}


class TestFailurePoint:
    def _pipe(self, *amounts):
        subs = [_sub(f"s{i}", OpSpec(OP_READ, Resource.DISK, a)) for i, a in enumerate(amounts)]
        return SharingRegistry(CAPACITIES).pipeline(_Job("j", *subs), StageKind.MAP, 1.0)

    def test_draw_lands_in_the_weighted_sub_stage(self):
        pipe = self._pipe(1.0, 3.0)
        assert pipe.fail_total == 4.0
        assert pipe.failure_point(0.1) == (0, 0.1 / 0.25)
        assert pipe.failure_point(0.25) == (0, 0.999)  # capped below completion
        assert pipe.failure_point(0.5) == (1, (0.5 - 0.25) / 0.75)

    def test_last_sub_stage_catches_rounding(self):
        pipe = self._pipe(1.0, 1.0, 1.0)
        idx, fraction = pipe.failure_point(0.9999999)
        assert idx == 2 and fraction == 0.999


def test_every_engine_splits_failures_through_the_pipeline(monkeypatch):
    """Each engine plans every failed attempt with ``Pipeline.failure_point``
    on skewed tasks under retries; all three kill the same attempts, and the
    fast and columnar loops at the same instants."""
    planned = []
    real = sharing.Pipeline.failure_point

    def spy(self, fail_at):
        planned.append(fail_at)
        return real(self, fail_at)

    monkeypatch.setattr(sharing.Pipeline, "failure_point", spy)
    results = {}
    for name in ("fast", "reference", "columnar"):
        planned.clear()
        results[name] = simulate(
            entry("TS").factory(0.1),
            Cluster(node=PAPER_NODE, workers=10),
            SimulationConfig(
                engine=name,
                skew=SkewModel(sigma=0.3, seed=6),
                failures=FailureModel(probability=0.3, max_attempts=16, seed=4),
            ),
        )
        assert len(planned) == len(results[name].failed_attempts)
    kills = lambda r: sorted((t, a) for t, a, _ in r.failed_attempts)
    assert any(a > 1 for _, a in kills(results["fast"])), "no retry failed"
    assert kills(results["fast"]) == kills(results["reference"]) == kills(results["columnar"])
    assert sorted(results["fast"].failed_attempts) == sorted(results["columnar"].failed_attempts)


@pytest.mark.parametrize("name", ["WC", "TS", "WC+TS", "TS+PageRank"])
def test_fast_loop_never_builds_flows(name, monkeypatch):
    """The fast loop's rates come from the registry alone: with the
    flow-level solver and ``FlowSpec`` sabotaged it still runs, and matches
    the columnar loop to the bit."""

    def boom(*args, **kwargs):
        raise AssertionError("the fast loop built a flow or a flow-level solve")

    kwargs = dict(
        skew=SkewModel(sigma=0.3, seed=2),
        failures=FailureModel(probability=0.03, seed=9),
    )
    cluster = Cluster(node=PAPER_NODE, workers=10)
    columnar = simulate(
        entry(name).factory(0.1), cluster, SimulationConfig(engine="columnar", **kwargs)
    )
    monkeypatch.setattr(engine, "solve_max_min", boom)
    monkeypatch.setattr(engine, "FlowSpec", boom)
    fast = simulate(entry(name).factory(0.1), cluster, SimulationConfig(engine="fast", **kwargs))
    assert fast.makespan == columnar.makespan
    assert sorted(fast.failed_attempts) == sorted(columnar.failed_attempts)


def test_composition_cache_saves_class_solves(monkeypatch):
    """Symmetric waves repeat compositions: a uniform run makes under a
    quarter as many class solves as node solves (37 against 211 here)."""
    solve = sharing.solve_max_min_classes
    solves = []

    def counted(*args):
        solves.append(1)
        return solve(*args)

    node_solves = []
    solve_node = engine.Simulator._solve_node

    def counted_node(self, node_idx):
        node_solves.append(node_idx)
        return solve_node(self, node_idx)

    monkeypatch.setattr(sharing, "solve_max_min_classes", counted)
    monkeypatch.setattr(engine.Simulator, "_solve_node", counted_node)
    simulate(entry("WC+TS").factory(0.25), Cluster(node=PAPER_NODE, workers=10))
    assert 0 < len(solves) * 4 < len(node_solves)
