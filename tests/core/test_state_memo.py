"""The per-state step memo of Algorithm 1 (``DagEstimator._step``).

Steps 1–3 of a state (Delta_i, task times, first stage end) are memoised on
the running stages, and the sweep runner keeps one estimator per target
cluster so a tune's candidates share those steps.  Every test here holds
the memo to the cold path: a reused estimator must answer exactly what a
fresh one does, to the bit.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Sequence, Tuple

import pytest

from repro.cluster import paper_cluster
from repro.core.boe import BOEModel
from repro.core.distributions import TaskTimeDistribution
from repro.core.estimator import BOESource, DagEstimator, _Walk
from repro.core.state import WorkflowProgress
from repro.dag import Workflow
from repro.mapreduce import StageKind
from repro.obs.metrics import get_metrics
from repro.obs.tracer import Tracer, set_tracer
from repro.sweep import Candidate, SweepRunner
from repro.tuning import GreedyTuner, Knob
from repro.units import gb
from repro.workloads import weblog_dag
from repro.workloads.catalog import TABLE1
from repro.workloads.generator import random_workflow
from repro.workloads.tpch import tpch_query

from tests.core.test_bounds import q21_capacity_space

MAP, REDUCE = StageKind.MAP, StageKind.REDUCE


class CountingSource:
    """A BOE source that counts the queries it answers."""

    def __init__(self, cluster):
        self._inner = BOESource(BOEModel(cluster))
        self.calls = 0

    def distribution(self, job, kind, delta, concurrent):
        self.calls += 1
        return self._inner.distribution(job, kind, delta, concurrent)

    def distribution_batch(self, points):
        self.calls += len(points)
        return self._inner.distribution_batch(points)


class OrderSensitiveSource:
    """Task times that depend on the order concurrent load is listed in.

    Nothing in the protocol promises a source ignores that order, so the
    memo must key on the running stages' insertion order."""

    def distribution(self, job, kind, delta, concurrent):
        mean = 10.0 + sum(i * other.num_tasks(k) for i, (other, k, _) in enumerate(concurrent))
        return TaskTimeDistribution(mean=mean, median=mean, std=0.0, n=0)


def _plan(estimate) -> Tuple:
    return (estimate.total_time, estimate.states, estimate.stage_spans)


# -- the 24-tune matrix ---------------------------------------------------------


def _q21_grid(seed: int):
    """The Q21 capacity grid with each knob's values in seeded order."""
    workflow = tpch_query(21)
    rng = random.Random(seed)
    space = []
    for knob in q21_capacity_space(workflow):
        values = list(knob.choices)
        rng.shuffle(values)
        space.append(Knob(knob.job, knob.field, tuple(values)))
    return workflow, space


TUNES = {f"q21-grid/{seed}": (lambda seed=seed: _q21_grid(seed)) for seed in range(3)}
TUNES.update(
    {f"weblog/{size}GB": (lambda size=size: (weblog_dag(gb(size)), None))
     for size in (5, 25, 50, 75, 100)}
)
TUNES.update(
    {f"tpch/q{q}": (lambda q=q: (tpch_query(q), None)) for q in (3, 8, 9, 21)}
)


def _tune(cluster, workflow, space, prune: bool, memo: bool):
    runner = SweepRunner(cluster, memo=memo)
    result = GreedyTuner(cluster, prune=prune, runner=runner).tune(workflow, space)
    return (
        sorted((key, repr(value)) for key, value in result.assignment.items()),
        result.tuned_estimate_s.hex(),
        result.baseline_estimate_s.hex(),
        result.evaluations,
        result.pruned,
    )


@pytest.mark.parametrize("prune", (True, False), ids=("prune", "exact"))
@pytest.mark.parametrize("name", sorted(TUNES))
def test_memoised_tune_equals_cold_tune(name, prune):
    cluster = paper_cluster()
    workflow, space = TUNES[name]()
    cold = _tune(cluster, workflow, space, prune, memo=False)
    assert _tune(cluster, workflow, space, prune, memo=True) == cold


def test_tune_steps_each_shared_state_once():
    """The candidates of a weblog tune share most of their states."""
    cluster = paper_cluster()
    runner = SweepRunner(cluster)
    GreedyTuner(cluster, runner=runner).tune(weblog_dag(gb(25)))
    [estimator] = runner._context._estimators.values()
    stats = estimator.cache_stats
    assert stats.hits > stats.misses > 0


# -- reuse of one estimator -------------------------------------------------------


def test_second_estimate_makes_no_source_calls(cluster):
    source = CountingSource(cluster)
    estimator = DagEstimator(cluster, source)
    workflow = TABLE1[0].factory(1.0)
    first = estimator.estimate(workflow)
    assert source.calls > 0
    before = source.calls
    second = estimator.estimate(workflow)
    assert source.calls == before
    assert _plan(second) == _plan(first)
    assert estimator.cache_stats.hits == len(first.states)


def test_reused_estimator_equals_fresh_over_a_catalogue(cluster):
    """One estimator across the Table I catalogue and generated DAGs."""
    workflows = [entry.factory(1.0) for entry in TABLE1]
    workflows += [random_workflow(seed) for seed in range(12)]
    reused = DagEstimator(cluster, BOESource(BOEModel(cluster)))
    for workflow in workflows + workflows[::-1]:
        fresh = DagEstimator(cluster, BOESource(BOEModel(cluster)))
        assert _plan(reused.estimate(workflow)) == _plan(fresh.estimate(workflow))
    assert reused.cache_stats.hits > 0


def test_resumed_estimate_on_a_reused_estimator_equals_fresh(cluster):
    workflow = next(e for e in TABLE1 if e.name == "WC+TS").factory(1.0)
    reused = DagEstimator(cluster, BOESource(BOEModel(cluster)))
    full = reused.estimate(workflow)
    # Resume from the start of every state of the full plan: each running
    # stage at its work left, the jobs before it completed.
    for state in full.states[1:]:
        done = frozenset(
            name for (name, kind), (_, end) in full.stage_spans.items()
            if end <= state.t_start
            and (kind is REDUCE or workflow.job(name).is_map_only)
        )
        running = {}
        for name, kind in state.running:
            start, end = full.stage_spans[(name, kind)]
            tasks = workflow.job(name).num_tasks(kind)
            running[name] = (kind, tasks * (end - state.t_start) / (end - start))
        snapshot = WorkflowProgress(completed_jobs=done, running=running)
        fresh = _plan(DagEstimator(cluster, BOESource(BOEModel(cluster))).estimate(
            workflow, snapshot
        ))
        hits = reused.cache_stats.hits
        assert _plan(reused.estimate(workflow, snapshot)) == fresh
        assert _plan(reused.estimate(workflow, snapshot)) == fresh
        assert reused.cache_stats.hits > hits


def test_reduce_reentering_after_another_jobs_map(cluster, small_wc):
    """A short job's reduce joins ``walk.running`` behind a long job's map
    that arrived after it, so insertion and arrival orders differ."""
    short = replace(small_wc, name="a", input_mb=gb(1))
    long = replace(small_wc, name="b", input_mb=gb(20))
    tail = replace(small_wc, name="c", input_mb=gb(2))
    workflow = Workflow(name="reentry", jobs=(short, long, tail),
                        edges=frozenset({("a", "c")}))
    variants = [workflow] + [
        Workflow(name="reentry", jobs=(short, replace(long, num_reducers=r), tail),
                 edges=workflow.edges)
        for r in (5, 10, 40)
    ]
    for policy in ("drf", "fifo", "fair"):
        reused = DagEstimator(cluster, BOESource(BOEModel(cluster)), policy=policy)
        for candidate in variants + variants:
            fresh = DagEstimator(cluster, BOESource(BOEModel(cluster)), policy=policy)
            got = reused.estimate(candidate)
            assert _plan(got) == _plan(fresh.estimate(candidate))
        spans = got.stage_spans
        # a's reduce started while b's (later-arriving) map still ran.
        assert spans[("b", MAP)][0] <= spans[("a", REDUCE)][0] < spans[("b", MAP)][1]
        assert reused.cache_stats.hits > 0


# -- what the signature must tell apart -----------------------------------------


def _walk(
    workflow: Workflow,
    stages: Sequence[Tuple[str, StageKind, float, float]],
    arrival: Sequence[str],
) -> _Walk:
    """A walk with ``stages`` (name, kind, remaining, prev_delta) running
    in that insertion order, the jobs having arrived in ``arrival`` order."""
    walk = _Walk(workflow)
    walk.arrival = {name: rank for rank, name in enumerate(arrival)}
    for name, kind, remaining, prev_delta in stages:
        walk.start(name, kind, remaining=remaining)
        walk.running[name].prev_delta = prev_delta
    return walk


def _pairs_step_like_fresh(make_estimator, walks: List[_Walk]) -> None:
    reused = make_estimator()
    for walk in walks:
        assert reused._step(walk) == make_estimator()._step(walk)


@pytest.fixture
def three_jobs(small_ts):
    jobs = tuple(
        replace(small_ts, name=name, input_mb=gb(size))
        for name, size in (("a", 40), ("b", 60), ("c", 80))
    )
    return Workflow(name="three", jobs=jobs)


def test_signature_tells_arrival_orders_apart(cluster, three_jobs):
    """Same stages in the same insertion order, different arrival: FIFO
    serves the earlier arrival first."""
    stages = [(name, MAP, 640.0, 0.0) for name in ("a", "b")]
    walks = [_walk(three_jobs, stages, order) for order in (("a", "b"), ("b", "a"))]
    fresh = [
        DagEstimator(cluster, BOESource(BOEModel(cluster)), policy="fifo")._step(w)
        for w in walks
    ]
    assert fresh[0][0] != fresh[1][0]
    _pairs_step_like_fresh(
        lambda: DagEstimator(cluster, BOESource(BOEModel(cluster)), policy="fifo"),
        walks,
    )


def test_signature_tells_insertion_orders_apart(cluster, three_jobs):
    """Same stages and arrival order, different insertion order: the
    source sees concurrent load in insertion order."""
    work = {"a": 320.0, "b": 480.0, "c": 640.0}
    walks = [
        _walk(three_jobs, [(n, MAP, work[n], 0.0) for n in order], ("a", "b", "c"))
        for order in (("a", "b", "c"), ("b", "a", "c"))
    ]
    fresh = [DagEstimator(cluster, OrderSensitiveSource())._step(w) for w in walks]
    assert fresh[0][2] != fresh[1][2]
    _pairs_step_like_fresh(lambda: DagEstimator(cluster, OrderSensitiveSource()), walks)


def test_signature_tells_previous_deltas_apart(cluster, three_jobs):
    """The previous state's Delta_i caps the next state's demand."""
    walks = [
        _walk(three_jobs, [("a", MAP, 2.5, prev_delta)], ("a",))
        for prev_delta in (0.0, 40.0)
    ]
    fresh = [DagEstimator(cluster, BOESource(BOEModel(cluster)))._step(w) for w in walks]
    assert fresh[0][0] != fresh[1][0]
    _pairs_step_like_fresh(lambda: DagEstimator(cluster, BOESource(BOEModel(cluster))), walks)


# -- pooled runners ---------------------------------------------------------------


def test_pooled_runner_with_telemetry_armed_stays_pooled(cluster, small_ts):
    """Kept estimators hold the tracer's hooks; they stay out of the
    shipped context, so an armed runner still pools."""
    grid = [
        Candidate(Workflow(name="ts", jobs=(replace(small_ts, num_reducers=r),)),
                  label=f"r={r}")
        for r in (10, 20, 40, 80, 120, 160)
    ]
    serial = SweepRunner(cluster).evaluate(grid)
    registry = get_metrics()
    armed = registry.enabled
    registry.enable()
    old_tracer = set_tracer(Tracer(enabled=True))
    try:
        fallbacks = registry.snapshot().get("pool.serial_fallback", {}).get("value", 0)
        with SweepRunner(cluster, processes=2, chunksize=2) as runner:
            # One candidate runs in process and keeps an estimator before
            # the context first ships.
            runner.evaluate(grid[:1])
            assert runner._context._estimators
            pooled = runner.evaluate(grid)
            assert runner.report.pool_used
        after = registry.snapshot().get("pool.serial_fallback", {}).get("value", 0)
    finally:
        set_tracer(old_tracer)
        if not armed:
            registry.disable()
    assert after == fallbacks
    assert [(r.index, r.label, r.total_time_s) for r in pooled] == [
        (r.index, r.label, r.total_time_s) for r in serial
    ]
