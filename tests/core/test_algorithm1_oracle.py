"""Algorithm 1 against a literal transcription of the paper's pseudocode.

:func:`algorithm1` below re-derives the state-based DAG estimate (§IV-A2,
Algorithm 1; ``docs/paper_mapping.md``) with one function per pseudocode
step, on the dict-path BOE oracle of ``test_boe_golden.py`` and with its own
wave arithmetic.  Only the scheduler equilibrium (``estimate_parallelism``,
the paper's "properties of schedulers") is shared with production.
:class:`DagEstimator` must match it to the bit — total time, every state and
every stage span — over the Table I catalogue, the 51 Table III DAGs at
scale 0.05 and 30 generated DAGs, for Alg1-Mean, Alg1-Mid and Alg2-Normal.
It must also match it resumed from a mid-run snapshot, the progress
estimation path (:mod:`repro.progress`): the Table I catalogue is simulated
and cut at a third and two thirds of its makespan, and every DAG with a
dependency also at its first parent's end with the children left for the
estimator to release.

Every case matches.  Two task-time shapes are checked: the plain BOE source
(a point distribution, as end-to-end estimation uses) and a profile-shaped
one whose median and spread differ from its mean, so that the three
variants take different branches.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import pytest
from scipy.stats import norm

from repro.cluster import paper_cluster
from repro.core import (
    BOEModel,
    DagEstimator,
    EstimatedState,
    TaskTimeDistribution,
    Variant,
)
from repro.core.parallelism import RunningStage, estimate_parallelism
from repro.core.state import WorkflowProgress
from repro.mapreduce import StageKind
from repro.progress import ProgressEstimator, snapshot_at
from repro.simulator import simulate
from repro.workloads import table3_workflows
from repro.workloads.catalog import TABLE1
from repro.workloads.generator import random_workflow

from tests.core.test_boe_golden import DictPathOracle

EPS = 1e-9
VARIANTS = (Variant.MEAN, Variant.MEDIAN, Variant.NORMAL)
#: (median / mean, std / mean) of each task-time shape; (1, 0) is plain BOE.
SHAPES = {"boe": (1.0, 0.0), "profiled": (0.9, 0.25)}


class Stage:
    """The loop state Algorithm 1 carries per running job."""

    def __init__(self, job, kind: StageKind, now: float):
        self.job, self.kind, self.t_start = job, kind, now
        self.total = float(job.num_tasks(kind))
        self.remaining = self.total  # task-equivalents of work left
        self.delta = 0.0  # Delta_i of the previous state


# -- the five steps of one iteration ---------------------------------------------


def step_parallelism(running, arrival, cluster) -> Dict[str, float]:
    """Step 1: "estimate the degree of parallelism Delta_i for each running
    job using the properties of schedulers".  A stage demands its pending
    tasks plus those in flight (at most last state's Delta_i), and jobs are
    served in arrival order."""
    stages = [
        RunningStage(s.job, s.kind, min(s.total, math.ceil(s.remaining + s.delta)))
        for _, s in sorted(running.items(), key=lambda item: arrival[item[0]])
    ]
    return estimate_parallelism(stages, cluster)


def step_task_times(running, deltas, source):
    """Step 2: "estimate the task execution time" of every running stage by
    BOE at Delta_i, under the load of every other running stage.  A ragged
    final wave (fewer tasks than Delta_i) is re-priced at its own size."""
    times = {}
    for name, stage in running.items():
        load = [(o.job, o.kind, deltas[n]) for n, o in running.items() if n != name]
        per_wave, waves, last = waves_of(stage.total, deltas[name])
        ragged = waves >= 2 and last < per_wave
        tail = source(stage.job, stage.kind, float(last), load) if ragged else None
        times[name] = (source(stage.job, stage.kind, deltas[name], load), tail)
    return times


def step_first_stage_end(running, deltas, times, variant):
    """Step 3: the rest time of each stage, t_stage * remaining / total; the
    state ends when the first stage does, t_state = min t_rest."""
    rests = {}
    for name, stage in running.items():
        dist, tail = times[name]
        whole = stage_time(stage.total, deltas[name], dist, tail, variant)
        rests[name] = whole * (stage.remaining / stage.total)
    t_state = min(rests.values())
    finishing = {name for name, rest in rests.items() if rest <= t_state + EPS}
    return t_state, rests, finishing


def step_advance(running, rests, t_state, finishing) -> None:
    """Step 4: every stage that does not finish progresses for t_state
    seconds at its current rate, remaining / t_rest."""
    for name, stage in running.items():
        if name not in finishing and rests[name] > EPS:
            rate = stage.remaining / rests[name]
            stage.remaining = max(0.0, stage.remaining - t_state * rate)


def step_transition(workflow, running, done, arrival, finishing, now, spans) -> None:
    """Step 5: a finished map hands over to its job's reduce stage; a
    finished job releases every child whose parents have all completed."""
    for name in [n for n in running if n in finishing]:
        stage = running.pop(name)
        spans[(name, stage.kind)] = (stage.t_start, now)
        if stage.kind is StageKind.MAP and not stage.job.is_map_only:
            start(workflow, name, StageKind.REDUCE, running, arrival, now)
            continue
        done.add(name)
        for child in sorted(workflow.children(name)):
            if child not in done and child not in running and all(
                p in done for p in workflow.parents(child)
            ):
                start(workflow, child, StageKind.MAP, running, arrival, now)


# -- wave arithmetic ----------------------------------------------------------------


def waves_of(total: float, delta: float) -> Tuple[int, int, int]:
    """(tasks per wave, number of waves, size of the final wave)."""
    per_wave = max(1, int(delta + 1e-9))
    waves = math.ceil(total / per_wave)
    return per_wave, waves, int(total - (waves - 1) * per_wave)


def stage_time(total, delta, dist, tail: Optional[TaskTimeDistribution], variant):
    """Alg1: every wave lasts one task time.  Alg2-Normal: the body drains at
    mean throughput and the final wave of k tasks ends at E[max of k draws]
    of N(mu, sigma), by Blom's approximation."""
    per_wave, waves, last = waves_of(total, delta)
    final = dist if tail is None else tail
    if variant is Variant.NORMAL:
        body = (total - last) / per_wave * dist.mean
        if last == 1 or final.std == 0.0:
            return body + final.mean
        blom = float(norm.ppf((last - 0.375) / (last + 0.25)))
        return body + (final.mean + final.std * blom)
    return (waves - 1) * dist.statistic(variant) + final.statistic(variant)


# -- the loop -------------------------------------------------------------------------


def start(workflow, name, kind, running, arrival, now) -> None:
    arrival.setdefault(name, len(arrival))
    running[name] = Stage(workflow.job(name), kind, now)


def resume(workflow, snapshot, running, done, arrival) -> None:
    """The running set of a mid-run snapshot: its completed jobs are done,
    and each stage it lists runs with the task-equivalents it has left.  A
    stage with work already done may hold a full wave of tasks in flight,
    so its demand cap starts at its task count.  A job whose parents have
    all completed but which the snapshot does not list starts its map."""
    done.update(snapshot.completed_jobs)
    for name, (kind, remaining) in snapshot.running.items():
        start(workflow, name, kind, running, arrival, 0.0)
        stage = running[name]
        stage.remaining = min(remaining, stage.total)
        if remaining < stage.total:
            stage.delta = stage.total
    for job in workflow.jobs:
        if job.name not in done and job.name not in running and all(
            p in done for p in workflow.parents(job.name)
        ):
            start(workflow, job.name, StageKind.MAP, running, arrival, 0.0)


def algorithm1(workflow, cluster, source, variant, initial=None):
    """Iterate states until no job runs; t_dag is the sum of their lengths
    (the remaining time when resumed from the snapshot ``initial``)."""
    running: Dict[str, Stage] = {}
    done, arrival, spans, states = set(), {}, {}, []
    now = 0.0
    if initial is None:
        for name in workflow.roots():
            start(workflow, name, StageKind.MAP, running, arrival, now)
    else:
        resume(workflow, initial, running, done, arrival)
    while running:
        found = step_parallelism(running, arrival, cluster)
        deltas = {name: max(found.get(name, 0.0), EPS) for name in running}
        times = step_task_times(running, deltas, source)
        t_state, rests, finishing = step_first_stage_end(
            running, deltas, times, variant
        )
        states.append(EstimatedState(
            index=len(states) + 1, t_start=now, t_end=now + t_state,
            running=frozenset((s.job.name, s.kind) for s in running.values()),
            deltas={name: found.get(name, 0.0) for name in running},
            task_times={(s.job.name, s.kind): times[n][0].statistic(variant)
                        for n, s in running.items()},
        ))
        for name, stage in running.items():
            stage.delta = deltas[name]
        now += t_state
        step_advance(running, rests, t_state, finishing)
        step_transition(workflow, running, done, arrival, finishing, now, spans)
    return now, states, spans


# -- the differential test -----------------------------------------------------------


def shaped(shape: Tuple[float, float], job, duration: float) -> TaskTimeDistribution:
    """A BOE task time plus the job's task overhead, as a distribution with
    the shape's median and spread relative to its mean."""
    mean = duration + job.config.task_overhead_s
    median_ratio, cv = shape
    return TaskTimeDistribution(mean=mean, median=mean * median_ratio, std=mean * cv)


class ShapedSource:
    """:func:`shaped` task times from the production BOE kernel."""

    def __init__(self, model: BOEModel, shape: Tuple[float, float]):
        self._model, self._shape = model, shape

    def distribution(self, job, kind, delta, concurrent):
        estimate = self._model.task_time(job, kind, delta, concurrent)
        return shaped(self._shape, job, estimate.duration)

    def distribution_batch(self, points):
        estimates = self._model.solve_batch(points)
        return [
            shaped(self._shape, job, e.duration)
            for (job, _, _, _), e in zip(points, estimates)
        ]


def oracle_sources(cluster):
    """:func:`shaped` task times from the dict-path BOE, per shape; the
    dict-path solves are memoised per query and shared by the shapes."""
    dict_path = DictPathOracle(BOEModel(cluster, cache=False))
    memo: Dict[tuple, float] = {}

    def duration(job, kind, delta, load) -> float:
        key = (job, kind, delta, tuple(load))
        if key not in memo:
            memo[key] = dict_path.task_time(job, kind, delta, load).duration
        return memo[key]

    def source(shape):
        return lambda job, kind, delta, load: shaped(
            shape, job, duration(job, kind, delta, load)
        )

    return {name: source(shape) for name, shape in SHAPES.items()}


WORKFLOWS = {f"table1/{e.name}": e.factory(1.0) for e in TABLE1}
WORKFLOWS.update({f"table3/{n}": wf for n, wf in table3_workflows(0.05).items()})
WORKFLOWS.update({f"generated/{i}": random_workflow(i) for i in range(30)})


@pytest.fixture(scope="module")
def oracles():
    cluster = paper_cluster()
    return cluster, oracle_sources(cluster)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_estimator_equals_oracle(oracles, variant, shape):
    cluster, sources = oracles
    source = ShapedSource(BOEModel(cluster), SHAPES[shape])
    drifted: List[str] = []
    for name, workflow in WORKFLOWS.items():
        got = DagEstimator(cluster, source, variant=variant).estimate(workflow)
        total, states, spans = algorithm1(workflow, cluster, sources[shape], variant)
        if (got.total_time, got.states, got.stage_spans) != (total, states, spans):
            drifted.append(name)
    assert not drifted, f"DagEstimator left the Algorithm 1 oracle on {drifted}"


#: Fractions of the simulated makespan at which each snapshot is cut.
CUTS = (1 / 3, 2 / 3)


@pytest.fixture(scope="module")
def snapshots(oracles):
    """Mid-run snapshots of the Table I catalogue, cut from simulated
    traces."""
    cluster, _ = oracles
    cases = {}
    for entry in TABLE1:
        workflow = entry.factory(1.0)
        result = simulate(workflow, cluster)
        for cut in CUTS:
            snapshot = snapshot_at(result, workflow, result.makespan * cut)
            cases[f"{entry.name}@{cut:.2f}"] = (workflow, snapshot)
        ends = {
            job.name: max(s.t_end for s in result.stages if s.job == job.name)
            for job in workflow.jobs
        }
        parents = [name for name in ends if workflow.children(name)]
        if parents:
            # A tracker polled as a parent ends may not list its children
            # yet; the estimator must launch them itself.
            first = min(parents, key=ends.get)
            snapshot = snapshot_at(result, workflow, ends[first])
            children = workflow.children(first)
            for child in children:
                kind, remaining = snapshot.running[child]
                assert remaining == workflow.job(child).num_tasks(kind)
            unlisted = WorkflowProgress(
                completed_jobs=snapshot.completed_jobs,
                running={
                    name: stage
                    for name, stage in snapshot.running.items()
                    if name not in children
                },
            )
            cases[f"{entry.name}@{first}"] = (workflow, unlisted)
    for name, (workflow, snapshot) in cases.items():
        assert 0 < len(snapshot.completed_jobs) + len(snapshot.running), name
        assert len(snapshot.completed_jobs) < len(workflow.jobs), name
    return cases


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_resumed_estimator_equals_oracle(oracles, snapshots, variant, shape):
    cluster, sources = oracles
    progress = ProgressEstimator(
        cluster, ShapedSource(BOEModel(cluster), SHAPES[shape]), variant=variant
    )
    drifted: List[str] = []
    for name, (workflow, snapshot) in snapshots.items():
        got = progress.remaining(workflow, snapshot)
        total, states, spans = algorithm1(
            workflow, cluster, sources[shape], variant, initial=snapshot
        )
        if (got.total_time, got.states, got.stage_spans) != (total, states, spans):
            drifted.append(name)
    assert not drifted, f"the resumed estimate left the Algorithm 1 oracle on {drifted}"
