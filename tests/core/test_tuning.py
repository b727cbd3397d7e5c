"""Tests for repro.tuning — model-driven configuration search."""

import pickle
from dataclasses import replace

import pytest

from repro.cluster.resources import ResourceVector
from repro.core.boe import BOEModel
from repro.core.distributions import TaskTimeDistribution
from repro.core.estimator import BOESource
from repro.dag import Workflow, single_job_workflow
from repro.errors import EstimationError, SpecificationError
from repro.mapreduce.config import NO_COMPRESSION, SNAPPY_TEXT
from repro.simulator import simulate
from repro.sweep import SweepRunner
from repro.tuning import (
    GreedyTuner,
    Knob,
    apply_assignment,
    current_value,
    default_space,
    tune_workflow,
    wide_space,
)
from repro.tuning.knobs import apply_knob_value
from repro.units import gb
from repro.workloads import terasort, weblog_dag, wordcount
from repro.workloads.tpch import tpch_query


@pytest.fixture
def mistuned(cluster):
    """TeraSort with six huge reducers — an obvious tuning target."""
    return single_job_workflow(replace(terasort(gb(5)), num_reducers=6))


class TestKnobs:
    def test_default_space_covers_every_job(self, cluster, small_wc):
        space = default_space(single_job_workflow(small_wc), cluster)
        fields = {k.field for k in space}
        assert {"num_reducers", "compression", "split_mb", "map_memory_mb"} <= fields

    def test_map_only_job_has_no_reducer_knob(self, cluster):
        from repro.mapreduce import MapReduceJob

        job = MapReduceJob(name="m", input_mb=gb(1), num_reducers=0)
        space = default_space(single_job_workflow(job), cluster)
        assert not any(k.field == "num_reducers" for k in space)

    def test_first_choice_is_current_value(self, cluster, small_ts):
        space = default_space(single_job_workflow(small_ts), cluster)
        reducers = next(k for k in space if k.field == "num_reducers")
        assert reducers.choices[0] == small_ts.num_reducers

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecificationError):
            Knob("j", "teleport", (1, 2))

    def test_single_choice_rejected(self):
        with pytest.raises(SpecificationError):
            Knob("j", "split_mb", (128.0,))


class TestApplyAssignment:
    def test_reducer_change(self, cluster, small_ts):
        wf = single_job_workflow(small_ts)
        tuned = apply_assignment(wf, {("ts", "num_reducers"): 80})
        assert tuned.job("ts").num_reducers == 80
        assert wf.job("ts").num_reducers == small_ts.num_reducers  # original kept

    def test_compression_toggle(self, cluster, small_ts):
        wf = single_job_workflow(small_ts)
        tuned = apply_assignment(wf, {("ts", "compression"): SNAPPY_TEXT})
        assert tuned.job("ts").config.compression.enabled

    def test_split_change_alters_task_count(self, cluster, small_ts):
        wf = single_job_workflow(small_ts)
        tuned = apply_assignment(wf, {("ts", "split_mb"): 256.0})
        assert tuned.job("ts").num_map_tasks < small_ts.num_map_tasks

    def test_map_memory_change(self, cluster, small_ts):
        wf = single_job_workflow(small_ts)
        tuned = apply_assignment(wf, {("ts", "map_memory_mb"): 4000.0})
        assert tuned.job("ts").config.map_container.memory_mb == 4000.0

    def test_foreign_job_keys_ignored(self, cluster, small_ts):
        wf = single_job_workflow(small_ts)
        tuned = apply_assignment(wf, {("ghost", "num_reducers"): 5})
        assert tuned.job("ts").num_reducers == small_ts.num_reducers


def _one_knob_candidates(workflow, space):
    return [
        (knob.key, choice)
        for knob in space
        for choice in knob.choices
        if choice != current_value(workflow, knob)
    ]


class TestDerivedCandidates:
    """Knob candidates keep every job name, their order and the edges, so
    they are derived from the validated parent: equal to, hashing and
    pickling like the workflow the constructor builds, with the parent's
    structure and no second cycle check."""

    @pytest.fixture(params=("q21", "weblog"))
    def grid(self, request, cluster):
        if request.param == "q21":
            workflow = tpch_query(21)
            space = wide_space(workflow, cluster, jobs=["q21-scan-lineitem"])
        else:
            workflow = weblog_dag(gb(25))
            space = default_space(workflow, cluster)
        return workflow, _one_knob_candidates(workflow, space)

    def test_candidate_is_the_constructed_workflow(self, grid):
        workflow, candidates = grid
        hash(workflow)
        for key, value in candidates:
            candidate = apply_knob_value(workflow, key, value)
            built = Workflow(name=workflow.name, jobs=candidate.jobs, edges=workflow.edges)
            assert candidate == built
            assert hash(candidate) == hash(built)
            candidate.job_map  # populate the structure memo
            assert pickle.dumps(candidate) == pickle.dumps(built)
            clone = pickle.loads(pickle.dumps(candidate))
            assert "_memo" not in clone.__dict__ and clone == candidate
            for name in workflow.job_map:
                assert candidate.parents(name) == workflow.parents(name)
                assert candidate.children(name) == workflow.children(name)
            assert candidate.topological_order() == workflow.topological_order()
            assigned = apply_assignment(workflow, {key: value})
            assert assigned == candidate and hash(assigned) == hash(candidate)

    def test_no_cycle_check_per_candidate(self, grid, monkeypatch):
        workflow, candidates = grid
        calls = []
        order = Workflow.topological_order

        def counting(self):
            calls.append(self.name)
            return order(self)

        monkeypatch.setattr(Workflow, "topological_order", counting)
        for key, value in candidates:
            apply_knob_value(workflow, key, value)
            apply_assignment(workflow, {key: value})
        assert calls == []
        # The constructor still validates.
        Workflow(name=workflow.name, jobs=workflow.jobs, edges=workflow.edges)
        assert calls == [workflow.name]


class TestGreedyTuner:
    def test_finds_the_reducer_fix(self, cluster, mistuned):
        result, tuned_wf = tune_workflow(mistuned, cluster)
        assert result.improvement > 1.5
        assert tuned_wf.job("ts").num_reducers > 6

    def test_tuned_config_verifies_on_simulator(self, cluster, mistuned):
        result, tuned_wf = tune_workflow(mistuned, cluster)
        before = simulate(mistuned, cluster).makespan
        after = simulate(tuned_wf, cluster).makespan
        assert after < before

    def test_well_tuned_workflow_left_alone(self, cluster):
        # The catalogue WC is already configured sensibly; tuning must not
        # regress its estimate.
        wf = single_job_workflow(wordcount(gb(5)))
        result, _ = tune_workflow(wf, cluster)
        assert result.tuned_estimate_s <= result.baseline_estimate_s + 1e-9

    def test_tuning_is_fast(self, cluster, mistuned):
        result, _ = tune_workflow(mistuned, cluster)
        assert result.wall_time_s < 2.0
        assert result.evaluations < 200

    def test_trajectory_is_monotone(self, cluster, mistuned):
        result, _ = tune_workflow(mistuned, cluster)
        estimates = [e for _, _, e in result.trajectory]
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))

    def test_custom_space(self, cluster, mistuned):
        space = [Knob("ts", "num_reducers", (6, 60, 120))]
        result = GreedyTuner(cluster).tune(mistuned, space)
        assert result.assignment.get(("ts", "num_reducers")) in (60, 120)

    def test_invalid_passes_rejected(self, cluster):
        with pytest.raises(EstimationError):
            GreedyTuner(cluster, max_passes=0)


class TestCurrentValue:
    def test_reads_the_workflow_not_the_grid(self, mistuned):
        knob = Knob("ts", "num_reducers", (120, 6))
        assert current_value(mistuned, knob) == 6

    def test_every_field(self, small_ts):
        wf = single_job_workflow(small_ts)
        assert current_value(wf, Knob("ts", "num_reducers", (1, 2))) == 40
        assert (
            current_value(wf, Knob("ts", "compression", (SNAPPY_TEXT, NO_COMPRESSION)))
            == small_ts.config.compression
        )
        assert (
            current_value(wf, Knob("ts", "split_mb", (1.0, 2.0)))
            == small_ts.config.split_mb
        )
        assert (
            current_value(wf, Knob("ts", "map_memory_mb", (1.0, 2.0)))
            == small_ts.config.map_container.memory_mb
        )

    def test_foreign_job_falls_back_to_first_choice(self, mistuned):
        assert current_value(mistuned, Knob("ghost", "split_mb", (64.0, 128.0))) == 64.0


class TestBaselineRegression:
    """The tuner must derive each knob's baseline from the workflow itself,
    not trust ``choices[0]`` to be the current value."""

    def test_improvement_found_when_grid_lists_baseline_last(
        self, cluster, mistuned
    ):
        # Old behaviour: 120 was assumed to *be* the current value, so the
        # only actual improvement was never evaluated and the tuner
        # reported nothing.
        space = [Knob("ts", "num_reducers", (120, 6))]
        result = GreedyTuner(cluster).tune(mistuned, space)
        assert result.assignment == {("ts", "num_reducers"): 120}
        assert result.improvement > 1.0

    def test_no_noop_assignments_reported(self, cluster, mistuned):
        # A grid whose entries are all equivalent to the current config
        # must yield an empty assignment, never "change 6 -> 6".
        space = [Knob("ts", "num_reducers", (6, 6.0))]
        result = GreedyTuner(cluster).tune(mistuned, space)
        assert result.assignment == {}

    def test_assignment_never_maps_to_workflow_value(self, cluster, mistuned):
        space = [Knob("ts", "num_reducers", (120, 6, 240))]
        result = GreedyTuner(cluster).tune(mistuned, space)
        for (job, fieldname), value in result.assignment.items():
            knob = next(k for k in space if k.key == (job, fieldname))
            assert value != current_value(mistuned, knob)


class _GappySource:
    """Estimates shrink with reducer count; one count is infeasible."""

    def __init__(self, broken_reducers: int):
        self._broken = broken_reducers

    def distribution(self, job, kind, delta, concurrent):
        if job.num_reducers == self._broken:
            raise EstimationError(f"{self._broken} reducers unsupported")
        value = 1000.0 / (job.num_reducers * max(delta, 1.0))
        return TaskTimeDistribution(mean=value, median=value, std=0.0, n=0)


class TestEvaluationAccounting:
    """``evaluations`` counts attempts; infeasible candidates are reported
    separately instead of silently vanishing from the ledger."""

    def test_infeasible_candidates_counted(self, cluster, mistuned):
        space = [Knob("ts", "num_reducers", (6, 7, 12))]
        tuner = GreedyTuner(cluster, source=_GappySource(broken_reducers=7))
        result = tuner.tune(mistuned, space)
        # Pass 1: candidates 7 (infeasible) and 12 (wins).  Pass 2 from 12:
        # candidates 6 and 7 (infeasible), no improvement, stop.  Baseline
        # plus four candidate attempts, two of them infeasible.
        assert result.evaluations == 5
        assert result.infeasible == 2
        assert result.assignment == {("ts", "num_reducers"): 12}

    def test_feasible_run_reports_zero_infeasible(self, cluster, mistuned):
        result = GreedyTuner(cluster).tune(mistuned)
        assert result.infeasible == 0
        assert result.evaluations == result.sweep.candidates

    def test_infeasible_baseline_raises(self, cluster, mistuned):
        tuner = GreedyTuner(cluster, source=_GappySource(broken_reducers=6))
        with pytest.raises(EstimationError):
            tuner.tune(mistuned, [Knob("ts", "num_reducers", (6, 12))])

    def test_sweep_report_attached(self, cluster, mistuned):
        result = GreedyTuner(cluster).tune(mistuned)
        assert result.sweep is not None
        assert result.sweep.candidates == result.evaluations
        assert result.sweep.cache.lookups > 0


class TestTunerParity:
    """Acceptance: cached/batched/parallel tuning is bit-identical to the
    uncached serial reference path."""

    def _reference(self, cluster):
        source = BOESource(BOEModel(cluster, cache=False))
        return GreedyTuner(
            cluster,
            source=source,
            runner=SweepRunner(cluster, source=source, memo=False),
        )

    def test_cached_matches_reference(self, cluster, mistuned):
        cached = GreedyTuner(cluster).tune(mistuned)
        reference = self._reference(cluster).tune(mistuned)
        assert cached.baseline_estimate_s == reference.baseline_estimate_s
        assert cached.tuned_estimate_s == reference.tuned_estimate_s
        assert cached.assignment == reference.assignment
        assert cached.evaluations == reference.evaluations
        assert cached.trajectory == reference.trajectory

    def test_parallel_matches_reference(self, cluster, mistuned):
        tuner = GreedyTuner(cluster, processes=2)
        try:
            parallel = tuner.tune(mistuned)
        finally:
            tuner.runner.close()
        reference = self._reference(cluster).tune(mistuned)
        assert parallel.tuned_estimate_s == reference.tuned_estimate_s
        assert parallel.assignment == reference.assignment
