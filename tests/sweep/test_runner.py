"""Tests for repro.sweep — the batched what-if evaluation layer."""

import os
import time
from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.cluster.node import PAPER_NODE
from repro.core.boe import BOEModel
from repro.core.distributions import TaskTimeDistribution
from repro.core.estimator import BOESource, estimate_workflow
from repro.dag import single_job_workflow
from repro.ensemble.engine import _evaluate_items as _real_evaluate_items
from repro.errors import (
    EstimationError,
    JobCancelledError,
    JobTimeoutError,
    SchedulingError,
)
from repro.mapreduce import StageKind
from repro.obs.metrics import MetricsRegistry, get_metrics, snapshot_delta
from repro.sweep import Candidate, SweepRunner, default_processes
from repro.sweep.runner import _evaluate_chunk as _real_evaluate_chunk
from repro.units import gb
from repro.workloads import terasort, wordcount
from repro.workloads.tpch import tpch_query

#: Captured at import in the parent process; forked pool workers inherit
#: it, so a pid mismatch identifies worker processes in the crash rigs.
_PARENT_PID = os.getpid()


def _crashing_evaluate_chunk(context, payload):
    """Estimator chunk rig: dies like an OOM-killed worker in children.

    The runner hands the (patched) ``_evaluate_chunk`` module global to
    the pool as its work function, so workers run this rig; the parent's
    serial tail runs it too, where the pid guard makes it the real work.
    """
    if os.getpid() != _PARENT_PID:
        os._exit(3)
    return _real_evaluate_chunk(context, payload)


def _crashing_evaluate_items(setup, items):
    """Replication chunk rig for ``simulate_candidates`` (same shape)."""
    if os.getpid() != _PARENT_PID:
        os._exit(3)
    return _real_evaluate_items(setup, items)


def _counter_value(registry, name):
    return registry.snapshot().get(name, {}).get("value", 0)


@pytest.fixture
def grid(small_ts):
    """Five distinct reducer-count what-ifs plus the base point."""
    return [
        Candidate(
            single_job_workflow(replace(small_ts, num_reducers=r)),
            label=f"r={r}",
        )
        for r in (10, 20, 40, 80, 120, 160)
    ]


class _FlakySource:
    """Serial-only stub: fails for a marked job, constant otherwise."""

    def distribution(self, job, kind, delta, concurrent):
        if job.name == "bad":
            raise EstimationError("deliberately infeasible")
        return TaskTimeDistribution(mean=1.0, median=1.0, std=0.0, n=0)


class TestSweepRunner:
    def test_results_in_submission_order(self, cluster, grid):
        results = SweepRunner(cluster).evaluate(grid)
        assert [r.index for r in results] == list(range(len(grid)))
        assert [r.label for r in results] == [c.name for c in grid]
        assert all(r.ok and r.total_time_s > 0 for r in results)

    def test_matches_direct_estimates(self, cluster, grid):
        """The runner is a batching layer, not a different model: every
        result equals the direct estimator call, bit for bit."""
        results = SweepRunner(cluster).evaluate(grid)
        for candidate, result in zip(grid, results):
            direct = estimate_workflow(candidate.workflow, cluster)
            assert result.total_time_s == direct.total_time
            assert result.states == len(direct.states)

    def test_bare_workflows_are_normalised(self, cluster, small_ts):
        wf = single_job_workflow(small_ts)
        [result] = SweepRunner(cluster).evaluate([wf])
        assert result.label == wf.name
        assert result.ok

    def test_infeasible_candidate_captured_not_raised(self, cluster, small_ts):
        bad = single_job_workflow(replace(small_ts, name="bad"))
        good = single_job_workflow(small_ts)
        runner = SweepRunner(cluster, source=_FlakySource())
        results = runner.evaluate([good, bad, good])
        assert [r.ok for r in results] == [True, False, True]
        assert "infeasible" in results[1].error
        assert results[1].total_time_s is None
        assert runner.report.infeasible == 1
        assert runner.report.succeeded == 2

    def test_unschedulable_candidate_captured_not_raised(self, cluster):
        """A container larger than the whole cluster makes the scheduler
        raise a SchedulingError; an exact sweep reports that candidate as
        infeasible and still estimates its neighbours."""
        from repro.tuning.knobs import apply_knob_value

        workflow = tpch_query(21)
        monster = apply_knob_value(
            workflow,
            ("q21-scan-lineitem", "map_memory_mb"),
            cluster.capacity.memory_mb * 4.0,
        )
        with pytest.raises(SchedulingError) as raised:
            estimate_workflow(monster, cluster)
        runner = SweepRunner(cluster)
        bad, good = runner.evaluate([monster, workflow], prune=False)
        assert not bad.ok and not bad.pruned
        assert bad.total_time_s is None
        assert bad.error == str(raised.value)
        assert good.total_time_s == estimate_workflow(workflow, cluster).total_time
        assert runner.report.infeasible == 1

    def test_cluster_override(self, small_ts):
        small = Cluster(node=PAPER_NODE, workers=4, name="4w")
        big = Cluster(node=PAPER_NODE, workers=16, name="16w")
        wf = single_job_workflow(small_ts)
        runner = SweepRunner(small)
        a, b = runner.evaluate(
            [Candidate(wf, cluster=small), Candidate(wf, cluster=big)]
        )
        assert b.total_time_s < a.total_time_s
        assert a.total_time_s == estimate_workflow(wf, small).total_time
        assert b.total_time_s == estimate_workflow(wf, big).total_time

    def test_cluster_override_needs_default_source(self, cluster, small_ts):
        other = Cluster(node=PAPER_NODE, workers=4, name="4w")
        runner = SweepRunner(cluster, source=BOESource(BOEModel(cluster)))
        wf = single_job_workflow(small_ts)
        with pytest.raises(EstimationError):
            runner.evaluate([Candidate(wf, cluster=other)])

    def test_duplicate_candidates_hit_the_memo(self, cluster, small_ts):
        wf = single_job_workflow(small_ts)
        runner = SweepRunner(cluster)
        first, second = runner.evaluate([wf, wf])
        assert second.total_time_s == first.total_time_s
        assert (first.index, second.index) == (0, 1)
        assert runner.report.cache.hits > 0

    def test_memo_disabled_reproduces_reference(self, cluster, grid):
        cached = SweepRunner(cluster).evaluate(grid)
        plain = SweepRunner(
            cluster, source=BOESource(BOEModel(cluster, cache=False)), memo=False
        ).evaluate(grid)
        assert [r.total_time_s for r in cached] == [r.total_time_s for r in plain]

    def test_report_accumulates_across_batches(self, cluster, grid):
        runner = SweepRunner(cluster)
        runner.evaluate(grid[:2])
        runner.evaluate(grid[2:])
        report = runner.report
        assert report.candidates == len(grid)
        assert report.batches == 2
        assert report.wall_time_s > 0
        assert report.cpu_time_s > 0
        assert report.evaluations_per_s > 0
        assert {"build", "estimate", "collect"} <= set(report.phase_s)
        assert "evaluations" in report.describe()
        runner.reset_report()
        assert runner.report.candidates == 0

    def test_empty_batch(self, cluster):
        runner = SweepRunner(cluster)
        assert runner.evaluate([]) == []
        assert runner.report.batches == 0

    def test_invalid_parameters_rejected(self, cluster):
        with pytest.raises(EstimationError):
            SweepRunner(cluster, processes=0)
        with pytest.raises(EstimationError):
            SweepRunner(cluster, chunksize=0)


class TestParallelRunner:
    def test_pool_matches_serial_bit_identical(self, cluster, grid):
        serial = SweepRunner(cluster).evaluate(grid)
        with SweepRunner(cluster, processes=2, chunksize=2) as runner:
            pooled = runner.evaluate(grid)
            assert runner.report.pool_used
        assert [(r.index, r.label, r.total_time_s) for r in pooled] == [
            (r.index, r.label, r.total_time_s) for r in serial
        ]

    def test_worker_caches_persist_across_evaluate_calls(self, cluster, grid):
        """Workers keep their context — memo and task-time caches — between
        batches.  One chunk per batch lands on one of the two workers, so
        by the third batch some worker has already evaluated every
        candidate: a batch with no cache miss at all must occur."""
        misses = []
        with SweepRunner(cluster, processes=2, chunksize=len(grid)) as runner:
            for _ in range(3):
                before = runner.report.cache.misses
                results = runner.evaluate(grid)
                misses.append(runner.report.cache.misses - before)
            assert runner.report.pool_used
        assert all(r.ok for r in results)
        assert misses[0] > 0
        assert min(misses[1:]) == 0

    def test_pool_merges_worker_cache_stats(self, cluster, grid):
        with SweepRunner(cluster, processes=2) as runner:
            runner.evaluate(grid)
            assert runner.report.cache.lookups > 0

    def test_unpicklable_source_falls_back_to_serial(self, cluster, grid):
        class Closure:
            """Unpicklable: holds a lambda."""

            def __init__(self):
                self.f = lambda x: x

            def distribution(self, job, kind, delta, concurrent):
                v = self.f(2.0)
                return TaskTimeDistribution(mean=v, median=v, std=0.0, n=0)

        runner = SweepRunner(cluster, source=Closure(), processes=2)
        results = runner.evaluate(grid)
        assert all(r.ok for r in results)
        assert not runner.report.pool_used

    def test_pool_survives_infeasible_candidates(self, cluster, small_ts):
        # An infeasible candidate must come back as an error result from
        # the workers, not break the pool (the stub class is module-level,
        # so the worker context pickles).
        wf_ok = single_job_workflow(small_ts)
        wf_bad = single_job_workflow(replace(small_ts, name="bad"))
        with SweepRunner(cluster, source=_FlakySource(), processes=2) as runner:
            results = runner.evaluate([wf_ok, wf_bad, wf_ok, wf_bad])
        assert [r.ok for r in results] == [True, False, True, False]


class TestDefaultProcesses:
    def test_bounds(self):
        assert 1 <= default_processes() <= 8
        assert default_processes(cap=2) <= 2


class TestDistributionalSweep:
    """`simulate_candidates` — replication ensembles through the sweep pool."""

    def _config(self):
        from repro.simulator import FailureModel, SimulationConfig
        from repro.mapreduce import SkewModel

        return SimulationConfig(
            skew=SkewModel(sigma=0.3),
            failures=FailureModel(probability=0.05),
        )

    def _ensemble(self, **overrides):
        from repro.ensemble import EnsembleConfig

        base = dict(replications=4, min_replications=4, exemplars=0)
        base.update(overrides)
        return EnsembleConfig(**base)

    def test_results_in_submission_order(self, cluster, small_ts):
        workflows = [
            single_job_workflow(replace(small_ts, num_reducers=r))
            for r in (10, 40)
        ]
        results = SweepRunner(cluster).simulate_candidates(
            workflows, config=self._config(), ensemble=self._ensemble()
        )
        assert [r.workflow for r in results] == [w.name for w in workflows]
        for r in results:
            assert r.replications == 4
            assert len(r.samples) == 4

    def test_matches_standalone_ensemble(self, cluster, small_ts):
        """The sweep path and the dedicated EnsembleRunner are the same
        distribution machine: bit-identical aggregates."""
        from repro.ensemble import run_ensemble

        workflow = single_job_workflow(small_ts)
        (swept,) = SweepRunner(cluster).simulate_candidates(
            [workflow], config=self._config(), ensemble=self._ensemble()
        )
        direct = run_ensemble(
            workflow, cluster, self._config(), self._ensemble()
        )
        assert swept.samples == direct.samples
        assert swept.quantiles == direct.quantiles
        assert swept.ci == direct.ci
        assert swept.makespan == direct.makespan

    def test_pool_matches_serial_bit_identical(self, cluster, small_ts):
        workflows = [
            single_job_workflow(replace(small_ts, num_reducers=r))
            for r in (10, 40)
        ]
        with SweepRunner(cluster) as serial_runner:
            serial = serial_runner.simulate_candidates(
                workflows, config=self._config(), ensemble=self._ensemble()
            )
        with SweepRunner(cluster, processes=2) as pooled_runner:
            pooled = pooled_runner.simulate_candidates(
                workflows, config=self._config(), ensemble=self._ensemble()
            )
            assert pooled_runner.report.pool_used
        for a, b in zip(serial, pooled):
            assert a.samples == b.samples
            assert a.quantiles == b.quantiles
            assert a.ci == b.ci

    def test_cluster_overrides_respected(self, cluster, small_ts):
        workflow = single_job_workflow(small_ts)
        big = Cluster(node=PAPER_NODE, workers=20, name="20w")
        small, large = SweepRunner(cluster).simulate_candidates(
            [Candidate(workflow), Candidate(workflow, cluster=big)],
            config=self._config(),
            ensemble=self._ensemble(),
        )
        assert large.makespan["mean"] < small.makespan["mean"]

    def test_report_accounts_replications(self, cluster, small_ts):
        runner = SweepRunner(cluster)
        runner.simulate_candidates(
            [single_job_workflow(small_ts)],
            config=self._config(),
            ensemble=self._ensemble(),
        )
        assert runner.report.candidates == 1
        assert runner.report.succeeded == 1
        assert runner.report.batches == 1

    def test_compare_paired_through_the_runner(self, cluster, small_ts):
        """CRN pairing via the sweep pool: strictly tighter than unpaired
        on the reducer knob."""
        baseline = single_job_workflow(small_ts)
        candidate = single_job_workflow(replace(small_ts, num_reducers=10))
        comparison = SweepRunner(cluster).compare_paired(
            baseline,
            candidate,
            config=self._config(),
            ensemble=self._ensemble(replications=8, min_replications=8),
        )
        assert comparison.replications == 8
        assert comparison.paired_halfwidth < comparison.unpaired_halfwidth
        assert comparison.deltas == tuple(
            b - a
            for a, b in zip(comparison.samples_a, comparison.samples_b)
        )


class TestCrashAndCancellation:
    """PR 7: worker death, cooperative cancellation, loud degradation."""

    def test_worker_crash_completes_serially_bit_identical(
        self, cluster, grid, monkeypatch
    ):
        """A crashed worker no longer raises out of ``evaluate``: the batch
        finishes on the serial path, bit-identical to an all-serial run."""
        serial = SweepRunner(cluster).evaluate(grid)
        registry = get_metrics()
        registry.enable()
        try:
            before = _counter_value(registry, "pool.broken")
            monkeypatch.setattr(
                "repro.sweep.runner._evaluate_chunk", _crashing_evaluate_chunk
            )
            with SweepRunner(cluster, processes=2, chunksize=2) as runner:
                pooled = runner.evaluate(grid)
            broken = _counter_value(registry, "pool.broken") - before
        finally:
            registry.disable()
        assert broken >= 1
        assert [(r.index, r.label, r.total_time_s) for r in pooled] == [
            (r.index, r.label, r.total_time_s) for r in serial
        ]

    def test_simulate_candidates_survives_worker_crash(
        self, cluster, small_ts, monkeypatch
    ):
        """The other acceptance path: replication chunks through the sweep
        pool fall back serially and stay deterministic."""
        from repro.ensemble import EnsembleConfig
        from repro.mapreduce import SkewModel
        from repro.simulator import FailureModel, SimulationConfig

        config = SimulationConfig(
            skew=SkewModel(sigma=0.3), failures=FailureModel(probability=0.05)
        )
        ensemble = EnsembleConfig(
            replications=4, min_replications=4, exemplars=0
        )
        workflows = [
            single_job_workflow(replace(small_ts, num_reducers=r))
            for r in (10, 40)
        ]
        serial = SweepRunner(cluster).simulate_candidates(
            workflows, config=config, ensemble=ensemble
        )
        registry = get_metrics()
        registry.enable()
        try:
            before = _counter_value(registry, "pool.broken")
            monkeypatch.setattr(
                "repro.ensemble.engine._evaluate_items",
                _crashing_evaluate_items,
            )
            with SweepRunner(cluster, processes=2) as runner:
                pooled = runner.simulate_candidates(
                    workflows, config=config, ensemble=ensemble
                )
            broken = _counter_value(registry, "pool.broken") - before
        finally:
            registry.disable()
        assert broken >= 1
        for a, b in zip(serial, pooled):
            assert a.samples == b.samples
            assert a.quantiles == b.quantiles
            assert a.ci == b.ci

    def test_unpicklable_source_warns_and_counts(self, cluster, grid, caplog):
        """Satellite: the silent probe now logs WARNING and increments
        ``pool.serial_fallback``."""

        class Closure:
            def __init__(self):
                self.f = lambda x: x

            def distribution(self, job, kind, delta, concurrent):
                v = self.f(2.0)
                return TaskTimeDistribution(mean=v, median=v, std=0.0, n=0)

        registry = get_metrics()
        registry.enable()
        try:
            before = _counter_value(registry, "pool.serial_fallback")
            runner = SweepRunner(cluster, source=Closure(), processes=2)
            with caplog.at_level("WARNING", logger="repro.service.pool"):
                results = runner.evaluate(grid)
            fallbacks = (
                _counter_value(registry, "pool.serial_fallback") - before
            )
        finally:
            registry.disable()
        assert all(r.ok for r in results)
        assert not runner.report.pool_used
        assert fallbacks == 1
        assert "does not pickle" in caplog.text

    def test_cancel_mid_evaluate(self, cluster, grid):
        polls = []

        def cancel():
            polls.append(1)
            return len(polls) > 2

        with pytest.raises(JobCancelledError):
            SweepRunner(cluster).evaluate(grid, cancel=cancel)
        assert 2 < len(polls) <= len(grid)

    def test_deadline_raises_through_evaluate(self, cluster, grid):
        from repro.service.scheduler import deadline_checker

        expired = deadline_checker(0.0)
        time.sleep(0.005)
        with pytest.raises(JobTimeoutError):
            SweepRunner(cluster).evaluate(grid, cancel=expired)

    def test_cancel_mid_simulate_candidates(self, cluster, small_ts):
        from repro.ensemble import EnsembleConfig

        def cancel():
            return True

        with pytest.raises(JobCancelledError):
            SweepRunner(cluster).simulate_candidates(
                [single_job_workflow(small_ts)],
                ensemble=EnsembleConfig(
                    replications=4, min_replications=4, exemplars=0
                ),
                cancel=cancel,
            )


class TestPruneMetrics:
    """Merge/delta round-trip of the pruning telemetry.

    ``sweep.pruned`` is recorded parent-side (the bound screen runs
    before fan-out), so a pooled sweep must report the exact count of the
    serial sweep after the worker deltas merge — anything else would mean
    a worker double-counted or dropped it.
    """

    PRUNED_KEY = "sweep.pruned{reason=incumbent}"

    def _candidates(self, cluster):
        """Base Q21 + moderate survivors + analytically hopeless extremes."""
        from repro.tuning.knobs import apply_knob_value

        workflow = tpch_query(21)
        job = "q21-scan-lineitem"
        moderate = [("num_reducers", r) for r in (16, 64, 256, 640, 1280)]
        extreme = [
            ("num_reducers", 1),
            ("split_mb", 0.5),
            ("map_memory_mb", 128000.0),
        ]
        candidates = [Candidate(workflow, label="base")]
        for field, value in moderate + extreme:
            candidates.append(
                Candidate(
                    apply_knob_value(workflow, (job, field), value),
                    label=f"{field}={value:g}",
                )
            )
        incumbent = estimate_workflow(workflow, cluster).total_time
        return candidates, incumbent

    def _swept(self, cluster, candidates, incumbent, processes):
        """One pruned sweep with metrics armed; returns (results, snapshot)."""
        registry = get_metrics()
        registry.reset()
        registry.enable()
        try:
            with SweepRunner(
                cluster, prune=True, processes=processes
            ) as runner:
                results = runner.evaluate(
                    candidates, incumbent_time_s=incumbent
                )
            snap = registry.snapshot()
        finally:
            registry.disable()
            registry.reset()
        return results, snap

    def test_pooled_merge_matches_serial(self, cluster):
        candidates, incumbent = self._candidates(cluster)
        serial_results, serial = self._swept(cluster, candidates, incumbent, 1)
        pooled_results, pooled = self._swept(
            cluster, candidates, incumbent, max(2, default_processes())
        )

        # The sweeps themselves are bit-identical (pruned flags included).
        assert [(r.label, r.pruned, r.total_time_s) for r in pooled_results] == [
            (r.label, r.pruned, r.total_time_s) for r in serial_results
        ]
        pruned = sum(1 for r in serial_results if r.pruned)
        assert pruned > 0 and pruned < len(candidates)

        # Counter: exact count, labels intact, identical after pool merge.
        assert serial[self.PRUNED_KEY]["value"] == pruned
        assert serial[self.PRUNED_KEY]["labels"] == {"reason": "incumbent"}
        assert pooled[self.PRUNED_KEY] == serial[self.PRUNED_KEY]

    def test_delta_round_trip(self, cluster):
        """snapshot_delta isolates one sweep's activity from a primed
        registry, and merging that delta into a fresh registry reproduces
        it exactly — the worker->parent propagation contract."""
        candidates, incumbent = self._candidates(cluster)
        _, reference = self._swept(cluster, candidates, incumbent, 1)

        registry = get_metrics()
        registry.reset()
        registry.enable()
        try:
            # Prime with prior activity the delta must subtract away.
            registry.labeled_counter("sweep.pruned", reason="incumbent").inc(5)
            before = registry.snapshot()
            with SweepRunner(cluster, prune=True) as runner:
                runner.evaluate(candidates, incumbent_time_s=incumbent)
            delta = snapshot_delta(registry.snapshot(), before)
        finally:
            registry.disable()
            registry.reset()

        assert delta[self.PRUNED_KEY]["value"] == reference[self.PRUNED_KEY]["value"]

        merged = MetricsRegistry()
        merged.merge(delta)
        image = merged.snapshot()
        assert image[self.PRUNED_KEY]["value"] == delta[self.PRUNED_KEY]["value"]
        assert image[self.PRUNED_KEY]["labels"] == {"reason": "incumbent"}
