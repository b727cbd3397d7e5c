"""Trajectory cache + prefix resume (``repro.core.incremental``).

The headline guarantee: the incremental and batched estimator paths are
**bit-identical** to the cold serial estimator — the cache changes how much
of Algorithm 1's loop is replayed versus recomputed, never its arithmetic.
The parity suite sweeps the whole Table I catalogue under all three
estimator variants; the edge-case tests pin the reuse invariant's
boundaries (changed roots, cluster changes, identical candidates, distinct
sources).
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

import repro.core.estimator as estimator_module
from repro.cluster import paper_cluster
from repro.core.boe import BOEModel
from repro.core.distributions import Variant
from repro.core.estimator import (
    BOESource,
    DagEstimator,
    ScaledSource,
)
from repro.core.incremental import (
    DEFAULT_TRAJECTORY_ENTRIES,
    TrajectoryCache,
    changed_jobs,
    parent_map,
    reusable_prefix,
)
from repro.dag import Workflow
from repro.errors import EstimationError
from repro.mapreduce import MapReduceJob
from repro.obs.metrics import get_metrics
from repro.workloads.catalog import TABLE1
from repro.workloads.tpch import tpch_query

VARIANTS = (Variant.MEAN, Variant.MEDIAN, Variant.NORMAL)


def _assert_bit_identical(actual, expected):
    """Exact equality — no tolerances — of everything the estimate reports."""
    assert actual.workflow_name == expected.workflow_name
    assert actual.total_time == expected.total_time
    assert actual.states == expected.states
    assert actual.stage_spans == expected.stage_spans


def _with_job(workflow: Workflow, job: MapReduceJob) -> Workflow:
    jobs = tuple(job if j.name == job.name else j for j in workflow.jobs)
    return Workflow(name=workflow.name, jobs=jobs, edges=workflow.edges)


def _perturb(workflow: Workflow, name: str) -> Workflow:
    """A one-knob neighbour of the workflow (changed reducer count)."""
    job = workflow.job(name)
    return _with_job(workflow, replace(job, num_reducers=job.num_reducers + 3))


class TestCatalogParity:
    """Batched + incremental paths vs the cold serial estimator, across the
    full workload catalogue and every variant."""

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    @pytest.mark.parametrize("entry", TABLE1, ids=lambda e: e.name)
    def test_bit_identical_to_cold(self, cluster, entry, variant):
        workflow = entry.factory(1.0)
        source = BOESource(BOEModel(cluster))
        cold = DagEstimator(
            cluster, source, variant=variant, batch=False
        ).estimate(workflow)

        batched = DagEstimator(
            cluster, source, variant=variant, batch=True
        ).estimate(workflow)
        _assert_bit_identical(batched, cold)

        cache = TrajectoryCache()
        warm = DagEstimator(
            cluster, source, variant=variant, trajectory_cache=cache, batch=True
        )
        # Donor: a one-knob neighbour, exactly what a sweep evaluates first.
        warm.estimate(_perturb(workflow, workflow.jobs[-1].name))
        resumed = warm.estimate(workflow)
        _assert_bit_identical(resumed, cold)
        # Identical candidate: the whole cached trajectory replays.
        replayed = warm.estimate(workflow)
        _assert_bit_identical(replayed, cold)
        assert cache.stats.full_hits >= 1

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    def test_tpch_deep_chain_resume(self, cluster, variant):
        """The tuner's scenario: a late-stage knob on the deepest TPC-H DAG
        resumes from a long prefix and still matches the cold path."""
        workflow = tpch_query(21)
        source = BOESource(BOEModel(cluster))
        cache = TrajectoryCache()
        warm = DagEstimator(
            cluster, source, variant=variant, trajectory_cache=cache, batch=True
        )
        warm.estimate(workflow)
        candidate = _perturb(workflow, workflow.jobs[-1].name)
        resumed = warm.estimate(candidate)
        cold = DagEstimator(
            cluster, source, variant=variant, batch=False
        ).estimate(candidate)
        _assert_bit_identical(resumed, cold)
        assert cache.stats.hits == 1
        assert cache.stats.states_reused > 0


class TestReuseEdgeCases:
    def test_changed_first_job_reuses_nothing(self, cluster):
        workflow = tpch_query(9)
        source = BOESource(BOEModel(cluster))
        cache = TrajectoryCache()
        warm = DagEstimator(cluster, source, trajectory_cache=cache, batch=True)
        warm.estimate(workflow)

        root = workflow.roots()[0]
        candidate = _perturb(workflow, root)
        result = warm.estimate(candidate)
        # A changed root starts at t = 0: zero reusable prefix, no warm start.
        assert cache.stats.hits == 0
        cold = DagEstimator(cluster, source, batch=False).estimate(candidate)
        _assert_bit_identical(result, cold)

    def test_cluster_change_invalidates(self):
        small, big = paper_cluster(), paper_cluster(workers=20)
        workflow = tpch_query(9)
        source = BOESource(BOEModel(small))
        cache = TrajectoryCache()
        DagEstimator(small, source, trajectory_cache=cache, batch=True).estimate(
            workflow
        )

        result = DagEstimator(
            big, source, trajectory_cache=cache, batch=True
        ).estimate(workflow)
        # Capacity changes every parallelism grant: no state is reusable.
        assert cache.stats.hits == 0
        cold = DagEstimator(big, source, batch=False).estimate(workflow)
        _assert_bit_identical(result, cold)

    def test_identical_candidate_is_a_full_hit(self, cluster):
        workflow = tpch_query(9)
        source = BOESource(BOEModel(cluster))
        cache = TrajectoryCache()
        warm = DagEstimator(cluster, source, trajectory_cache=cache, batch=True)
        first = warm.estimate(workflow)

        # A value-equal but distinct workflow object — the sweep memo's
        # blind spot the trajectory cache must still catch.
        twin = Workflow(
            name=workflow.name, jobs=workflow.jobs, edges=workflow.edges
        )
        again = warm.estimate(twin)
        assert cache.stats.full_hits == 1
        assert cache.stats.states_reused >= len(first.states)
        # It resumes from the final checkpoint: nothing left to iterate.
        assert cache.stats.states_computed == len(first.states)
        _assert_bit_identical(again, first)

    def test_distinct_source_bypasses_but_never_poisons(self, cluster):
        workflow = tpch_query(9)
        base = BOESource(BOEModel(cluster))
        cache = TrajectoryCache()
        DagEstimator(cluster, base, trajectory_cache=cache, batch=True).estimate(
            workflow
        )

        # Failure injection stretches every task time; its trajectory must
        # start cold even though the workflow and cluster match.
        injected = ScaledSource(base, 1.25)
        warm = DagEstimator(
            cluster, injected, trajectory_cache=cache, batch=True
        ).estimate(workflow)
        assert cache.stats.hits == 0
        cold = DagEstimator(cluster, injected, batch=False).estimate(workflow)
        _assert_bit_identical(warm, cold)

        # And the injected run's entry must never serve the base source.
        clean = DagEstimator(
            cluster, base, trajectory_cache=cache, batch=True
        ).estimate(workflow)
        base_cold = DagEstimator(cluster, base, batch=False).estimate(workflow)
        _assert_bit_identical(clean, base_cold)

    def test_progress_resume_skips_the_cache(self, cluster):
        """Mid-flight progress estimation (``initial=...``) is a different
        question than a fresh run: it must neither consult nor record."""
        from repro.core.state import WorkflowProgress

        workflow = tpch_query(9)
        source = BOESource(BOEModel(cluster))
        cache = TrajectoryCache()
        warm = DagEstimator(cluster, source, trajectory_cache=cache, batch=True)
        warm.estimate(workflow)
        lookups_before = cache.stats.lookups

        progress = WorkflowProgress(
            completed_jobs=frozenset(),
            running={workflow.roots()[0]: (workflow.jobs[0].stages()[0], 5.0)},
        )
        warm.estimate(workflow, initial=progress)
        assert cache.stats.lookups == lookups_before
        assert len(cache) == 1


class TestExhaustionDiagnostics:
    def test_exhaustion_names_the_running_set(self, cluster, monkeypatch):
        monkeypatch.setattr(estimator_module, "_MAX_ITERATIONS", 2)
        workflow = tpch_query(9)  # needs far more than 2 states
        source = BOESource(BOEModel(cluster))
        with pytest.raises(EstimationError) as err:
            DagEstimator(cluster, source).estimate(workflow)
        message = str(err.value)
        assert "did not converge" in message
        assert workflow.name in message
        # The last state's running set, with per-stage progress.
        assert "tasks left" in message
        assert "Delta=" in message
        assert "/map" in message or "/reduce" in message

    def test_zero_progress_workflow_reports_cleanly(self, cluster, monkeypatch):
        """A stage whose remaining work never drains (pathological source)
        must exhaust the bound with a diagnostic, not loop forever."""

        class _FrozenClock:
            """Yields enormous task times so completions stop advancing
            the workflow within any reasonable state budget."""

            def distribution(self, job, kind, delta, concurrent):
                from repro.core.distributions import TaskTimeDistribution

                return TaskTimeDistribution.point(1e308)

        monkeypatch.setattr(estimator_module, "_MAX_ITERATIONS", 3)
        workflow = tpch_query(9)
        with pytest.raises(EstimationError, match="still running"):
            DagEstimator(cluster, _FrozenClock()).estimate(workflow)


class TestTrajectoryCacheBounds:
    def test_lru_eviction_counted(self, cluster):
        cache = TrajectoryCache(max_entries=2)
        source = BOESource(BOEModel(cluster))
        warm = DagEstimator(cluster, source, trajectory_cache=cache, batch=True)
        flows = [tpch_query(q) for q in (2, 9, 16)]
        for flow in flows:
            warm.estimate(flow)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert not cache.contains(flows[0], cluster)
        assert cache.contains(flows[-1], cluster)

    def test_contains_pins_most_recently_used(self, cluster):
        cache = TrajectoryCache(max_entries=2)
        source = BOESource(BOEModel(cluster))
        warm = DagEstimator(cluster, source, trajectory_cache=cache, batch=True)
        first, second, third = (tpch_query(q) for q in (2, 9, 16))
        warm.estimate(first)
        warm.estimate(second)
        assert cache.contains(first, cluster)  # pins `first` as MRU
        warm.estimate(third)  # evicts `second`, not `first`
        assert cache.contains(first, cluster)
        assert not cache.contains(second, cluster)

    def test_bound_validated(self):
        with pytest.raises(EstimationError):
            TrajectoryCache(max_entries=0)

    def test_default_bound(self):
        assert DEFAULT_TRAJECTORY_ENTRIES == 16
        assert TrajectoryCache()._max_entries == DEFAULT_TRAJECTORY_ENTRIES


class TestDiffing:
    def _chain(self, *reducers):
        jobs = tuple(
            MapReduceJob(name=f"j{i}", input_mb=1000.0, num_reducers=r)
            for i, r in enumerate(reducers)
        )
        edges = frozenset(
            (f"j{i}", f"j{i + 1}") for i in range(len(reducers) - 1)
        )
        return Workflow(name="chain", jobs=jobs, edges=edges)

    def test_changed_jobs_by_value_and_identity(self):
        a = self._chain(4, 8, 16)
        b = _perturb(a, "j1")
        diff = changed_jobs(a, parent_map(a), b, parent_map(b))
        assert diff == {"j1"}
        # Equal-by-value rebuild (distinct objects) is not a change.
        twin = Workflow(
            name=a.name,
            jobs=tuple(replace(j) for j in a.jobs),
            edges=a.edges,
        )
        assert changed_jobs(a, parent_map(a), twin, parent_map(twin)) == frozenset()

    def test_edge_change_marks_the_child(self):
        a = self._chain(4, 8, 16)
        b = Workflow(
            name=a.name, jobs=a.jobs, edges=frozenset({("j0", "j2")})
        )
        diff = changed_jobs(a, parent_map(a), b, parent_map(b))
        assert "j1" in diff and "j2" in diff and "j0" not in diff

    def test_added_and_removed_jobs_count_as_changed(self):
        a = self._chain(4, 8)
        extra = MapReduceJob(name="j9", input_mb=500.0, num_reducers=2)
        b = Workflow(name=a.name, jobs=(*a.jobs, extra), edges=a.edges)
        assert "j9" in changed_jobs(a, parent_map(a), b, parent_map(b))
        assert "j9" in changed_jobs(b, parent_map(b), a, parent_map(a))

    def test_reusable_prefix_monotone(self, cluster):
        workflow = tpch_query(21)
        source = BOESource(BOEModel(cluster))
        cache = TrajectoryCache()
        warm = DagEstimator(cluster, source, trajectory_cache=cache, batch=True)
        warm.estimate(workflow)
        (_, trajectory), = cache._entries.items()

        last = workflow.jobs[-1].name
        candidate = _perturb(workflow, last)
        parents = parent_map(candidate)
        prefix = reusable_prefix(
            trajectory, frozenset({last}), candidate, parents
        )
        assert 0 < prefix < len(trajectory.states)
        # Every state up to the prefix must predate the changed job's
        # arrival; the one after must not.
        assert last not in {
            name for name, _, *_ in trajectory.checkpoints[prefix - 1].running
        }
        assert not changed_jobs(
            workflow, trajectory.parents, candidate, parents
        ) - {last}


class TestHashPinsAndPickle:
    def test_workflow_pickle_strips_pins_and_memo(self):
        workflow = tpch_query(9)
        hash(workflow)
        workflow.job_map  # populate the structure memo
        clone = pickle.loads(pickle.dumps(workflow))
        assert "_hash_pin" not in clone.__dict__
        assert "_memo" not in clone.__dict__
        assert clone == workflow
        assert hash(clone) == hash(workflow)  # re-derived, not shipped

    def test_job_pickle_strips_pin(self):
        job = tpch_query(9).jobs[0]
        hash(job)
        assert "_hash_pin" in job.__dict__
        clone = pickle.loads(pickle.dumps(job))
        assert "_hash_pin" not in clone.__dict__
        assert clone == job
        assert hash(clone) == hash(job)  # re-derived, not shipped


class TestObsCounters:
    def test_prefix_and_batch_counters(self, cluster):
        metrics = get_metrics()
        metrics.enable()
        try:
            metrics.reset()
            source = BOESource(BOEModel(cluster))
            cache = TrajectoryCache()
            warm = DagEstimator(
                cluster, source, trajectory_cache=cache, batch=True
            )
            workflow = tpch_query(21)
            warm.estimate(workflow)
            warm.estimate(_perturb(workflow, workflow.jobs[-1].name))
            reused = metrics.counter("estimator.prefix_states_reused").value
            assert reused == cache.stats.states_reused > 0
            assert metrics.counter("boe.batch_points").value > 0
        finally:
            metrics.reset()
            metrics.disable()
