"""Cache-correctness tests for the memoised BOE model.

The contract under test: memoisation may only change *when* arithmetic
happens, never its result.  Keys are taken from call-time values, so a
changed or mutated input can never be served a stale entry, and a hit is
bit-for-bit identical to what the cold path would compute.
"""

from dataclasses import replace

import pytest

from repro.core import boe
from repro.core.allocation import StageLoad, resource_users
from repro.core.boe import BOEModel
from repro.core.estimator import BOESource, DagEstimator
from repro.core.memo import DEFAULT_CACHE_ENTRIES
from repro.mapreduce import StageKind
from repro.mapreduce.phases import build_task_substages
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.workloads import table3_workflows
from repro.workloads.catalog import catalog


class TestTaskTimeCache:
    def test_cached_equals_uncached_bit_identical(self, cluster, small_ts, small_wc):
        cached = BOEModel(cluster)
        cold = BOEModel(cluster, cache=False)
        concurrent = [(small_wc, StageKind.MAP, 20.0)]
        for kind in (StageKind.MAP, StageKind.REDUCE):
            for _ in range(2):  # second round exercises the hit path
                a = cached.task_time(small_ts, kind, 40.0, concurrent)
                b = cold.task_time(small_ts, kind, 40.0, concurrent)
                assert a == b  # frozen dataclasses compare field by field
        assert cached.cache_stats.hits > 0
        assert cold.cache_stats.lookups == 0

    def test_repeat_call_served_from_cache(self, cluster, small_ts):
        """A repeated query is one structural hit: no second system solve,
        and an equal estimate."""
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            model = BOEModel(cluster)
            first = model.task_time(small_ts, StageKind.MAP, 40.0)
            again = model.task_time(small_ts, StageKind.MAP, 40.0)
        finally:
            set_metrics(previous)
        assert again == first
        assert model.cache_stats.hits == 1
        assert model.cache_stats.misses == 1
        assert registry.snapshot()["boe.system_solves"]["value"] == 1

    def test_affecting_knob_misses(self, cluster, small_ts):
        model = BOEModel(cluster)
        base = model.task_time(small_ts, StageKind.MAP, 40.0)
        misses_before = model.cache_stats.misses
        # Halving the split doubles the map task count and halves per-task
        # input — the map pipeline changes, so the lookup must miss and the
        # fresh result must differ.
        smaller = small_ts.with_config(split_mb=small_ts.config.split_mb / 2)
        other = model.task_time(smaller, StageKind.MAP, 40.0)
        assert model.cache_stats.misses == misses_before + 1
        assert other.duration != base.duration
        assert other == BOEModel(cluster, cache=False).task_time(
            smaller, StageKind.MAP, 40.0
        )

    def test_irrelevant_knob_hits_and_stays_correct(self, cluster, small_ts):
        model = BOEModel(cluster)
        base = model.task_time(small_ts, StageKind.MAP, 40.0)
        hits_before = model.cache_stats.hits
        # The reducer count does not touch the map pipeline: the solved
        # sub-stage structure is shared, only the job label differs.
        retuned = replace(small_ts, num_reducers=small_ts.num_reducers * 2)
        other = model.task_time(retuned, StageKind.MAP, 40.0)
        assert model.cache_stats.hits == hits_before + 1
        assert other.substages == base.substages
        assert other == BOEModel(cluster, cache=False).task_time(
            retuned, StageKind.MAP, 40.0
        )

    def test_changed_job_never_served_stale(self, cluster, small_ts):
        model = BOEModel(cluster)
        before = model.task_time(small_ts, StageKind.MAP, 40.0)
        # Jobs are changed by deriving a copy (`replace`), never in place —
        # hashes are pinned per frozen instance, so the derived copy is a
        # distinct key and must re-solve, not hit the original's entry.
        bigger = replace(small_ts, input_mb=small_ts.input_mb * 4)
        after = model.task_time(bigger, StageKind.MAP, 40.0)
        assert after.duration != before.duration
        assert after == BOEModel(cluster, cache=False).task_time(
            bigger, StageKind.MAP, 40.0
        )

    def test_concurrent_signature_is_part_of_the_key(
        self, cluster, small_ts, small_wc
    ):
        model = BOEModel(cluster)
        alone = model.task_time(small_ts, StageKind.MAP, 20.0)
        contended = model.task_time(
            small_ts, StageKind.MAP, 20.0, [(small_wc, StageKind.MAP, 20.0)]
        )
        assert contended.duration > alone.duration

    def test_eviction_is_counted(self, cluster, small_ts, monkeypatch):
        monkeypatch.setattr(boe, "DEFAULT_CACHE_ENTRIES", 2)
        model = BOEModel(cluster)
        for delta in (4.0, 8.0, 16.0, 32.0):
            model.task_time(small_ts, StageKind.MAP, delta)
        assert model.cache_stats.evictions > 0

    def test_clear_cache_forgets_but_keeps_the_ledger(self, cluster, small_ts):
        model = BOEModel(cluster)
        model.task_time(small_ts, StageKind.MAP, 40.0)
        model.clear_cache()
        model.task_time(small_ts, StageKind.MAP, 40.0)
        assert model.cache_stats.hits == 0
        assert model.cache_stats.misses == 2

    def test_disabled_cache_never_counts(self, cluster, small_ts):
        model = BOEModel(cluster, cache=False)
        model.task_time(small_ts, StageKind.MAP, 40.0)
        model.task_time(small_ts, StageKind.MAP, 40.0)
        assert model.cache_stats.lookups == 0


class TestPipelineMemo:
    """Compiled (job, kind) pipelines live as long as a cached model,
    LRU-bounded by ``DEFAULT_CACHE_ENTRIES``; an uncached model keeps them
    for one batch."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Every (job, kind) the model decomposes, in call order."""
        calls = []
        build = boe.build_task_substages

        def counting(job, kind, **kwargs):
            calls.append((job.name, kind))
            return build(job, kind, **kwargs)

        monkeypatch.setattr(boe, "build_task_substages", counting)
        return calls

    @pytest.mark.parametrize("refine", (False, True))
    def test_cached_estimates_equal_uncached(self, cluster, refine):
        """One cached model shared by the catalogue and Table III @0.05
        estimates every workflow bit-identically to a fresh uncached one."""
        workflows = [catalog()[name].factory(1.0) for name in sorted(catalog())]
        workflows += list(table3_workflows(0.05).values())
        shared = DagEstimator(cluster, BOESource(BOEModel(cluster, refine=refine)))
        for workflow in workflows:
            got = shared.estimate(workflow)
            want = DagEstimator(
                cluster, BOESource(BOEModel(cluster, refine=refine, cache=False))
            ).estimate(workflow)
            assert got.total_time.hex() == want.total_time.hex(), workflow.name
            assert [s.task_times for s in got.states] == [
                s.task_times for s in want.states
            ], workflow.name

    def test_value_equal_job_hits_changed_knob_misses(self, cluster, small_ts, builds):
        model = BOEModel(cluster)
        model.solve_batch([(small_ts, StageKind.MAP, 40.0, ())])
        assert len(builds) == 1
        # A value-equal rebuild (fresh identity) reuses the compiled
        # pipeline in a later batch, whatever the delta.
        model.solve_batch([(replace(small_ts), StageKind.MAP, 20.0, ())])
        model.task_time(replace(small_ts), StageKind.MAP, 10.0)
        assert len(builds) == 1
        smaller = small_ts.with_config(split_mb=small_ts.config.split_mb / 2)
        model.solve_batch([(smaller, StageKind.MAP, 40.0, ())])
        assert len(builds) == 2

    def test_clear_cache_empties_the_memo(self, cluster, small_ts, builds):
        model = BOEModel(cluster)
        model.solve_batch([(small_ts, StageKind.MAP, 40.0, ())])
        model.clear_cache()
        model.solve_batch([(small_ts, StageKind.MAP, 40.0, ())])
        assert len(builds) == 2

    def test_memo_is_bounded(self, cluster, small_ts, builds, monkeypatch):
        assert BOEModel(cluster)._pipelines.max_entries == DEFAULT_CACHE_ENTRIES
        monkeypatch.setattr(boe, "DEFAULT_CACHE_ENTRIES", 2)
        model = BOEModel(cluster)
        jobs = [replace(small_ts, input_mb=small_ts.input_mb * k) for k in (1, 2, 3)]
        for job in jobs:
            model.solve_batch([(job, StageKind.MAP, 40.0, ())])
            assert len(model._pipelines) <= 2
        # The first job's pipeline was evicted: a new point recompiles it.
        model.solve_batch([(jobs[0], StageKind.MAP, 20.0, ())])
        assert len(builds) == 4

    def test_uncached_model_keeps_pipelines_for_one_batch(
        self, cluster, small_ts, small_wc, builds
    ):
        model = BOEModel(cluster, cache=False)
        point = (small_ts, StageKind.MAP, 40.0, [(small_wc, StageKind.MAP, 20.0)])
        model.solve_batch([point, point])
        assert len(builds) == 2  # ts and wc, once each within the batch
        model.solve_batch([point])
        assert len(builds) == 4


class TestRefineHoist:
    def test_refined_substage_time_matches_reference(
        self, cluster, small_ts, small_wc
    ):
        """The hoisted refine loop must reproduce the reference iteration
        (users map recomputed for every load) exactly — the users map never
        depended on which load was being re-evaluated."""
        model = BOEModel(cluster, refine=True)
        ts_subs = build_task_substages(small_ts, StageKind.MAP)
        wc_subs = build_task_substages(small_wc, StageKind.MAP)
        target = StageLoad("ts", ts_subs[0], 40.0)
        concurrent = [StageLoad("wc", wc_subs[0], 40.0)]

        def reference(target, concurrent):
            loads = [target, *concurrent]
            estimate = model._evaluate(
                target.substage, resource_users(loads, cluster)
            )
            previous = estimate.duration
            current_util = None
            for _ in range(model._max_iter):
                new_util = {}
                for load in loads:
                    users = resource_users(loads, cluster, current_util)
                    sub_est = model._evaluate(load.substage, users)
                    new_util[load.name] = {
                        op.resource: max(op.utilisation, 1e-3)
                        for op in sub_est.ops
                    }
                estimate = model._evaluate(
                    target.substage, resource_users(loads, cluster, new_util)
                )
                current_util = new_util
                if abs(estimate.duration - previous) <= 1e-6 * max(
                    previous, 1e-9
                ):
                    break
                previous = estimate.duration
            return estimate

        assert model.substage_time(target, concurrent) == reference(
            target, concurrent
        )
        # And with the roles swapped, for a second fixed point.
        swapped = StageLoad("wc", wc_subs[0], 40.0)
        assert model.substage_time(swapped, [target]) == reference(
            swapped, [target]
        )
