"""Tests for the replication-ensemble engine (determinism contract and all)."""

import random
from dataclasses import FrozenInstanceError

import pytest

from repro.cluster import paper_cluster
from repro.dag import single_job_workflow
from repro.ensemble import (
    EnsembleConfig,
    VariantSpec,
    run_ensemble,
    run_replication,
)
from repro.ensemble.compare import compare_paired
from repro.ensemble.engine import _Accumulator
from repro.errors import JobAbortedError, SpecificationError
from repro.obs.metrics import get_metrics
from repro.simulator import (
    FailureModel,
    SimulationConfig,
    replication_seeds,
    simulate,
)
from repro.mapreduce import SkewModel
from repro.units import gb
from repro.workloads import terasort, weblog_dag


@pytest.fixture
def workflow():
    return single_job_workflow(terasort(gb(2)))


@pytest.fixture
def config():
    """Both noise sources armed — the regime ensembles exist for."""
    return SimulationConfig(
        skew=SkewModel(sigma=0.3),
        failures=FailureModel(probability=0.05),
    )


def _aggregates(result):
    """Every field covered by the determinism contract."""
    return (
        result.samples,
        result.quantiles,
        result.ci,
        result.makespan,
        result.failed_attempts,
        result.state_durations,
        result.replications,
        result.early_stopped,
    )


class TestSeeding:
    def test_pure_function_of_base_and_index(self):
        assert replication_seeds(42, 3) == replication_seeds(42, 3)

    def test_distinct_across_indices_and_bases(self):
        seeds = {replication_seeds(42, i) for i in range(100)}
        assert len(seeds) == 100
        assert replication_seeds(43, 0) != replication_seeds(42, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(SpecificationError):
            replication_seeds(42, -1)


class TestEnsembleConfig:
    def test_round_targets_cover_the_budget(self):
        cfg = EnsembleConfig(replications=20, min_replications=8, round_size=4)
        assert cfg.round_targets() == [8, 12, 16, 20]

    def test_round_targets_default_step(self):
        cfg = EnsembleConfig(replications=24, min_replications=8)
        assert cfg.round_targets() == [8, 16, 24]

    def test_round_targets_single_round(self):
        cfg = EnsembleConfig(replications=4, min_replications=4)
        assert cfg.round_targets() == [4]

    def test_target_quantile_always_tracked(self):
        cfg = EnsembleConfig(target_quantile=0.9)
        assert 0.9 in cfg.tracked_quantiles()
        assert EnsembleConfig().tracked_quantiles() == (0.5, 0.95, 0.99)

    def test_validation(self):
        with pytest.raises(SpecificationError):
            EnsembleConfig(replications=0)
        with pytest.raises(SpecificationError):
            EnsembleConfig(replications=4, min_replications=8)
        with pytest.raises(SpecificationError):
            EnsembleConfig(target_quantile=1.0)
        with pytest.raises(SpecificationError):
            EnsembleConfig(ci_tol=0.0)
        with pytest.raises(SpecificationError):
            EnsembleConfig(exemplars=-1)
        with pytest.raises(SpecificationError):
            EnsembleConfig(processes=0)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            EnsembleConfig().replications = 2


class TestReplications:
    def test_replications_vary_and_reproduce(self, cluster, workflow, config):
        cfg = EnsembleConfig(replications=6, min_replications=6, exemplars=0)
        a = run_ensemble(workflow, cluster, config, cfg)
        b = run_ensemble(workflow, cluster, config, cfg)
        assert _aggregates(a) == _aggregates(b)
        # The noise actually spreads the makespans.
        assert len(set(a.samples)) > 1
        assert a.makespan["std"] > 0

    def test_record_matches_direct_simulation(self, cluster, workflow, config):
        """A replication is exactly one reseeded simulator run."""
        variant = VariantSpec(workflow, cluster, config)
        record, trace = run_replication(variant, 42, 2, keep_trace=True)
        skew_seed, failure_seed = replication_seeds(42, 2)
        assert (record.skew_seed, record.failure_seed) == (skew_seed, failure_seed)
        from dataclasses import replace

        direct = simulate(
            workflow,
            cluster,
            replace(
                config,
                skew=replace(config.skew, seed=skew_seed),
                failures=replace(config.failures, seed=failure_seed),
            ),
        )
        assert record.makespan == direct.makespan == trace.makespan
        assert record.failed_attempts == len(direct.failed_attempts)
        assert record.state_durations == tuple(
            s.duration for s in direct.states
        )

    def test_replications_honour_the_configured_engine(
        self, cluster, workflow, config
    ):
        """Each replication runs the engine its config names: the default
        loop stays the default, an explicit ``columnar`` runs columnar, and
        fast, columnar and reference agree on the makespan."""
        from dataclasses import replace

        from repro.simulator import ColumnarResult, SimulationResult

        traces = {}
        for engine in ("fast", "columnar", "reference"):
            _, traces[engine] = run_replication(
                VariantSpec(workflow, cluster, replace(config, engine=engine)),
                42,
                0,
                keep_trace=True,
            )
        _, default = run_replication(
            VariantSpec(workflow, cluster, config), 42, 0, keep_trace=True
        )
        assert type(default) is SimulationResult
        assert isinstance(traces["columnar"], ColumnarResult)
        assert (
            default.makespan
            == traces["fast"].makespan
            == traces["columnar"].makespan
            == traces["reference"].makespan
        )


class TestAbortedReplications:
    """A replication whose job aborts is counted, not fatal: it used to
    end the whole ensemble."""

    @pytest.fixture
    def fragile(self):
        """One attempt per task, so any injected failure aborts the job:
        two of the first eight replications abort, replication 0 among
        them."""
        return SimulationConfig(
            skew=SkewModel(sigma=0.3),
            failures=FailureModel(probability=0.01, max_attempts=1),
        )

    def test_counted_and_left_out_of_the_aggregates(self, cluster, workflow, fragile):
        variant = VariantSpec(workflow, cluster, fragile)
        records = [run_replication(variant, 42, i, False)[0] for i in range(8)]
        result = run_ensemble(
            workflow, cluster, fragile,
            EnsembleConfig(replications=8, min_replications=8),
        )
        assert (result.replications, result.aborted) == (8, 2)
        assert records[0].aborted is not None
        assert result.exemplars == ()
        assert result.samples == tuple(
            r.makespan for r in records if r.aborted is None
        )
        assert "2 aborted" in result.describe()

    def test_pooled_matches_serial(self, cluster, workflow, fragile):
        results = [
            run_ensemble(
                workflow, cluster, fragile,
                EnsembleConfig(replications=8, min_replications=8, processes=n),
            )
            for n in (1, 2)
        ]
        assert _aggregates(results[0]) == _aggregates(results[1])
        assert results[0].aborted == results[1].aborted == 2

    def test_paired_drops_the_whole_pair(self, cluster, workflow, fragile):
        comparison = compare_paired(
            workflow, workflow, cluster, cluster_b=paper_cluster(12),
            config=fragile,
            ensemble=EnsembleConfig(replications=8, min_replications=8),
        )
        assert comparison.aborted >= 2
        assert len(comparison.samples_a) == len(comparison.samples_b)
        assert comparison.replications == 8 - comparison.aborted

    def test_every_replication_aborted_raises(self, cluster, workflow):
        doomed = SimulationConfig(
            failures=FailureModel(probability=0.5, max_attempts=1)
        )
        with pytest.raises(JobAbortedError, match="all 3 replications aborted"):
            run_ensemble(
                workflow, cluster, doomed,
                EnsembleConfig(replications=3, min_replications=3),
            )


class TestDeterminismContract:
    def test_pooled_matches_serial_bit_identical(self, cluster, workflow, config):
        """The acceptance criterion: (base_seed, n) fixes every aggregate
        regardless of process count or chunking."""
        serial = run_ensemble(
            workflow, cluster, config,
            EnsembleConfig(replications=8, exemplars=0),
        )
        for processes, chunksize in ((2, None), (2, 1), (3, 2)):
            pooled = run_ensemble(
                workflow, cluster, config,
                EnsembleConfig(
                    replications=8, exemplars=0,
                    processes=processes, chunksize=chunksize,
                ),
            )
            assert pooled.pool_used
            assert _aggregates(pooled) == _aggregates(serial)

    def test_accumulator_is_chunk_order_invariant(self, cluster, workflow, config):
        """Records fed in any arrival order give bit-identical aggregates —
        the reorder buffer in isolation."""
        variant = VariantSpec(workflow, cluster, config)
        records = [
            run_replication(variant, 42, i, keep_trace=False)[0]
            for i in range(10)
        ]

        def fold(order):
            acc = _Accumulator((0.5, 0.95, 0.99))
            for i in order:
                acc.add(records[i], None)
            assert acc.settled()
            return (
                tuple(acc.samples),
                acc.quantiles(),
                acc.makespan.snapshot(),
                acc.target_ci(0.95, 1.96),
            )

        reference = fold(range(10))
        assert fold(reversed(range(10))) == reference
        shuffled = list(range(10))
        random.Random(7).shuffle(shuffled)
        assert fold(shuffled) == reference

    def test_unsettled_accumulator_detected(self, cluster, workflow, config):
        variant = VariantSpec(workflow, cluster, config)
        record, _ = run_replication(variant, 42, 5, keep_trace=False)
        acc = _Accumulator((0.5,))
        acc.add(record, None)
        assert not acc.settled()
        assert acc.count == 0


class TestEarlyStopping:
    def test_beats_hard_max_on_weblog(self, cluster):
        """The acceptance scenario: a CI tolerance saves most of the
        64-replication budget on the paper's weblog DAG."""
        config = SimulationConfig(
            skew=SkewModel(sigma=0.3),
            failures=FailureModel(probability=0.05),
        )
        cfg = EnsembleConfig(
            replications=64, min_replications=8, ci_tol=0.10, exemplars=0
        )
        result = run_ensemble(weblog_dag(input_mb=gb(5)), cluster, config, cfg)
        assert result.early_stopped
        assert cfg.min_replications <= result.replications < cfg.replications
        # The tolerance was actually met at the stopping point.
        assert result.ci_rel_halfwidth <= 0.10

    def test_no_tolerance_runs_full_budget(self, cluster, workflow, config):
        result = run_ensemble(
            workflow, cluster, config,
            EnsembleConfig(replications=6, min_replications=2, exemplars=0),
        )
        assert not result.early_stopped
        assert result.replications == 6

    def test_stop_point_is_machine_independent(self, cluster, workflow, config):
        """Early stopping decides on round boundaries fixed by the config,
        so a pooled run stops at the same count as a serial one."""
        base = dict(
            replications=24, min_replications=4, round_size=4,
            ci_tol=0.5, exemplars=0,
        )
        serial = run_ensemble(
            workflow, cluster, config, EnsembleConfig(**base)
        )
        pooled = run_ensemble(
            workflow, cluster, config, EnsembleConfig(**base, processes=2)
        )
        assert serial.replications == pooled.replications
        assert _aggregates(serial) == _aggregates(pooled)


class TestExemplars:
    def test_prefix_traces_retained(self, cluster, workflow, config):
        result = run_ensemble(
            workflow, cluster, config,
            EnsembleConfig(replications=5, min_replications=5, exemplars=2),
        )
        assert len(result.exemplars) == 2
        # Exemplar k is replication k: its makespan is the k-th sample.
        for k, trace in enumerate(result.exemplars):
            assert trace.makespan == result.samples[k]
            assert trace.tasks  # a full trace, not a record

    def test_zero_exemplars_keep_nothing(self, cluster, workflow, config):
        result = run_ensemble(
            workflow, cluster, config,
            EnsembleConfig(replications=3, min_replications=3, exemplars=0),
        )
        assert result.exemplars == ()


class TestObservability:
    def test_replication_counter(self, cluster, workflow, config):
        registry = get_metrics()
        registry.enable()
        try:
            before = registry.snapshot().get("ensemble.replications", {})
            run_ensemble(
                workflow, cluster, config,
                EnsembleConfig(replications=4, min_replications=4, exemplars=0),
            )
            after = registry.snapshot()["ensemble.replications"]
            assert after["value"] - before.get("value", 0) == 4
        finally:
            registry.disable()

    def test_describe_mentions_the_counts(self, cluster, workflow, config):
        result = run_ensemble(
            workflow, cluster, config,
            EnsembleConfig(replications=4, min_replications=4, exemplars=0),
        )
        text = result.describe()
        assert "4/4 replications" in text
        assert "p95" in text


class TestResultSurface:
    def test_quantile_method_uses_exact_samples(self, cluster, workflow, config):
        result = run_ensemble(
            workflow, cluster, config,
            EnsembleConfig(replications=6, min_replications=6, exemplars=0),
        )
        assert result.quantile(0.0) == min(result.samples)
        assert result.quantile(1.0) == max(result.samples)
        assert result.ci[0] <= result.ci[1]
        assert result.ci_halfwidth >= 0


# -- PR 7: crash recovery and cancellation -------------------------------------

import os  # noqa: E402

from repro.ensemble.engine import _evaluate_items as _real_evaluate_items  # noqa: E402

#: Captured at import in the parent; forked pool workers inherit it, so a
#: pid mismatch identifies worker processes in the crash rig.
_PARENT_PID = os.getpid()


def _crashing_evaluate_items(setup, items):
    """Dies like an OOM-killed worker in children; real work in the parent."""
    if os.getpid() != _PARENT_PID:
        os._exit(3)
    return _real_evaluate_items(setup, items)


class TestCrashRecovery:
    def test_worker_crash_falls_back_serial_bit_identical(
        self, cluster, workflow, config, monkeypatch
    ):
        """The acceptance criterion: a crashed worker no longer raises out
        of ``EnsembleRunner.run`` — the remaining replications complete
        serially and every aggregate equals the all-serial run."""
        serial = run_ensemble(
            workflow, cluster, config,
            EnsembleConfig(replications=8, exemplars=0),
        )
        registry = get_metrics()
        registry.enable()
        try:
            before = (
                registry.snapshot().get("pool.broken", {}).get("value", 0)
            )
            monkeypatch.setattr(
                "repro.ensemble.engine._evaluate_items",
                _crashing_evaluate_items,
            )
            crashed = run_ensemble(
                workflow, cluster, config,
                EnsembleConfig(replications=8, exemplars=0, processes=2),
            )
            broken = (
                registry.snapshot().get("pool.broken", {}).get("value", 0)
                - before
            )
        finally:
            registry.disable()
        assert broken >= 1
        assert _aggregates(crashed) == _aggregates(serial)

    def test_cancel_mid_run(self, cluster, workflow, config):
        from repro.ensemble.engine import EnsembleRunner
        from repro.errors import JobCancelledError

        runner = EnsembleRunner(
            cluster,
            config=config,
            ensemble=EnsembleConfig(replications=8, exemplars=0),
        )
        with pytest.raises(JobCancelledError):
            runner.run(workflow, cancel=lambda: True)

    def test_deadline_raises_through_run(self, cluster, workflow, config):
        import time

        from repro.ensemble.engine import EnsembleRunner
        from repro.errors import JobTimeoutError
        from repro.service.scheduler import deadline_checker

        expired = deadline_checker(0.0)
        time.sleep(0.005)
        runner = EnsembleRunner(
            cluster,
            config=config,
            ensemble=EnsembleConfig(replications=8, exemplars=0),
        )
        with pytest.raises(JobTimeoutError):
            runner.run(workflow, cancel=expired)
