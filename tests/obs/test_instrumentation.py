"""End-to-end instrumentation: the hooks record, and never perturb results."""

import pytest

from repro.cluster import paper_cluster
from repro.core import BOEModel, BOESource, DagEstimator
from repro.dag import single_job_workflow
from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer
from repro.obs.metrics import set_metrics
from repro.obs.tracer import set_tracer
from repro.simulator import simulate
from repro.sweep import Candidate, SweepRunner
from repro.tuning import GreedyTuner
from repro.units import gb
from repro.workloads import terasort, wordcount


@pytest.fixture
def cluster():
    return paper_cluster()


@pytest.fixture
def workflow():
    return single_job_workflow(wordcount(gb(3)))


def _armed():
    set_tracer(Tracer(enabled=True))
    set_metrics(MetricsRegistry(enabled=True))
    return get_tracer(), get_metrics()


class TestSimulatorInstrumentation:
    def test_disabled_records_nothing(self, workflow, cluster):
        simulate(workflow, cluster)
        assert get_tracer().span_count == 0
        assert get_metrics().snapshot() == {}

    def test_enabled_records_run_and_state_spans(self, workflow, cluster):
        tracer, _ = _armed()
        result = simulate(workflow, cluster)
        names = [s.name for s in tracer.snapshot()]
        assert names.count("sim.run") == 1
        assert names.count("sim.state") == len(result.states)
        run = next(s for s in tracer.snapshot() if s.name == "sim.run")
        assert run.attrs["makespan_s"] == result.makespan
        assert run.attrs["tasks"] == len(result.tasks)

    def test_enabled_counters_match_trace(self, workflow, cluster):
        _, metrics = _armed()
        result = simulate(workflow, cluster)
        snap = metrics.snapshot()
        assert snap["sim.tasks_launched"]["value"] == len(result.tasks)
        assert snap["sim.scheduler_decisions"]["value"] >= len(result.tasks)
        assert snap["sim.events"]["value"] > 0
        assert snap["sim.node_solves"]["value"] > 0
        assert snap["sim.state_duration_s"]["count"] == len(result.states)

    def test_instrumentation_does_not_perturb_makespan(self, workflow, cluster):
        baseline = simulate(workflow, cluster)
        _armed()
        traced = simulate(workflow, cluster)
        assert traced.makespan == baseline.makespan  # bit-identical
        assert [t.t_end for t in traced.tasks] == [t.t_end for t in baseline.tasks]

    def test_reference_engine_also_instrumented(self, workflow, cluster):
        from repro.simulator import SimulationConfig

        tracer, metrics = _armed()
        simulate(workflow, cluster, SimulationConfig(engine="reference"))
        assert any(s.name == "sim.run" for s in tracer.snapshot())
        assert metrics.snapshot()["sim.tasks_launched"]["value"] > 0


class TestColumnarInstrumentation:
    """An armed columnar ``simulate``: the instruments behind the ledger's
    ``simulator.phase_s.*`` rows record, and the trace stays bit-identical."""

    PHASES = ("pop", "solve", "launch", "bookkeep")

    def test_armed_run_records_once_and_keeps_the_trace(
        self, workflow, cluster, monkeypatch
    ):
        from repro.simulator import SimulationConfig, Simulator

        config = SimulationConfig(engine="columnar")
        baseline = simulate(workflow, cluster, config)
        built = []
        init = Simulator.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "__init__", counting_init)
        tracer, metrics = _armed()
        traced = simulate(workflow, cluster, config)

        assert built == ["ColumnarSimulator"]  # one simulator per run
        runs = [s for s in tracer.snapshot() if s.name == "sim.run"]
        assert len(runs) == 1
        assert runs[0].attrs["engine"] == "columnar"
        assert runs[0].attrs["makespan_s"] == traced.makespan
        assert runs[0].attrs["tasks"] == traced.task_count
        snap = metrics.snapshot()
        for phase in self.PHASES:
            assert snap[f"engine.phase_time{{phase={phase}}}"]["count"] == 1
        cohorts = snap["engine.cohort_size"]
        assert cohorts["count"] > 0
        assert cohorts["sum"] == snap["sim.deadline_fires"]["value"]
        assert traced.makespan == baseline.makespan  # bit-identical
        assert [t.t_end for t in traced.tasks] == [
            t.t_end for t in baseline.tasks
        ]


class TestEstimatorInstrumentation:
    def test_spans_and_counters(self, workflow, cluster):
        tracer, metrics = _armed()
        estimate = DagEstimator(cluster, BOESource(BOEModel(cluster))).estimate(
            workflow
        )
        spans = tracer.snapshot()
        names = [s.name for s in spans]
        assert names.count("est.run") == 1
        assert names.count("est.state") == len(estimate.states)
        iter_span = next(s for s in spans if s.name == "est.state")
        assert "finishing" in iter_span.attrs and "dt" in iter_span.attrs
        snap = metrics.snapshot()
        assert snap["est.iterations"]["value"] == len(estimate.states)
        # The BOE cache was exercised underneath.
        assert snap["boe.cache.misses"]["value"] > 0
        assert snap["boe.system_solves"]["value"] > 0

    def test_estimate_unchanged_by_instrumentation(self, workflow, cluster):
        baseline = DagEstimator(cluster, BOESource(BOEModel(cluster))).estimate(
            workflow
        )
        _armed()
        traced = DagEstimator(cluster, BOESource(BOEModel(cluster))).estimate(
            workflow
        )
        assert traced.total_time == baseline.total_time

    def test_boe_cache_hits_counted(self, cluster):
        _, metrics = _armed()
        model = BOEModel(cluster)
        from repro.mapreduce import StageKind

        job = wordcount(gb(1))
        model.task_time(job, StageKind.MAP, 4.0)
        model.task_time(job, StageKind.MAP, 4.0)  # identical -> cache hit
        snap = metrics.snapshot()
        assert snap["boe.cache.hits"]["value"] >= 1
        assert snap["boe.cache.misses"]["value"] >= 1

    def test_unconverged_solves_counted(self, cluster, small_ts):
        """A staggered system needs the fixed point; one round cannot
        converge it, and the counter says so without moving the result."""
        from repro.mapreduce import StageKind

        quiet = BOEModel(cluster, max_refine_iter=1, cache=False)
        baseline = quiet.task_time(small_ts, StageKind.MAP, 4.0)
        _, metrics = _armed()
        model = BOEModel(cluster, max_refine_iter=1, cache=False)
        assert model.task_time(small_ts, StageKind.MAP, 4.0) == baseline
        assert metrics.snapshot()["boe.unconverged"]["value"] == 1
        # A one-wave plain-BOE system needs no iteration: not counted.
        model.task_time(small_ts, StageKind.MAP, 40.0)
        # Nor does a staggered one that converges within the budget.
        BOEModel(cluster, cache=False).task_time(small_ts, StageKind.MAP, 4.0)
        assert metrics.snapshot()["boe.unconverged"]["value"] == 1


class TestSweepAndTunerInstrumentation:
    def test_sweep_batch_spans(self, cluster):
        tracer, _ = _armed()
        runner = SweepRunner(cluster)
        candidates = [
            Candidate(single_job_workflow(terasort(gb(s))), label=f"ts-{s}")
            for s in (1, 2)
        ]
        results = runner.evaluate(candidates)
        assert all(r.ok for r in results)
        [batch] = [s for s in tracer.snapshot() if s.name == "sweep.batch"]
        assert batch.attrs["candidates"] == 2

    def test_parallel_sweep_merges_worker_metrics(self, cluster):
        _, metrics = _armed()
        runner = SweepRunner(cluster, processes=2)
        candidates = [
            Candidate(single_job_workflow(terasort(gb(s))), label=f"ts-{s}")
            for s in (1, 2, 3, 4)
        ]
        results = runner.evaluate(candidates)
        assert all(r.ok for r in results)
        snap = metrics.snapshot()
        # Worker-side BOE activity travelled back through the pool.
        assert snap.get("boe.system_solves", {}).get("value", 0) > 0

    def test_tuner_spans(self, cluster):
        tracer, _ = _armed()
        result = GreedyTuner(cluster).tune(
            single_job_workflow(terasort(gb(2)))
        )
        spans = tracer.snapshot()
        names = [s.name for s in spans]
        assert names.count("tune.run") == 1
        assert names.count("tune.pass") >= 1
        assert names.count("tune.knob") >= 1
        run = next(s for s in spans if s.name == "tune.run")
        assert run.attrs["evaluations"] == result.evaluations
