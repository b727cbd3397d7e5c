"""Fast-engine / reference-engine trace parity.

The fast event loop (completion-time heap, lazily materialised progress,
equivalence-class sharing) must be an *optimisation*, not a different model:
for every workload it has to produce the same trace as the historical
rescan-everything loop — same placements, same sub-stage structure, and
timings equal up to the reference solver's own convergence slop (its
Gauss-Seidel stops at ~1e-10 relative, so event times carry a deterministic
~1e-10-relative noise floor that no exact solver can reproduce bit-for-bit).

These tests sweep the behavioural surface: every Table I workload shape,
each scheduler policy, strict-vcores admission, skew, failure injection with
retries, slow-start gating, and a single-node cluster.
"""

import pytest

from repro.cluster import Cluster
from repro.cluster.node import PAPER_NODE
from repro.errors import SimulationError
from repro.mapreduce.task import SkewModel
from repro.simulator import FailureModel, SimulationConfig, Simulator, simulate
from repro.units import gb
from repro.workloads import entry, hybrid, micro_workflow

#: Timing tolerance, relative to the run's magnitude.  The structural parts
#: of the trace (placements, attempt counts, sub-stage names) must match
#: exactly; instants may differ by the reference solver's convergence noise.
_RTOL = 1e-9


def _assert_traces_match(ref, fast):
    tol = _RTOL * max(1.0, ref.makespan)
    assert abs(ref.makespan - fast.makespan) <= tol

    assert len(ref.tasks) == len(fast.tasks)
    key = lambda t: (t.job, t.kind, t.index)
    ref_by_key = {key(t): t for t in ref.tasks}
    for ft in fast.tasks:
        rt = ref_by_key[key(ft)]
        assert rt.node == ft.node, key(ft)
        assert abs(rt.t_ready - ft.t_ready) <= tol
        assert abs(rt.t_start - ft.t_start) <= tol
        assert abs(rt.t_end - ft.t_end) <= tol
        assert [s.name for s in rt.substages] == [s.name for s in ft.substages]
        for rs, fs in zip(rt.substages, ft.substages):
            assert abs(rs.t_start - fs.t_start) <= tol
            assert abs(rs.t_end - fs.t_end) <= tol

    assert {(s.job, s.kind) for s in ref.stages} == {
        (s.job, s.kind) for s in fast.stages
    }
    fast_stages = {(s.job, s.kind): s for s in fast.stages}
    for rs in ref.stages:
        fs = fast_stages[(rs.job, rs.kind)]
        assert rs.num_tasks == fs.num_tasks
        assert abs(rs.t_start - fs.t_start) <= tol
        assert abs(rs.t_end - fs.t_end) <= tol

    # Same attempts failed at the same times (order within one instant may
    # differ between the loops, so compare as sorted sets).
    ref_failed = sorted(ref.failed_attempts)
    fast_failed = sorted(fast.failed_attempts)
    assert [(t, a) for t, a, _ in ref_failed] == [(t, a) for t, a, _ in fast_failed]
    for (_, _, rw), (_, _, fw) in zip(ref_failed, fast_failed):
        assert abs(rw - fw) <= tol


def _compare(workflow_factory, cluster, **config_kwargs):
    ref = simulate(
        workflow_factory(),
        cluster,
        SimulationConfig(engine="reference", **config_kwargs),
    )
    fast = simulate(
        workflow_factory(),
        cluster,
        SimulationConfig(engine="fast", **config_kwargs),
    )
    _assert_traces_match(ref, fast)
    return ref, fast


@pytest.fixture(scope="module")
def ten_nodes():
    return Cluster(node=PAPER_NODE, workers=10)


class TestWorkloadParity:
    """Every Table I workload shape, small scale for speed."""

    @pytest.mark.parametrize(
        "name",
        ["WC", "TSC", "TS", "TS3R", "WC+TS", "WC+TS3R", "WC+KMeans", "TS+PageRank"],
    )
    def test_catalog_workload(self, name, ten_nodes):
        _compare(lambda: entry(name).factory(0.25), ten_nodes)

    def test_single_node(self):
        _compare(
            lambda: entry("WC").factory(0.2),
            Cluster(node=PAPER_NODE, workers=1),
        )


class TestConfigParity:
    """Scheduler policies, admission modes, skew and failures."""

    @staticmethod
    def _wcts():
        return hybrid(
            "WC+TS", micro_workflow("wc", gb(4)), micro_workflow("ts", gb(4))
        )

    def test_fifo(self, ten_nodes):
        _compare(self._wcts, ten_nodes, policy="fifo")

    def test_fair(self, ten_nodes):
        _compare(self._wcts, ten_nodes, policy="fair")

    def test_enforce_vcores(self, ten_nodes):
        _compare(self._wcts, ten_nodes, enforce_vcores=True)

    def test_skew(self, ten_nodes):
        _compare(self._wcts, ten_nodes, skew=SkewModel(sigma=0.4, seed=3))

    def test_failures_with_retries(self, ten_nodes):
        ref, fast = _compare(
            self._wcts, ten_nodes, failures=FailureModel(probability=0.04, seed=11)
        )
        assert ref.failed_attempts  # the scenario actually exercised retries

    def test_failures_and_skew(self, ten_nodes):
        _compare(
            self._wcts,
            ten_nodes,
            failures=FailureModel(probability=0.03, seed=5),
            skew=SkewModel(sigma=0.3, seed=7),
        )


class TestBulkGrantParity:
    """The YARN placer's bulk grants are invisible to the engines.

    Odd worker counts exercise the bulk path's ragged layers and its
    re-arm after scalar grants.  The trace of a run whose placer serves
    whole layers in bulk must bit-equal the same run on the scalar-only
    placer: every placement, instant and makespan, not just within a
    tolerance.
    """

    @staticmethod
    def _trace(result):
        tasks = sorted(
            (
                t.job,
                t.kind.value,
                t.index,
                t.node,
                t.t_ready,
                t.t_start,
                t.t_end,
                tuple((s.name, s.t_start, s.t_end) for s in t.substages),
            )
            for t in result.tasks
        )
        return result.makespan, tasks

    @pytest.mark.parametrize("engine", ["fast", "columnar"])
    @pytest.mark.parametrize("workers", [33, 101])
    def test_bit_identical_to_scalar_grants(self, monkeypatch, engine, workers):
        from repro.scheduler.yarn import YarnPlacer

        size = gb(1.875 * workers)
        workflow = hybrid(
            "WC+TS", micro_workflow("wc", size), micro_workflow("ts", size)
        )
        cluster = Cluster(node=PAPER_NODE, workers=workers)
        config = SimulationConfig(engine=engine)
        bulk_grants = []
        original = YarnPlacer._bulk_uniform_grants

        def spy(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            if out is not None:
                bulk_grants.append(len(out[0]))
            return out

        monkeypatch.setattr(YarnPlacer, "_bulk_uniform_grants", spy)
        bulk = simulate(workflow, cluster, config)
        monkeypatch.setattr(
            YarnPlacer, "_bulk_uniform_grants", lambda self, *a, **k: None
        )
        scalar = simulate(workflow, cluster, config)
        assert self._trace(bulk) == self._trace(scalar)
        assert sum(bulk_grants) > 0.5 * len(bulk.tasks)  # bulk did serve


class TestEngineSelection:
    def test_unknown_engine_rejected(self, ten_nodes):
        with pytest.raises(SimulationError):
            Simulator(
                ten_nodes,
                entry("WC").factory(0.1),
                SimulationConfig(engine="warp"),
            )

    def test_fast_is_default(self):
        assert SimulationConfig().engine == "fast"
