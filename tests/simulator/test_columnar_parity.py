"""Columnar-engine / fast-engine trace parity — the columnar oracle suite.

The columnar engine re-expresses the fast event loop's hot state as numpy
arrays (slot columns, cohort deadline heap, class-solver rate cache).  It is
an *optimisation*, not a different model: the object engine is retained as
the reference oracle, and this suite pins the columnar trace to it across
the whole Table I catalog crossed with skew on/off and failures on/off,
plus every scheduler policy, strict-vcores admission, slow-start gating and
a single-node cluster.

Tolerance: the columnar engine replicates the fast engine's float
arithmetic operation-for-operation (solver accumulation order, sequential
container releases, op-order demand aggregation), so in practice every
instant matches bit-for-bit — the sweeps used to develop it showed
``dmakespan == 0.0`` everywhere.  The assertions still allow ``1e-9``
relative slack on *instants only* because numpy is free to reassociate
elementwise float kernels across platforms/SIMD widths (e.g. a different
``np.cumsum`` or reduction codegen); structure — placements, attempt
counts, sub-stage names, kill sets — must match exactly.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.cluster.node import PAPER_NODE
from repro.mapreduce.task import SkewModel
from repro.simulator import (
    ColumnarResult,
    ColumnarSimulator,
    FailureModel,
    SimulationConfig,
    Simulator,
    columnar,
    simulate,
)
from repro.units import gb
from repro.workloads import entry, hybrid, micro_workflow

#: Relative slack for instants (see module docstring); structure is exact.
_RTOL = 1e-9

#: The Table I workload catalog, same entries as the fast/reference suite.
CATALOG = ["WC", "TSC", "TS", "TS3R", "WC+TS", "WC+TS3R", "WC+KMeans", "TS+PageRank"]


def _assert_traces_match(obj, col):
    tol = _RTOL * max(1.0, obj.makespan)
    assert abs(obj.makespan - col.makespan) <= tol

    assert len(obj.tasks) == col.task_count == len(col.tasks)
    key = lambda t: (t.job, t.kind, t.index)
    obj_by_key = {key(t): t for t in obj.tasks}
    for ct in col.tasks:
        ot = obj_by_key[key(ct)]
        assert ot.node == ct.node, key(ct)
        assert abs(ot.t_ready - ct.t_ready) <= tol
        assert abs(ot.t_start - ct.t_start) <= tol
        assert abs(ot.t_end - ct.t_end) <= tol
        assert ot.input_mb == ct.input_mb
        assert [s.name for s in ot.substages] == [s.name for s in ct.substages]
        for os_, cs in zip(ot.substages, ct.substages):
            assert abs(os_.t_start - cs.t_start) <= tol
            assert abs(os_.t_end - cs.t_end) <= tol

    assert [(s.job, s.kind, s.num_tasks) for s in obj.stages] == [
        (s.job, s.kind, s.num_tasks) for s in col.stages
    ]
    for os_, cs in zip(obj.stages, col.stages):
        assert abs(os_.t_start - cs.t_start) <= tol
        assert abs(os_.t_end - cs.t_end) <= tol

    assert [s.running for s in obj.states] == [s.running for s in col.states]
    for os_, cs in zip(obj.states, col.states):
        assert abs(os_.t_start - cs.t_start) <= tol
        assert abs(os_.t_end - cs.t_end) <= tol

    # Same attempts killed, exact; kill instants within the instant slack.
    obj_failed = sorted(obj.failed_attempts)
    col_failed = sorted(col.failed_attempts)
    assert [(t, a) for t, a, _ in obj_failed] == [(t, a) for t, a, _ in col_failed]
    for (_, _, ow), (_, _, cw) in zip(obj_failed, col_failed):
        assert abs(ow - cw) <= tol


def _compare(workflow_factory, cluster, **config_kwargs):
    obj = simulate(
        workflow_factory(),
        cluster,
        SimulationConfig(engine="fast", **config_kwargs),
    )
    col = simulate(
        workflow_factory(),
        cluster,
        SimulationConfig(engine="columnar", **config_kwargs),
    )
    _assert_traces_match(obj, col)
    return obj, col


@pytest.fixture(scope="module")
def ten_nodes():
    return Cluster(node=PAPER_NODE, workers=10)


_SKEW = {"off": None, "on": SkewModel(sigma=0.4, seed=3)}
_FAIL = {"off": None, "on": FailureModel(probability=0.04, seed=11)}


class TestCatalogParity:
    """Workloads x skew on/off x failures on/off — the full cross."""

    @pytest.mark.parametrize("failures", sorted(_FAIL))
    @pytest.mark.parametrize("skew", sorted(_SKEW))
    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_cross(self, name, skew, failures, ten_nodes):
        kwargs = {}
        if _SKEW[skew] is not None:
            kwargs["skew"] = _SKEW[skew]
        if _FAIL[failures] is not None:
            kwargs["failures"] = _FAIL[failures]
        _compare(lambda: entry(name).factory(0.25), ten_nodes, **kwargs)

    def test_failures_actually_fired(self, ten_nodes):
        obj, col = _compare(
            lambda: entry("WC+TS").factory(0.25),
            ten_nodes,
            failures=FailureModel(probability=0.04, seed=11),
        )
        assert obj.failed_attempts  # the cross above exercised retries

    def test_single_node(self):
        _compare(
            lambda: entry("WC").factory(0.2),
            Cluster(node=PAPER_NODE, workers=1),
        )


class TestConfigParity:
    """Scheduler policies, admission modes, gating."""

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

    def test_slowstart_gating(self, ten_nodes):
        from dataclasses import replace

        from repro.dag.workflow import single_job_workflow
        from repro.workloads.terasort import terasort

        def gated():
            job = terasort(input_mb=gb(5))
            job = replace(job, config=replace(job.config, slowstart=0.2))
            return single_job_workflow(job)

        _compare(
            gated,
            ten_nodes,
            skew=SkewModel(sigma=0.3, seed=7),
            failures=FailureModel(probability=0.03, seed=5),
        )


class TestTieHeavyCohorts:
    """Adversarial same-instant load: thousands of deadlines tie per event.

    Two near-identical WC jobs (the second's map speed perturbed by 1e-10,
    so the jobs intern *distinct* solver classes whose wave deadlines land
    inside the engine's fuzzy fire window) on a uniform 64-node cluster, no
    skew, no failures: every map wave retires as a multi-cohort pop group
    ~1024 slots wide, and whole waves share bit-equal instants within each
    cohort.  This pins the two orderings the cohort path must preserve:

    * **cohort pop order** — FIFO within the tie window (the heap unit
      tests pin the heap itself; here the group actually forms in anger);
    * **within-node tie-breaks** — the object-engine parity check requires
      *exact* node assignments for every subsequent wave, which are
      downstream of the order tied completions release containers.
    """

    @staticmethod
    def _workload():
        from repro.dag.builder import parallel
        from repro.dag.workflow import single_job_workflow
        from repro.mapreduce.config import SNAPPY_TEXT, JobConfig
        from repro.mapreduce.job import MapReduceJob
        from repro.workloads.wordcount import (
            WC_MAP_SELECTIVITY,
            WC_REDUCE_CPU_MB_S,
            WC_REDUCE_SELECTIVITY,
        )

        def wc_variant(name, map_cpu_mb_s):
            return MapReduceJob(
                name=name,
                input_mb=gb(128),  # 1024 maps = 2 full 512-slot DRF waves
                map_selectivity=WC_MAP_SELECTIVITY,
                reduce_selectivity=WC_REDUCE_SELECTIVITY,
                map_cpu_mb_s=map_cpu_mb_s,
                reduce_cpu_mb_s=WC_REDUCE_CPU_MB_S,
                num_reducers=512,
                config=JobConfig(compression=SNAPPY_TEXT, replicas=3),
            )

        return parallel(
            "TIES",
            [
                single_job_workflow(wc_variant("wc-a", 15.0)),
                single_job_workflow(wc_variant("wc-b", 15.0 * (1.0 + 1e-10))),
            ],
        )

    @pytest.fixture(scope="class")
    def big_cluster(self):
        return Cluster(node=PAPER_NODE, workers=64)

    def test_parity_with_giant_tie_groups(self, big_cluster, monkeypatch):
        from repro.simulator.events import CohortDeadlineHeap

        groups = []
        orig = CohortDeadlineHeap.pop_due

        def spy(self, now, epochs, eps):
            out = orig(self, now, epochs, eps)
            if out:
                groups.append((len(out), sum(s.size for s, _ in out)))
            return out

        monkeypatch.setattr(CohortDeadlineHeap, "pop_due", spy)
        obj, col = _compare(self._workload, big_cluster)
        assert col.task_count >= 3000
        # The adversarial shape actually formed: at least one pop group a
        # thousand slots wide, and multi-cohort groups (several cohorts
        # fired in pop order at one instant, not just single cohorts).
        assert max(total for _, total in groups) >= 1000
        assert any(n_cohorts > 1 for n_cohorts, _ in groups)


class TestEngineSelection:
    def test_columnar_is_an_engine(self):
        from repro.simulator.engine import ENGINES

        assert "columnar" in ENGINES

    def test_simulate_dispatches_columnar(self, ten_nodes):
        result = simulate(
            entry("WC").factory(0.1),
            ten_nodes,
            SimulationConfig(engine="columnar"),
        )
        assert isinstance(result, ColumnarResult)

    def test_simulator_run_dispatches(self, ten_nodes):
        sim = Simulator(
            ten_nodes,
            entry("WC").factory(0.1),
            SimulationConfig(engine="columnar"),
        )
        assert isinstance(sim.run(), ColumnarResult)

    def test_columnar_simulator_direct(self, ten_nodes):
        sim = ColumnarSimulator(
            ten_nodes,
            entry("WC").factory(0.1),
            SimulationConfig(engine="columnar"),
        )
        result = sim.run()
        assert isinstance(result, ColumnarResult)
        assert result.task_count == len(result.tasks)


class TestColumnarResult:
    """Lazy materialisation and the columnar fast-path queries."""

    def test_kept_result_does_not_pin_its_simulator(self, ten_nodes):
        """A result outlives its simulator: the lazy builders hold only the
        arrays they read, and still build the same tasks and columns."""
        workflow = entry("WC+TS").factory(0.25)
        config = SimulationConfig(engine="columnar", skew=SkewModel(sigma=0.3))
        sim = ColumnarSimulator(ten_nodes, workflow, config)
        result = sim.run()
        gone = weakref.ref(sim)
        del sim
        gc.collect()
        assert gone() is None
        fresh = ColumnarSimulator(ten_nodes, workflow, config).run()
        assert result.tasks == fresh.tasks
        for job in ("wc", "ts"):
            np.testing.assert_array_equal(
                result.durations_array(job), fresh.durations_array(job)
            )

    def test_durations_array_matches_tasks(self, ten_nodes):
        col = simulate(
            entry("WC+TS").factory(0.25),
            ten_nodes,
            SimulationConfig(engine="columnar"),
        )
        for job in ("wc", "ts"):
            arr = col.durations_array(job)
            listed = [t.work_duration for t in col.tasks if t.job == job]
            assert arr.shape == (len(listed),)
            np.testing.assert_allclose(arr, np.array(listed), rtol=0, atol=0)

    def test_task_count_before_materialise(self, ten_nodes):
        col = simulate(
            entry("WC").factory(0.25),
            ten_nodes,
            SimulationConfig(engine="columnar"),
        )
        assert col._tasks_cache is None  # count must not force the build
        n = col.task_count
        assert col._tasks_cache is None
        assert n == len(col.tasks)
        assert col._tasks_cache is not None


class _FullScanOracle(ColumnarSimulator):
    """Checks every candidate gather against a scan of every allocated slot.

    Production gathers a dirty node's slots from the window
    ``[_low, _n_slots)``, by scanning it or by reading the node index and
    its unindexed tail; this subclass recomputes, at every re-share, the
    full-column scan both replaced and asserts they agree.  It also pins
    the window itself: every slot below its floor is dead and the floor
    sits on a live slot (or at the top) — so a floor that never moves past
    dead slots fails here even where the candidate set happens to survive
    it.  It counts which gather each re-share took, and after every indexed
    one asserts the index is no staler than its rebuild rule allows.
    """

    def _dirty_slots(self, dirty):
        indexed = self.indexed
        got = super()._dirty_slots(dirty)
        n = self._n_slots
        nodes = self._s_node[:n]
        full = np.flatnonzero(self._s_active[:n] & dirty[nodes])
        want = full[np.argsort(nodes[full], kind="stable")]
        np.testing.assert_array_equal(got, want)
        low = self._low
        assert self._s_dead[:low].all()
        assert low == n or not self._s_dead[low]
        self.checks += 1
        self.floor_moves += low > 0
        self.scans += self.indexed == indexed
        return got

    def _indexed_slots(self, dirty, low, n):
        start, end = self._ix_start, self._ix_end
        got = super()._indexed_slots(dirty, low, n)
        self.indexed += 1
        window = n - low
        if self._ix_end != end:
            self.rebuilds += 1
            # The tail alone was within its share: the floor's passing the
            # index start is what forced this rebuild.
            if end >= 0 and (n - end) * columnar._INDEX_STALE_SHARE <= window:
                self.floor_rebuilds += 1
        else:
            tail = np.arange(end, n)
            tail = tail[self._s_active[tail] & dirty[self._s_node[tail]]]
            self.tail_hits += tail.size
            self.tail_retries += int(np.count_nonzero(self._s_attempt[tail] > 1))
        stale = n - self._ix_end + low - self._ix_start
        assert stale * columnar._INDEX_STALE_SHARE <= window
        return got


class TestLiveSlotWindow:
    """The live-slot window gathers exactly what a full scan would."""

    @staticmethod
    def _run(workflow_factory, cluster, **config_kwargs):
        config = SimulationConfig(engine="columnar", **config_kwargs)
        sim = _FullScanOracle(cluster, workflow_factory(), config)
        sim.checks = sim.floor_moves = sim.scans = sim.indexed = 0
        sim.rebuilds = sim.floor_rebuilds = sim.tail_hits = sim.tail_retries = 0
        checked = sim.run()
        assert sim.checks > 0
        assert sim.floor_moves > 0  # the window did shrink below the top
        assert sim.scans + sim.indexed == sim.checks
        plain = simulate(workflow_factory(), cluster, config)
        assert checked.makespan == plain.makespan
        assert checked.tasks == plain.tasks
        return checked, sim

    @pytest.fixture
    def small_index(self, monkeypatch):
        """Lets the test-sized windows take the indexed gather: at the
        production size floor only clusters of hundreds of workers do."""
        monkeypatch.setattr(columnar, "_INDEX_MIN_WINDOW", 0)

    @staticmethod
    def _uniform(workers):
        size = gb(1.875 * workers)
        return hybrid(
            "WC+TS", micro_workflow("wc", size), micro_workflow("ts", size)
        )

    @pytest.mark.parametrize("workers", [64, 65])
    def test_uniform_even_and_odd(self, workers, small_index):
        cluster = Cluster(node=PAPER_NODE, workers=workers)
        result, sim = self._run(lambda: self._uniform(workers), cluster)
        assert result.task_count > 1000
        # Waves that dirty most nodes keep the scan.
        assert sim.scans > 0
        if workers % 2:
            # The odd cluster's per-grant tail re-shares a few nodes at a
            # time: indexed reads, with hits in the unindexed tail, and a
            # rebuild that the floor forced.
            assert sim.indexed > sim.scans
            assert sim.tail_hits > 0
            assert sim.floor_rebuilds > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_skewed_with_failures(self, seed, small_index):
        from repro.workloads.weblog import weblog_dag

        result, sim = self._run(
            lambda: weblog_dag(gb(20)),
            Cluster(node=PAPER_NODE, workers=17),
            skew=SkewModel(sigma=0.5, seed=seed),
            failures=FailureModel(probability=0.05, seed=seed),
        )
        # Kills left dead slots mid-run and their retries took fresh ones,
        # which the indexed gather found in its unindexed tail.
        assert result.failed_attempts
        assert result.task_count == sum(
            s.num_tasks for s in result.stages
        )
        assert sim.indexed > 0
        assert sim.tail_retries > 0
        assert sim.floor_rebuilds > 0

    def test_production_sizes_pick_the_gather(self, ten_nodes):
        from repro.workloads.weblog import weblog_dag

        # The paper's 10-node cluster: its small window stays on the scan.
        _, small = self._run(
            lambda: weblog_dag(gb(5)),
            ten_nodes,
            skew=SkewModel(sigma=0.3, seed=0),
            failures=FailureModel(probability=0.05, seed=0),
        )
        assert small.indexed == 0
        # An odd cluster of hundreds of workers reads the index on its
        # few-node re-shares and scans on its full waves.
        _, large = self._run(
            lambda: self._uniform(513), Cluster(node=PAPER_NODE, workers=513)
        )
        assert large.indexed > 0 and large.scans > 0

    def test_slowstart_gated_shuffles(self, ten_nodes, small_index):
        from dataclasses import replace

        from repro.dag.workflow import single_job_workflow
        from repro.mapreduce.stage import StageKind
        from repro.workloads.terasort import terasort

        def gated():
            job = terasort(input_mb=gb(5))
            job = replace(job, config=replace(job.config, slowstart=0.2))
            return single_job_workflow(job)

        result, _ = self._run(gated, ten_nodes, skew=SkewModel(sigma=0.3, seed=7))
        bounds = {s.kind: s for s in result.stages}
        # Reduces opened while maps still ran: their shuffles were gated.
        assert bounds[StageKind.REDUCE].t_start < bounds[StageKind.MAP].t_end


class TestDeferredTaskOrder:
    """The canonical task order and trace columns are built on first read."""

    @staticmethod
    def _fresh():
        from repro.workloads.weblog import weblog_dag

        return simulate(
            weblog_dag(gb(20)),
            Cluster(node=PAPER_NODE, workers=17),
            SimulationConfig(
                engine="columnar",
                skew=SkewModel(sigma=0.5, seed=3),
                failures=FailureModel(probability=0.05, seed=3),
            ),
        )

    @pytest.fixture(scope="class")
    def reference(self):
        result = self._fresh()
        return result.tasks, sorted({t.job for t in result.tasks})

    @staticmethod
    def _durations(result, jobs):
        from repro.mapreduce.stage import StageKind

        return {
            (job, kind, overhead): result.durations_array(job, kind, overhead)
            for job in jobs
            for kind in (None, StageKind.MAP, StageKind.REDUCE)
            for overhead in (False, True)
        }

    @staticmethod
    def _expected(tasks, jobs):
        from repro.mapreduce.stage import StageKind

        out = {}
        for job in jobs:
            for kind in (None, StageKind.MAP, StageKind.REDUCE):
                picked = [
                    t for t in tasks if t.job == job and kind in (None, t.kind)
                ]
                out[(job, kind, False)] = np.array(
                    [t.work_duration for t in picked]
                )
                out[(job, kind, True)] = np.array([t.duration for t in picked])
        return out

    def _assert_durations(self, got, tasks, jobs):
        want = self._expected(tasks, jobs)
        assert got.keys() == want.keys()
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=str(key))

    def test_durations_before_tasks(self, reference):
        tasks, jobs = reference
        col = self._fresh()
        assert col._columns is None and col._tasks_cache is None
        self._assert_durations(self._durations(col, jobs), tasks, jobs)
        assert col._tasks_cache is None  # durations never build the objects
        assert col.tasks == tasks

    def test_tasks_unchanged(self, reference):
        tasks, jobs = reference
        col = self._fresh()
        assert col._columns is None
        assert col.tasks == tasks
        self._assert_durations(self._durations(col, jobs), tasks, jobs)

    def test_pickle_before_any_read(self, reference):
        import pickle

        tasks, jobs = reference
        col = self._fresh()
        assert col._columns is None and col._tasks_cache is None
        back = pickle.loads(pickle.dumps(col))
        assert back._task_builder is None and back._columns_builder is None
        assert back.tasks == tasks
        self._assert_durations(self._durations(back, jobs), tasks, jobs)


def test_unique_rows_matches_numpy():
    """The byte-keyed row dedup of a re-share's node compositions finds
    the rows ``np.unique(axis=0)`` finds, and maps every row back."""
    rng = np.random.default_rng(0)
    for rows, cols in ((1, 1), (3, 2), (4, 4), (50, 4), (3261, 2)):
        comp = rng.integers(0, 4, (rows, cols))
        uniq, inverse = columnar._unique_rows(comp)
        np.testing.assert_array_equal(uniq[inverse], comp)
        want = np.unique(comp, axis=0)
        assert sorted(map(tuple, uniq.tolist())) == list(map(tuple, want.tolist()))
