"""Tests for repro.core.bounds — analytic makespan lower bounds and pruning.

The load-bearing contract is *conservativeness*: a candidate is only ever
skipped when its lower bound exceeds an evaluated estimate, so
``lower <= estimate`` must hold for every candidate a sweep can produce,
and the pruned coordinate descent must select the bit-identical winner the
exhaustive one does.  Tightness is only asserted loosely (bounds must not
be vacuous) — the speed/tightness trade-off is benchmarked, not unit
tested.
"""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.mapreduce.phases as phases
from repro.cluster import paper_cluster
from repro.cluster.resources import ResourceVector
from repro.core.boe import _STAGGER_WAVES, BOEModel, _synchronised
from repro.core.bounds import _LB_SLACK, BoundsModel, _StagePrimitives
from repro.core.distributions import Variant
from repro.core.estimator import BOESource, estimate_workflow
from repro.dag.workflow import Workflow
from repro.errors import EstimationError, SchedulingError
from repro.mapreduce import JobConfig, MapReduceJob
from repro.mapreduce.config import NO_COMPRESSION, SNAPPY_TEXT
from repro.mapreduce.stage import StageKind
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.sweep import SweepRunner
from repro.tuning import GreedyTuner, default_space, wide_space
from repro.tuning.knobs import Knob, apply_knob_value, current_value
from repro.units import gb
from repro.workloads import weblog_dag
from repro.workloads.catalog import catalog
from repro.workloads.generator import random_workflow
from repro.workloads.tpch import tpch_query

#: Catalog entries covering single jobs, chains, diamonds and joins.
CATALOG_NAMES = ("WC", "TS3R", "WC+TS", "WC+PageRank", "TS+KMeans")
#: Seeded generated DAGs (``workloads.generator``) screened beside them.
GENERATED = 30


def _workflow(name):
    """A catalogue entry at scale 1, or ``generated/<i>``."""
    if name.startswith("generated/"):
        return random_workflow(int(name.split("/")[1]))
    return catalog()[name].factory(1.0)


def q21_capacity_space(workflow):
    """The magnitude-spanning capacity grid on Q21's lineitem scan."""
    job = "q21-scan-lineitem"
    lineitem = workflow.job(job)
    config = lineitem.config
    compression = NO_COMPRESSION if config.compression.enabled else SNAPPY_TEXT
    return [
        Knob(job, "num_reducers",
             (lineitem.num_reducers, 1, 2, 3, 4, 8, 2560, 5120, 10240)),
        Knob(job, "split_mb",
             (config.split_mb, 0.5, 1.0, 2.0, 4.0, 8.0,
              1024.0, 2048.0, 4096.0, 8192.0)),
        Knob(job, "map_memory_mb",
             (config.map_container.memory_mb, 500.0, 8000.0, 16000.0,
              32000.0, 64000.0, 128000.0)),
        Knob(job, "compression", (config.compression, compression)),
    ]


def _bound(workflow, cluster, *, refine=False, variant=Variant.MEAN):
    source = BOESource(BOEModel(cluster, refine=refine))
    model = BoundsModel.from_source(source)
    est = estimate_workflow(
        workflow, cluster, source=source, variant=variant
    ).total_time
    return model.lower_bound(workflow), est


class TestSoundness:
    @pytest.mark.parametrize(
        "name", CATALOG_NAMES + tuple(f"generated/{i}" for i in range(GENERATED))
    )
    @pytest.mark.parametrize("refine", (False, True))
    def test_catalog_bracket(self, cluster, name, refine):
        lower, est = _bound(_workflow(name), cluster, refine=refine)
        assert 0.0 < lower <= est

    @pytest.mark.parametrize("variant", (Variant.MEAN, Variant.MEDIAN))
    def test_variants(self, cluster, variant):
        workflow = catalog()["WC+TS"].factory(1.0)
        lower, est = _bound(workflow, cluster, variant=variant)
        assert 0.0 < lower <= est

    def test_knob_perturbations_stay_bracketed(self, cluster):
        """Every candidate of the magnitude-spanning Q21 grid is bounded
        below its estimate — the exact population pruning screens."""
        workflow = tpch_query(21)
        source = BOESource(BOEModel(cluster))
        model = BoundsModel.from_source(source)
        space = wide_space(workflow, cluster, jobs=["q21-scan-lineitem"])
        candidates = [
            apply_knob_value(workflow, knob.key, choice)
            for knob in space
            for choice in knob.choices
            if choice != current_value(workflow, knob)
        ]
        batch = model.bounds_batch(candidates)
        assert len(batch) == len(candidates)
        for candidate, lower in zip(candidates, batch):
            assert lower is not None
            est = estimate_workflow(candidate, cluster, source=source).total_time
            assert lower <= est

    def test_lower_bound_not_vacuous(self, cluster):
        """The bound must have pruning power: on the paper's workloads it
        lands within a factor 2 of the estimate."""
        workflow = tpch_query(21)
        lower, est = _bound(workflow, cluster)
        assert lower >= est / 2.0


def padded_span_lower_batch(model, prims_list):
    """The stage-bound kernel as it was first written: every stage priced
    on one ``[L x P_max x S x 3]`` grid padded to the largest container
    cap, cells above a stage's own cap masked to ``inf``.  Kept as the
    oracle the ragged production kernel must match bit for bit."""
    M = len(prims_list)
    out = np.zeros(M)
    live = [m for m, p in enumerate(prims_list) if p.n > 0]
    if not live:
        return out
    s_max = max(len(prims_list[m].amounts) for m in live)
    p_max = max(prims_list[m].per_wave_ub for m in live)
    L = len(live)
    amounts = np.zeros((L, s_max, 3))
    n = np.zeros(L)
    ub = np.zeros(L)
    ovh = np.zeros(L)
    slope = np.zeros(L)
    for row, m in enumerate(live):
        prims = prims_list[m]
        amounts[row, : len(prims.amounts)] = prims.amounts
        n[row] = float(prims.n)
        ub[row] = float(prims.per_wave_ub)
        ovh[row] = prims.overhead_s
        if model._refine:
            slope[row] = model._min_assignment_slope(prims.amounts)
        else:
            slope[row] = float(
                (prims.amounts.sum(axis=0) / model._agg_rates).max()
            )
    base = amounts / model._task_rates
    t_min = base.max(axis=2).sum(axis=1)
    grid = np.arange(1.0, p_max + 1.0)
    n_ = n[:, None]
    t_tail_sizes = n_ - (np.ceil(n_ / grid[None, :]) - 1.0) * grid[None, :]

    def sync_time(deltas):
        factor = np.maximum(1.0, deltas[:, :, None] / model._share_div)
        contended = base[:, None, :, :] * factor[:, :, None, :]
        if model._refine:
            contended = np.where(
                base[:, None, :, :] > 0, contended, np.inf
            ).min(axis=3)
            contended[~np.isfinite(contended)] = 0.0
            floors = np.maximum(base.max(axis=2)[:, None, :], contended)
            return floors.sum(axis=2)
        return contended.max(axis=3).sum(axis=2)

    t_sync = sync_time(np.broadcast_to(grid[None, :], (L, len(grid))))
    t_stag = np.maximum(t_min[:, None], grid[None, :] * slope[:, None])
    t_body = np.where(n_ <= _STAGGER_WAVES * grid[None, :], t_sync, t_stag)
    t_tail = np.maximum(t_min[:, None], t_tail_sizes * slope[:, None])
    t_tail = np.where(
        n_ <= _STAGGER_WAVES * t_tail_sizes,
        np.maximum(t_tail, sync_time(t_tail_sizes)),
        t_tail,
    )
    waves = np.ceil(n_ / grid[None, :])
    whole = (waves - 1.0) * (t_body + ovh[:, None]) + (t_tail + ovh[:, None])
    whole = np.where(grid[None, :] <= ub[:, None], whole, np.inf)
    out[live] = whole.min(axis=1) * _LB_SLACK
    return out


def _stage_primitives(model, workflows):
    """Primitives of every buildable stage of every workflow."""
    prims = []
    for workflow in workflows:
        for job in workflow.jobs:
            for kind in job.stages():
                try:
                    prims.append(model._primitives(job, kind))
                except (EstimationError, SchedulingError):
                    pass
    return prims


def _assert_kernels_match(model, prims):
    ragged = model._span_lower_batch(prims)
    padded = padded_span_lower_batch(model, prims)
    assert [x.hex() for x in ragged] == [x.hex() for x in padded]
    # Each row is priced on its own cells only, alone or in a batch.
    for row, one in enumerate(prims):
        assert model._span_lower_batch([one])[0].hex() == ragged[row].hex()


def _knob_candidates(workflow, space):
    return [
        apply_knob_value(workflow, knob.key, choice)
        for knob in space
        for choice in knob.choices
        if choice != current_value(workflow, knob)
    ]


class TestRaggedKernel:
    """The production kernel prices a ragged ``(stage, p)`` cell axis; the
    padded kernel it replaced is the oracle, compared in ``float.hex``."""

    @pytest.mark.parametrize("refine", (False, True))
    def test_table1_catalogue(self, cluster, refine):
        model = BoundsModel(BOEModel(cluster, refine))
        workflows = [entry.factory(1.0) for entry in catalog().values()]
        prims = _stage_primitives(model, workflows)
        assert len(prims) >= sum(w.num_stages for w in workflows)
        _assert_kernels_match(model, prims)

    @pytest.mark.parametrize("refine", (False, True))
    def test_generated_dags(self, cluster, refine):
        """The primitives come from the BOE model's shared pipelines."""
        boe = BOEModel(cluster, refine)
        model = BoundsModel(boe)
        workflows = [random_workflow(i) for i in range(GENERATED)]
        prims = _stage_primitives(model, workflows)
        stages = [(job, kind) for w in workflows for job in w.jobs for kind in job.stages()]
        assert len(prims) == len(stages)
        for (job, kind), one in zip(stages, prims):
            assert one.amounts is boe.pipeline(job, kind).amounts
        _assert_kernels_match(model, prims)

    @pytest.mark.parametrize("refine", (False, True))
    def test_q21_capacity_grid(self, cluster, refine):
        q21 = tpch_query(21)
        candidates = _knob_candidates(q21, q21_capacity_space(q21))
        model = BoundsModel(BOEModel(cluster, refine))
        prims = _stage_primitives(model, [q21, *candidates])
        # The grid spans caps from one container to the whole cluster.
        assert len({p.per_wave_ub for p in prims}) > 10
        _assert_kernels_match(model, prims)

    @pytest.mark.parametrize("refine", (False, True))
    def test_weblog_default_space(self, cluster, refine):
        weblog = weblog_dag(gb(25))
        candidates = _knob_candidates(weblog, default_space(weblog, cluster))
        model = BoundsModel(BOEModel(cluster, refine))
        _assert_kernels_match(model, _stage_primitives(model, [weblog, *candidates]))

    @given(
        stages=st.lists(
            st.tuples(
                st.one_of(st.sampled_from((0, 1)), st.integers(0, 400)),  # n
                st.sampled_from(("one", "all", "some")),  # per_wave_ub
                st.integers(1, 400),
                st.sampled_from((0.0, 0.35, 2.0)),  # overhead_s
                st.lists(  # sub-stages: (cpu, disk, net), zero columns too
                    st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-3, 500.0))] * 3),
                    min_size=1,
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=6,
        ),
        refine=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_primitives(self, stages, refine):
        model = BoundsModel(BOEModel(paper_cluster(), refine))
        prims = []
        for n, cap, some, overhead, amounts in stages:
            ub = {"one": 1, "all": max(1, n), "some": max(1, min(n, some))}[cap]
            prims.append(
                _StagePrimitives(
                    n=n,
                    amounts=np.array(amounts, dtype=float),
                    per_wave_ub=ub,
                    overhead_s=overhead,
                )
            )
        _assert_kernels_match(model, prims)

    def test_no_live_stage(self, cluster):
        empty = _StagePrimitives(n=0, amounts=np.zeros((1, 3)), per_wave_ub=1,
                                 overhead_s=0.0)
        assert list(BoundsModel(BOEModel(cluster))._span_lower_batch([empty, empty])) == [0.0, 0.0]


class TestBatchSemantics:
    def test_batch_matches_single(self, cluster):
        entries = catalog()
        workflows = [entries[name].factory(1.0) for name in CATALOG_NAMES]
        model = BoundsModel(BOEModel(cluster))
        batch = model.bounds_batch(workflows)
        singles = [BoundsModel(BOEModel(cluster)).lower_bound(w) for w in workflows]
        assert batch == singles

    def test_memo_is_value_stable(self, cluster, monkeypatch):
        """The stage memo keys on job values: a value-identical workflow
        rebuilt from scratch (fresh object identities) is served without a
        kernel call, and a knob-perturbed candidate re-prices only the
        perturbed job's stages."""
        kernel_rows = []
        repriced = []
        kernel = BoundsModel._span_lower_batch
        resolve = BoundsModel._resolve_lows

        def counting_kernel(self, prims_list):
            kernel_rows.append(len(prims_list))
            return kernel(self, prims_list)

        def recording_resolve(self, pending):
            repriced.append(sorted((job.name, kind.value) for job, kind in pending))
            return resolve(self, pending)

        monkeypatch.setattr(BoundsModel, "_span_lower_batch", counting_kernel)
        monkeypatch.setattr(BoundsModel, "_resolve_lows", recording_resolve)
        model = BoundsModel(BOEModel(cluster))
        q21 = tpch_query(21)
        first = model.lower_bound(q21)
        assert len(kernel_rows) == 1

        rebuilt = tpch_query(21)
        assert all(a is not b for a, b in zip(rebuilt.jobs, q21.jobs))
        assert model.lower_bound(rebuilt) == first
        assert len(kernel_rows) == 1

        job = "q21-scan-lineitem"
        perturbed = apply_knob_value(rebuilt, (job, "num_reducers"), 8)
        bound = model.lower_bound(perturbed)
        assert kernel_rows[1:] == [2]
        assert repriced[-1] == [(job, "map"), (job, "reduce")]
        assert bound.hex() == BoundsModel(BOEModel(cluster)).lower_bound(perturbed).hex()

    def test_oversized_container_is_bounded(self, cluster):
        """A container larger than the whole cluster never runs: the
        scheduler rejects the candidate with a SchedulingError.  The bound
        prices such a stage at one container per wave, so the candidate
        still gets a lower bound and leaves its neighbours' bounds
        untouched."""
        workflow = tpch_query(21)
        monster = apply_knob_value(
            workflow,
            ("q21-scan-lineitem", "map_memory_mb"),
            cluster.capacity.memory_mb * 4.0,
        )
        model = BoundsModel(BOEModel(cluster))
        results = model.bounds_batch([monster, workflow])
        assert results[0] is not None and results[0] > 0.0
        assert results[1] == BoundsModel(BOEModel(cluster)).lower_bound(workflow)
        with pytest.raises(SchedulingError):
            estimate_workflow(monster, cluster)

    @pytest.mark.parametrize("refine", (False, True))
    def test_topology_memo_keeps_bounds_bit_identical(
        self, cluster, monkeypatch, refine
    ):
        """The ancestor matrix is built once per topology and reused by
        later batches; every bound stays bit-identical to a cold model's
        (which builds the matrix afresh, as each batch once did)."""
        q21 = tpch_query(21)
        workflows = [catalog()[name].factory(1.0) for name in sorted(catalog())]
        workflows += [
            apply_knob_value(q21, knob.key, choice)
            for knob in q21_capacity_space(q21)
            for choice in knob.choices
            if choice != current_value(q21, knob)
        ]
        builds = []
        build = BoundsModel._ancestor_matrix
        monkeypatch.setattr(
            BoundsModel,
            "_ancestor_matrix",
            staticmethod(lambda deps: builds.append(deps) or build(deps)),
        )
        model = BoundsModel(BOEModel(cluster, refine))
        first = model.bounds_batch(workflows)
        built_once = len(builds)
        assert 0 < built_once < len(workflows)
        for _ in range(2):
            assert model.bounds_batch(workflows) == first
        assert len(builds) == built_once
        cold = [BoundsModel(BOEModel(cluster, refine)).lower_bound(w) for w in workflows]
        assert [b.hex() for b in first] == [b.hex() for b in cold]

    def test_mixed_topologies_group_correctly(self, cluster):
        entries = catalog()
        workflows = [
            entries["WC"].factory(1.0),
            tpch_query(21),
            entries["WC"].factory(1.0),
        ]
        batch = BoundsModel(BOEModel(cluster)).bounds_batch(workflows)
        assert all(b is not None for b in batch)
        assert batch[0] == batch[2]


class TestPruneParity:
    """Exhaustive-vs-pruned coordinate descent: identical winner, value."""

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_catalog_winner_parity(self, cluster, name):
        workflow = catalog()[name].factory(1.0)
        exact = GreedyTuner(cluster, prune=False).tune(workflow)
        pruned = GreedyTuner(cluster, prune=True).tune(workflow)
        assert pruned.assignment == exact.assignment
        assert pruned.tuned_estimate_s == exact.tuned_estimate_s
        assert pruned.baseline_estimate_s == exact.baseline_estimate_s
        assert exact.pruned == 0

    def test_wide_grid_winner_parity(self, cluster):
        """The bench scenario's magnitude-spanning Q21 grid: high prune
        rate, same winner."""
        workflow = tpch_query(21)
        space = wide_space(workflow, cluster, jobs=["q21-scan-lineitem"])
        exact = GreedyTuner(cluster, prune=False).tune(workflow, space)
        pruned = GreedyTuner(cluster, prune=True).tune(workflow, space)
        assert pruned.assignment == exact.assignment
        assert pruned.tuned_estimate_s == exact.tuned_estimate_s
        assert pruned.pruned > 0

    def test_armed_metrics_change_no_work(self, cluster):
        """Arming the metrics registry only records: the capacity grid
        tunes to the same winner with the same evaluations, prunes and
        BOE solves whether the registry is armed or not."""
        workflow = tpch_query(21)
        job = "q21-scan-lineitem"
        lineitem = workflow.job(job)
        config = lineitem.config
        compression = NO_COMPRESSION if config.compression.enabled else SNAPPY_TEXT
        space = [
            Knob(job, "num_reducers",
                 (lineitem.num_reducers, 1, 2, 3, 4, 8, 2560, 5120, 10240)),
            Knob(job, "split_mb",
                 (config.split_mb, 0.5, 1.0, 2.0, 4.0, 8.0,
                  1024.0, 2048.0, 4096.0, 8192.0)),
            Knob(job, "map_memory_mb",
                 (config.map_container.memory_mb, 500.0, 8000.0, 16000.0,
                  32000.0, 64000.0, 128000.0)),
            Knob(job, "compression", (config.compression, compression)),
        ]

        def tune(armed):
            previous = set_metrics(MetricsRegistry(enabled=armed))
            try:
                source = BOESource(BOEModel(cluster))
                result = GreedyTuner(cluster, source=source, prune=True).tune(
                    workflow, space
                )
            finally:
                set_metrics(previous)
            return (
                result.assignment,
                result.tuned_estimate_s,
                result.evaluations,
                result.sweep.pruned,
                source.cache_stats.hits,
                source.cache_stats.misses,
            )

        disarmed = tune(False)
        armed = tune(True)
        assert disarmed[3] > 0
        assert armed == disarmed


class TestStaggerRule:
    """BOE and the bound kernel read one stagger rule.  At its edge,
    n = 1.5 p (synchronised) and n = 1.5 p + 1 (staggered), both must call
    the same regime, and the bound must stay below the estimate."""

    @pytest.mark.parametrize("tasks", (3, 4))
    @pytest.mark.parametrize("refine", (False, True))
    def test_boundary(self, one_node, tasks, refine):
        p = 2
        assert tasks in (_STAGGER_WAVES * p, _STAGGER_WAVES * p + 1)
        # Two containers fill the node, so the stage runs at p = 2.
        job = MapReduceJob(
            name="edge",
            input_mb=tasks * 128.0,
            map_selectivity=0.5,
            reduce_selectivity=0.5,
            map_cpu_mb_s=20.0,
            reduce_cpu_mb_s=30.0,
            num_reducers=0,
            config=JobConfig(
                map_container=ResourceVector(1.0, one_node.capacity.memory_mb / p)
            ),
        )
        source = BOESource(BOEModel(one_node, refine=refine))
        model = BoundsModel.from_source(source)
        pipeline = source.model.pipeline(job, StageKind.MAP)
        assert pipeline.tasks == tasks
        assert model._primitives(job, StageKind.MAP).per_wave_ub == p
        assert pipeline.staggered(p) is (tasks == 4)
        assert bool(_synchronised(tasks, p)) is not pipeline.staggered(p)
        kernel = _synchronised(np.array([float(tasks)]), np.array([float(p)]))
        assert bool(kernel[0]) is not pipeline.staggered(p)
        lower, est = _bound(Workflow(name="edge", jobs=(job,)), one_node, refine=refine)
        assert 0.0 < lower <= est


def q21_knob_grid(seed):
    """The Q21 capacity grid with each knob's values in seeded order, as
    the benchmark ledger's tune-prunable workload draws it."""
    workflow = tpch_query(21)
    rng = random.Random(seed)
    space = []
    for knob in q21_capacity_space(workflow):
        values = list(knob.choices)
        rng.shuffle(values)
        space.append(Knob(knob.job, knob.field, tuple(values)))
    return workflow, space


class TestSharedPipelines:
    def test_one_decomposition_per_stage(self, cluster, monkeypatch):
        """A pruned tune decomposes each distinct (job, kind) once: the
        bound screen reads its stages from the BOE model that prices the
        candidates, so neither decomposes what the other already has."""
        calls = []
        build = phases.build_task_substages

        def counting(job, kind, *args, **kwargs):
            calls.append((job, kind))
            return build(job, kind, *args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "build_task_substages", None) is build:
                monkeypatch.setattr(module, "build_task_substages", counting)
        workflow, space = q21_knob_grid(0)
        result = GreedyTuner(cluster, prune=True).tune(workflow, space)
        assert result.pruned > 0
        assert len(calls) == len(set(calls)) == 82


class _RecordingRunner(SweepRunner):
    """Logs (candidates, screened, pruned) per batch a tuner submits."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def evaluate(self, candidates, cancel=None, *, prune=None, incumbent_time_s=None):
        results = super().evaluate(
            candidates, cancel, prune=prune, incumbent_time_s=incumbent_time_s
        )
        self.batches.append(
            (len(candidates), bool(prune), sum(r.pruned for r in results))
        )
        return results


class TestScreenGate:
    """The tuner screens a batch only while the screen pays: at least one
    rejection per screened batch so far.  The rule counts, it never reads
    a clock, so it is a pure function of the inputs."""

    def _tune(self, cluster, workflow, space=None, prune=True):
        source = BOESource(BOEModel(cluster))
        runner = _RecordingRunner(cluster, source=source)
        tuner = GreedyTuner(cluster, source=source, runner=runner, prune=prune)
        return tuner.tune(workflow, space), runner.batches, source.cache_stats

    @staticmethod
    def _assert_gate_rule(batches):
        screened = rejected = 0
        for candidates, screen, pruned in batches:
            assert screen == (candidates > 1 and rejected >= screened)
            screened += screen
            rejected += pruned
            if not screen:
                assert pruned == 0

    def test_closes_on_weblog_after_a_batch_that_does_not_pay(self, cluster):
        workflow = weblog_dag(gb(25))
        exact, _, _ = self._tune(cluster, workflow, prune=False)
        gated, batches, _ = self._tune(cluster, workflow)
        self._assert_gate_rule(batches)
        screened = [pruned for _, screen, pruned in batches if screen]
        # The first multi-candidate batch rejects nothing, which shuts the
        # screen for the rest of the tune.
        assert screened == [0]
        assert gated.assignment == exact.assignment
        assert gated.tuned_estimate_s == exact.tuned_estimate_s
        assert gated.baseline_estimate_s == exact.baseline_estimate_s
        assert gated.evaluations == exact.evaluations

    def test_stays_open_on_the_q21_capacity_grid(self, cluster):
        workflow = tpch_query(21)
        space = q21_capacity_space(workflow)
        exact, _, _ = self._tune(cluster, workflow, space, prune=False)
        gated, batches, _ = self._tune(cluster, workflow, space)
        self._assert_gate_rule(batches)
        assert all(screen for candidates, screen, _ in batches if candidates > 1)
        assert gated.pruned == 42
        assert gated.assignment == exact.assignment
        assert gated.tuned_estimate_s == exact.tuned_estimate_s

    @pytest.mark.parametrize("name", ("weblog", "q21"))
    def test_identical_runs_do_identical_work(self, cluster, name):
        if name == "weblog":
            workflow, space = weblog_dag(gb(25)), None
        else:
            workflow = tpch_query(21)
            space = q21_capacity_space(workflow)
        runs = []
        for _ in range(2):
            result, batches, stats = self._tune(cluster, workflow, space)
            runs.append(
                (
                    result.pruned,
                    result.evaluations,
                    stats.hits,
                    stats.misses,
                    batches,
                )
            )
        assert runs[0] == runs[1]
