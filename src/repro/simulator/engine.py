"""Fluid discrete-event simulation of a DAG workflow on a cluster.

This engine is the reproduction's *ground truth* — the stand-in for the
paper's 11-node Hadoop testbed.  It executes a :class:`~repro.dag.Workflow`
mechanistically:

* jobs arrive when their DAG parents complete (Definition 1);
* a YARN-like placer (:class:`~repro.scheduler.yarn.YarnPlacer`) grants
  containers to pending tasks under DRF with memory-only admission;
* every running task executes its sub-stages (from
  :func:`~repro.mapreduce.phases.build_task_substages`) as fluid flows whose
  rates are re-solved by max-min sharing (:mod:`repro.simulator.sharing`)
  each time the set of active flows changes;
* per-task startup overheads, task waves, data skew and stage barriers all
  emerge from the mechanics rather than being asserted.

Crucially, the engine shares **no estimation code** with the BOE model or
Algorithm 1 — only the workload description.  Model accuracy measured
against these traces is therefore a genuine comparison, mirroring the
paper's model-vs-cluster evaluation.

Three event loops are provided, selected by ``SimulationConfig.engine``:

* ``"fast"`` (default) keeps per-event work proportional to the flows a
  state change actually affects.  Progress is *materialised lazily*: a run
  stores ``(progress, t_base, rate)`` and its true progress at time ``t`` is
  ``progress + (t - t_base) * rate``, so untouched flows cost nothing when
  the clock advances.  Every running sub-stage owns one entry in a
  completion-time heap; entries are invalidated (lazy cancellation) only
  when the run's node is re-solved.  A node's sharing problem is the
  composition of its runs' sharing classes, whose rates the simulation's
  :class:`~repro.simulator.sharing.SharingRegistry` solves once per
  distinct composition.
* ``"reference"`` is the historical loop that rescans and advances every
  active flow on every event — O(active flows) per event — and solves
  every node flow by flow (``solve_max_min(collapse=False)``).  It is
  retained as the oracle: ``benchmarks/bench_engine_scale.py`` and
  ``tests/simulator/test_engine_parity.py`` assert the two produce the same
  traces, so every accuracy result in EXPERIMENTS.md is preserved.
* ``"columnar"`` (:mod:`repro.simulator.columnar`) re-hosts the fast loop's
  state in flat numpy arrays — per-run progress/rate/deadline columns keyed
  by slot index, class rates from the same registry, and a deadline heap of
  index *cohorts* instead of objects — for million-task DAGs.
  ``tests/simulator/test_columnar_parity.py`` pins it against this engine.

Every loop takes its task pipelines (sub-stages, class ids, failure split)
from the one registry built in ``Simulator.__init__``.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.resources import Resource, ResourceVector
from repro.dag.workflow import Workflow
from repro.errors import JobAbortedError, SchedulingError, SimulationError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.phases import SubStageSpec
from repro.mapreduce.stage import StageKind
from repro.mapreduce.task import NO_SKEW, SkewModel, TaskSpec, build_task_specs
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.simulator.failures import NO_FAILURES, FailureModel
from repro.scheduler.container import container_for
from repro.scheduler.yarn import YarnPlacer
from repro.simulator.events import EventQueue
from repro.simulator.sharing import (
    POOL_NAMES,
    FlowSpec,
    Pipeline,
    SharingRegistry,
    solve_max_min,
)
from repro.simulator.trace import (
    SimulationResult,
    StageTrace,
    StateTrace,
    SubStageTrace,
    TaskTrace,
)

_EPS = 1e-9
_TIME_TOL = 1e-7

logger = logging.getLogger(__name__)

#: Recognised values of :attr:`SimulationConfig.engine`.
ENGINES = ("fast", "reference", "columnar")


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run.

    Attributes:
        policy: scheduler policy ("drf", "fifo", "fair").
        skew: per-task input-size skew model.
        enforce_vcores: strict DRF admission (default off = stock YARN).
        failures: task-attempt failure injection (fault tolerance).
        max_iterations: hard stop against engine bugs.
        engine: event-loop implementation — ``"fast"`` (lazy progress,
            completion heap, class rates per node composition from the
            sharing registry; the default), ``"reference"`` (the historical
            rescan-everything loop with per-flow sharing, kept as the
            trace-fidelity oracle) or ``"columnar"`` (numpy-backed flat
            state for million-task DAGs, same registry, trace-pinned
            against ``"fast"``).
    """

    policy: str = "drf"
    skew: SkewModel = NO_SKEW
    enforce_vcores: bool = False
    failures: FailureModel = NO_FAILURES
    max_iterations: int = 5_000_000
    engine: str = "fast"


class _RunState:
    """Mutable execution state of one launched task."""

    __slots__ = (
        "spec",
        "node",
        "container",
        "pipe",
        "stage_idx",
        "progress",
        "active",
        "t_launch",
        "t_work_start",
        "substage_traces",
        "flow_cache",
        "attempt",
        "fail_substage",
        "fail_fraction",
        "rate",
        "t_base",
        "deadline_token",
    )

    def __init__(
        self,
        spec: TaskSpec,
        node: int,
        container: ResourceVector,
        pipe: Pipeline,
        t_launch: float,
    ):
        self.spec = spec
        self.node = node
        self.container = container
        self.pipe = pipe
        self.stage_idx = 0
        self.progress = 0.0
        self.active = False  # False while paying the startup overhead
        self.t_launch = t_launch
        self.t_work_start = t_launch
        self.substage_traces: List[SubStageTrace] = []
        self.flow_cache: Optional[FlowSpec] = None
        self.attempt = 1
        # Failure injection: the substage index and intra-substage progress
        # fraction at which this attempt dies (None = attempt succeeds).
        self.fail_substage: Optional[int] = None
        self.fail_fraction = 1.0
        # Fast-engine bookkeeping: the solved progress rate in effect since
        # ``t_base`` (lazy materialisation) and the token of this run's live
        # entry in the completion-time heap (None = no entry).
        self.rate = 0.0
        self.t_base = t_launch
        self.deadline_token: Optional[int] = None

    @property
    def current(self) -> SubStageSpec:
        return self.pipe.substages[self.stage_idx]

    def flow_id(self) -> str:
        return f"{self.spec.task_id}/{self.stage_idx}"

    def build_flow(self) -> FlowSpec:
        if self.flow_cache is not None:
            return self.flow_cache
        sub = self.current
        demands: List[Tuple[str, float]] = []
        cap: Optional[float] = None
        for op in sub.ops:
            pool = _pool_id(op.resource, self.node)
            demands.append((pool, op.amount))
            if op.per_flow_cap is not None:
                op_cap = op.per_flow_cap / op.amount
                cap = op_cap if cap is None else min(cap, op_cap)
        self.flow_cache = FlowSpec(self.flow_id(), tuple(demands), cap)
        return self.flow_cache


class _JobState:
    """Mutable execution state of one job (bookkeeping per stage, because
    slow-start lets the map and reduce stages overlap)."""

    __slots__ = (
        "job",
        "arrived",
        "pending",
        "running",
        "completed",
        "total",
        "stage_open",
        "stage_bounds",
        "done",
        "maps_completed",
        "reduces_opened",
    )

    def __init__(self, job: MapReduceJob):
        self.job = job
        self.arrived = False
        self.pending: Dict[StageKind, Deque[TaskSpec]] = {}
        self.running: Dict[StageKind, int] = {}
        self.completed: Dict[StageKind, int] = {}
        self.total: Dict[StageKind, int] = {}
        self.stage_open: Dict[StageKind, bool] = {}
        self.stage_bounds: Dict[StageKind, List[float]] = {}
        self.done = False
        self.maps_completed = 0
        self.reduces_opened = False

    def open_kinds(self):
        return [k for k, is_open in self.stage_open.items() if is_open]

    @property
    def map_stage_open(self) -> bool:
        return self.stage_open.get(StageKind.MAP, False)


def _pool_id(resource: Resource, node: int) -> str:
    if resource not in POOL_NAMES:
        raise SimulationError(f"{resource} is not a throughput pool")
    return f"{POOL_NAMES[resource]}:{node}"


class Simulator:
    """Executes one workflow on one cluster and returns its trace.

    ``Simulator(cluster, workflow, config)`` with ``config.engine ==
    "columnar"`` constructs a
    :class:`~repro.simulator.columnar.ColumnarSimulator`; the other engines
    run on this class.
    """

    def __new__(
        cls,
        cluster: Cluster,
        workflow: Workflow,
        config: SimulationConfig = SimulationConfig(),
    ):
        if cls is Simulator and config.engine == "columnar":
            from repro.simulator.columnar import ColumnarSimulator

            cls = ColumnarSimulator
        return super().__new__(cls)

    def __init__(
        self,
        cluster: Cluster,
        workflow: Workflow,
        config: SimulationConfig = SimulationConfig(),
    ):
        if config.engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {config.engine!r}; pick one of {ENGINES}"
            )
        self._cluster = cluster
        self._workflow = workflow
        self._config = config
        self._placer = YarnPlacer(
            cluster,
            policy=config.policy,
            enforce_vcores=config.enforce_vcores,
            fast=config.engine != "reference",
        )
        self._jobs: Dict[str, _JobState] = {
            j.name: _JobState(j) for j in workflow.jobs
        }
        self._events = EventQueue()
        self._now = 0.0
        self._stage_traces: List[StageTrace] = []
        self._states: List[StateTrace] = []
        self._open_set: FrozenSet[Tuple[str, StageKind]] = frozenset()
        self._state_start = 0.0

        # Observability hooks resolve to None when disabled, so every hot-path
        # hook is a single predicated attribute test (the overhead budget in
        # benchmarks/bench_obs_overhead.py depends on this).  Spans/metrics
        # only *read* clocks and counts; no simulation arithmetic may ever
        # depend on them — instrumented runs stay bit-identical.
        tracer = get_tracer()
        metrics = get_metrics()
        self._otr = tracer if tracer.enabled else None
        self._state_span = None
        if metrics.enabled:
            self._ctr_launched = metrics.counter("sim.tasks_launched")
            self._ctr_failed = metrics.counter("sim.attempts_failed")
            self._ctr_solves = metrics.counter("sim.node_solves")
            self._ctr_events = metrics.counter("sim.events")
            self._ctr_deadlines = metrics.counter("sim.deadline_fires")
            self._ctr_sched = metrics.counter("sim.scheduler_decisions")
            self._hist_state = metrics.histogram("sim.state_duration_s")
        else:
            self._ctr_launched = None
            self._ctr_failed = None
            self._ctr_solves = None
            self._ctr_events = None
            self._ctr_deadlines = None
            self._ctr_sched = None
            self._hist_state = None
        node = cluster.node
        self._sharing = SharingRegistry(
            {
                "cpu": float(node.cores),
                "disk": node.disk_mb_s,
                "net": node.network_mb_s,
            },
            cluster.remote_fraction,
        )
        self._init_loop_state()

    def _init_loop_state(self) -> None:
        """State of the object event loops (``fast`` and ``reference``)."""
        workers = self._cluster.workers
        # Flows only ever touch their own node's pools, so the sharing
        # problem decomposes by node and only nodes whose flow set changed
        # need re-solving (a large speed-up).
        self._dirty_nodes = set(range(workers))
        self._rates: Dict[str, float] = {}  # reference loop: flow id -> rate
        self._runs: Dict[str, _RunState] = {}  # task_id -> run (launched, not finished)
        self._attempts: Dict[str, int] = {}  # task_id -> attempts launched
        self._first_launch: Dict[str, float] = {}  # task_id -> first attempt's launch
        self._failed_attempts: List[Tuple[str, int, float]] = []
        self._finished_tasks: List[TaskTrace] = []
        # Fast-engine structures: runs grouped by node (insertion-ordered so
        # symmetric tasks tie-break like the reference loop's run dict) and
        # a completion-time heap with lazy cancellation.
        self._node_runs: List[Dict[str, _RunState]] = [{} for _ in range(workers)]
        self._deadlines = EventQueue()

    # -- public API --------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the workflow to completion and return its trace."""
        if self._otr is None:
            return self._run_engine()
        with self._otr.span(
            "sim.run",
            workflow=self._workflow.name,
            engine=self._config.engine,
            workers=self._cluster.workers,
        ) as span:
            result = self._run_engine()
            span.set(
                makespan_s=result.makespan,
                tasks=result.task_count,
                states=len(result.states),
                failed_attempts=len(result.failed_attempts),
            )
            return result

    def _run_engine(self) -> SimulationResult:
        if self._config.engine == "fast":
            return self._run_fast()
        return self._run_reference()

    # -- reference event loop ----------------------------------------------------

    def _run_reference(self) -> SimulationResult:
        """The historical O(active flows)-per-event loop (trace oracle)."""
        node_pools = [
            {f"{name}:{i}": cap for name, cap in self._sharing.capacities.items()}
            for i in range(self._cluster.workers)
        ]
        for name in self._workflow.roots():
            self._arrive(name)
        self._schedule_pending()
        self._note_state_change()

        iterations = 0
        while True:
            iterations += 1
            if iterations > self._config.max_iterations:
                raise SimulationError(
                    f"simulation of {self._workflow.name!r} exceeded "
                    f"{self._config.max_iterations} iterations"
                )
            active = [
                r
                for r in self._runs.values()
                if r.active and not self._is_gated(r)
            ]
            if self._dirty_nodes:
                if self._ctr_solves is not None:
                    self._ctr_solves.inc(len(self._dirty_nodes))
                by_node: Dict[int, List[_RunState]] = {}
                for run in active:
                    if run.node in self._dirty_nodes:
                        by_node.setdefault(run.node, []).append(run)
                for node_idx in self._dirty_nodes:
                    node_runs = by_node.get(node_idx, [])
                    solved = solve_max_min(
                        [r.build_flow() for r in node_runs],
                        node_pools[node_idx],
                        collapse=False,
                    )
                    self._rates.update(solved)
                self._dirty_nodes.clear()
            rates = self._rates

            dt_complete = math.inf
            for run in active:
                rate = rates[run.flow_id()]
                if rate > _EPS:
                    target = self._shuffle_target(run)
                    if run.fail_substage == run.stage_idx:
                        target = min(target, run.fail_fraction)
                    dt_complete = min(
                        dt_complete, max(0.0, (target - run.progress)) / rate
                    )
            t_event = self._events.peek_time()
            t_next = min(
                self._now + dt_complete,
                t_event if t_event is not None else math.inf,
            )
            if t_next == math.inf:
                if self._runs or any(
                    not js.done for js in self._jobs.values()
                ):
                    self._raise_stall(active, rates)
                break

            dt = t_next - self._now
            for run in active:
                target = self._shuffle_target(run)
                run.progress = min(
                    target, run.progress + dt * rates[run.flow_id()]
                )
                if target < 1.0 and run.progress >= target - _EPS:
                    # Newly gated at the availability boundary: stop it from
                    # consuming bandwidth until more map output exists.
                    self._dirty_nodes.add(run.node)
            self._now = t_next

            for payload in self._events.pop_all_at(self._now, tol=_TIME_TOL):
                kind, task_id = payload
                if kind == "ready":
                    run = self._runs.get(task_id)
                    if run is not None:
                        run.active = True
                        run.t_work_start = self._now
                        self._dirty_nodes.add(run.node)

            for run in list(self._runs.values()):
                if not run.active:
                    continue
                if (
                    run.fail_substage == run.stage_idx
                    and run.progress >= run.fail_fraction - _EPS
                ):
                    self._kill_attempt(run)
                elif run.progress >= 1.0 - _EPS:
                    self._complete_substage(run)

            self._schedule_pending()
            self._note_state_change()

            if all(js.done for js in self._jobs.values()) and not self._runs:
                break

        if self._ctr_events is not None:
            self._ctr_events.inc(iterations)
        return self._build_result()

    # -- fast event loop ----------------------------------------------------------

    def _run_fast(self) -> SimulationResult:
        """Event loop with lazy progress and a completion-time heap.

        Per event, only the flows on *dirty* nodes are touched: their
        progress is materialised, their node's sharing problem re-solved
        (over equivalence classes) and their heap deadlines re-issued.
        Flows on clean nodes keep their piecewise-constant rates, so their
        stored deadlines stay exact — no rescan, no advancement.
        """
        for name in self._workflow.roots():
            self._arrive(name)
        self._schedule_pending()
        self._note_state_change()

        deadlines = self._deadlines
        events = self._events
        iterations = 0
        while True:
            iterations += 1
            if iterations > self._config.max_iterations:
                raise SimulationError(
                    f"simulation of {self._workflow.name!r} exceeded "
                    f"{self._config.max_iterations} iterations"
                )
            if self._dirty_nodes:
                if self._ctr_solves is not None:
                    self._ctr_solves.inc(len(self._dirty_nodes))
                for node_idx in sorted(self._dirty_nodes):
                    self._solve_node(node_idx)
                self._dirty_nodes.clear()

            t_deadline = deadlines.peek_time()
            t_event = events.peek_time()
            t_next = min(
                t_deadline if t_deadline is not None else math.inf,
                t_event if t_event is not None else math.inf,
            )
            if t_next == math.inf:
                if self._runs or any(
                    not js.done for js in self._jobs.values()
                ):
                    active = [
                        r
                        for r in self._runs.values()
                        if r.active and not self._is_gated(r)
                    ]
                    self._raise_stall(
                        active, {r.flow_id(): r.rate for r in active}
                    )
                break
            self._now = t_next

            # Fire every deadline inside its run's _EPS progress window of
            # t_next, not only exact matches.  The reference loop checks
            # ``progress >= target - _EPS`` for *all* runs at every event, so
            # a run within _EPS of its target completes at the current event
            # even if its own predicted instant is marginally later; a
            # deadline at t_d is that close exactly when
            # ``(t_d - now) * rate <= _EPS``.  Without this, symmetric waves
            # whose deadlines differ by ulp noise would complete at separate
            # micro-instants and the scheduler would see different batches.
            while True:
                head = deadlines.peek()
                if head is None:
                    break
                t_d, task_id = head
                run = self._runs.get(task_id)
                if run is None or run.deadline_token is None:
                    deadlines.pop()  # pragma: no cover - cancel() precedes removal
                    continue
                if (t_d - t_next) * run.rate > _EPS:
                    break
                deadlines.pop()
                self._fire_deadline(run)

            for payload in events.pop_all_at(t_next, tol=_TIME_TOL):
                kind, task_id = payload
                if kind == "ready":
                    run = self._runs.get(task_id)
                    if run is not None:
                        run.active = True
                        run.t_work_start = self._now
                        run.t_base = self._now
                        self._dirty_nodes.add(run.node)

            self._schedule_pending()
            self._note_state_change()

            if all(js.done for js in self._jobs.values()) and not self._runs:
                break

        if self._ctr_events is not None:
            self._ctr_events.inc(iterations)
        return self._build_result()

    def _solve_node(self, node_idx: int) -> None:
        """Re-share one dirty node and refresh its runs' heap deadlines."""
        now = self._now
        included: List[_RunState] = []
        counts: Dict[int, int] = {}
        for run in self._node_runs[node_idx].values():
            if not run.active:
                continue  # still paying the startup overhead
            target = self._shuffle_target(run)
            if run.rate > 0.0 and now > run.t_base:
                run.progress = min(
                    target, run.progress + (now - run.t_base) * run.rate
                )
            run.t_base = now
            if target < 1.0 and run.progress >= target - _EPS:
                # Gated at the availability boundary: excluded from the
                # share until more map output exists (rate pinned to zero so
                # later materialisations add no progress).
                run.rate = 0.0
                self._cancel_deadline(run)
                continue
            included.append(run)
            scid = run.pipe.scids[run.stage_idx]
            counts[scid] = counts.get(scid, 0) + 1
        if not included:
            return
        rate_of = self._sharing.rates(tuple(sorted(counts.items())))
        for run in included:
            run.rate = rate_of[run.pipe.scids[run.stage_idx]]
            self._push_deadline(run)

    def _push_deadline(self, run: _RunState) -> None:
        """(Re-)issue the heap entry for this run's next decision point."""
        self._cancel_deadline(run)
        if run.rate <= _EPS:
            return  # starved: some future re-share must revive it
        target = self._shuffle_target(run)
        if run.fail_substage == run.stage_idx:
            target = min(target, run.fail_fraction)
        when = self._now + max(0.0, target - run.progress) / run.rate
        run.deadline_token = self._deadlines.push(when, run.spec.task_id)

    def _cancel_deadline(self, run: _RunState) -> None:
        if run.deadline_token is not None:
            self._deadlines.cancel(run.deadline_token)
            run.deadline_token = None

    def _fire_deadline(self, run: _RunState) -> None:
        """A run reached its predicted decision point: materialise and act."""
        if self._ctr_deadlines is not None:
            self._ctr_deadlines.inc()
        run.deadline_token = None
        target = self._shuffle_target(run)
        if run.rate > 0.0 and self._now > run.t_base:
            run.progress = min(
                target, run.progress + (self._now - run.t_base) * run.rate
            )
        run.t_base = self._now
        if (
            run.fail_substage == run.stage_idx
            and run.progress >= run.fail_fraction - _EPS
        ):
            self._kill_attempt(run)
        elif run.progress >= 1.0 - _EPS:
            self._complete_substage(run)
        elif target < 1.0 and run.progress >= target - _EPS:
            # Newly gated: release its bandwidth back to the node.
            run.rate = 0.0
            self._dirty_nodes.add(run.node)
        else:
            # The target moved under us (e.g. more map output appeared at
            # this very instant): let the next re-share re-issue a deadline.
            self._dirty_nodes.add(run.node)

    # -- job / stage lifecycle -----------------------------------------------------

    def _arrive(self, name: str) -> None:
        js = self._jobs[name]
        if js.arrived:
            raise SimulationError(f"job {name!r} arrived twice")
        js.arrived = True
        self._open_stage(js, StageKind.MAP)

    def _open_stage(self, js: _JobState, kind: StageKind) -> None:
        specs = build_task_specs(js.job, kind, self._config.skew)
        # A deque, not a list: _launch consumes from the front and retries
        # re-queue at the back, which is O(n) total instead of pop(0)'s O(n²)
        # — material once stages hold 10⁵+ pending tasks.
        js.pending[kind] = deque(specs)
        js.running[kind] = 0
        js.completed[kind] = 0
        js.total[kind] = len(specs)
        js.stage_open[kind] = True
        js.stage_bounds[kind] = [self._now, self._now]
        if kind is StageKind.REDUCE:
            js.reduces_opened = True
        if js.total[kind] == 0:
            self._close_stage(js, kind)

    def _close_stage(self, js: _JobState, kind: StageKind) -> None:
        js.stage_open[kind] = False
        js.stage_bounds[kind][1] = self._now
        self._stage_traces.append(
            StageTrace(
                job=js.job.name,
                kind=kind,
                t_start=js.stage_bounds[kind][0],
                t_end=self._now,
                num_tasks=js.job.num_tasks(kind),
            )
        )
        if kind is StageKind.MAP and not js.job.is_map_only:
            # With slow-start < 1 the reduce stage already opened while the
            # maps were running; its gated shuffles are free to drain now.
            if not js.reduces_opened:
                self._open_stage(js, StageKind.REDUCE)
            return
        if kind is StageKind.REDUCE or js.job.is_map_only:
            js.done = True
            self._release_children(js.job.name)

    def _release_children(self, name: str) -> None:
        for child in sorted(self._workflow.children(name)):
            if self._jobs[child].arrived:
                continue
            if all(self._jobs[p].done for p in self._workflow.parents(child)):
                self._arrive(child)

    # -- task lifecycle --------------------------------------------------------------

    def _launch(self, js: _JobState, node: int, kind: StageKind) -> None:
        spec = js.pending[kind].popleft()
        container = container_for(js.job, spec.kind)
        pipe = self._sharing.pipeline(js.job, spec.kind, spec.input_mb)
        run = _RunState(spec, node, container, pipe, self._now)
        attempt = self._attempts.get(spec.task_id, 0) + 1
        self._attempts[spec.task_id] = attempt
        self._first_launch.setdefault(spec.task_id, self._now)
        self._plan_failure(run, attempt=attempt)
        if self._ctr_launched is not None:
            self._ctr_launched.inc()
        self._runs[spec.task_id] = run
        self._node_runs[node][spec.task_id] = run
        self._dirty_nodes.add(node)
        js.running[kind] += 1
        overhead = js.job.config.task_overhead_s
        if overhead > 0:
            self._events.push(self._now + overhead, ("ready", spec.task_id))
        else:
            run.active = True

    def _plan_failure(self, run: _RunState, attempt: int) -> None:
        """Decide whether (and where) this attempt dies, deterministically."""
        run.attempt = attempt
        model = self._config.failures
        if not model.enabled:
            return
        fails, fail_at = model.draw(run.spec.task_id, attempt)
        if fails:
            run.fail_substage, run.fail_fraction = run.pipe.failure_point(fail_at)

    def _kill_attempt(self, run: _RunState) -> None:
        """A failed attempt: release the container and re-queue the task."""
        spec = run.spec
        model = self._config.failures
        if run.attempt >= model.max_attempts:
            raise JobAbortedError(
                f"task {spec.task_id} failed {run.attempt} attempts "
                f"(limit {model.max_attempts}); job aborted"
            )
        self._rates.pop(run.flow_id(), None)
        self._cancel_deadline(run)
        self._dirty_nodes.add(run.node)
        del self._runs[spec.task_id]
        self._node_runs[run.node].pop(spec.task_id, None)
        self._placer.release(spec.job_name, run.node, run.container)
        js = self._jobs[spec.job_name]
        js.running[spec.kind] -= 1
        # Re-queue at the back: the scheduler hands the retry a fresh
        # container on its next pass, with a new startup overhead.
        js.pending[spec.kind].append(spec)
        if self._ctr_failed is not None:
            self._ctr_failed.inc()
        self._failed_attempts.append((spec.task_id, run.attempt, self._now))

    def _complete_substage(self, run: _RunState) -> None:
        run.substage_traces.append(
            SubStageTrace(run.current.name, run.t_work_start, self._now)
        )
        self._rates.pop(run.flow_id(), None)
        self._cancel_deadline(run)
        self._dirty_nodes.add(run.node)
        run.stage_idx += 1
        run.progress = 0.0
        run.rate = 0.0
        run.flow_cache = None
        run.t_work_start = self._now
        run.t_base = self._now
        if run.stage_idx < len(run.pipe.substages):
            return
        # Task finished.
        spec = run.spec
        del self._runs[spec.task_id]
        self._node_runs[run.node].pop(spec.task_id, None)
        self._placer.release(spec.job_name, run.node, run.container)
        self._finished_tasks.append(
            TaskTrace(
                job=spec.job_name,
                kind=spec.kind,
                index=spec.index,
                node=run.node,
                input_mb=spec.input_mb,
                t_ready=self._first_launch.pop(spec.task_id, run.t_launch),
                t_start=run.t_launch,
                t_end=self._now,
                substages=tuple(run.substage_traces),
            )
        )
        js = self._jobs[spec.job_name]
        js.running[spec.kind] -= 1
        js.completed[spec.kind] += 1
        if spec.kind is StageKind.MAP:
            js.maps_completed += 1
            self._on_map_completed(js)
        if (
            js.completed[spec.kind] >= js.total[spec.kind]
            and not js.pending[spec.kind]
            and js.running[spec.kind] == 0
        ):
            self._close_stage(js, spec.kind)

    def _on_map_completed(self, js: _JobState) -> None:
        """Slow-start bookkeeping after one of ``js``'s maps finishes."""
        cfg = js.job.config
        if js.job.is_map_only:
            return
        if not js.reduces_opened and cfg.slowstart < 1.0:
            threshold = math.ceil(cfg.slowstart * js.job.num_map_tasks)
            if js.maps_completed >= threshold:
                self._open_stage(js, StageKind.REDUCE)
        if js.reduces_opened and js.map_stage_open:
            # Gated shuffles may now drain further; force a re-solve on the
            # nodes hosting them so freed targets take effect.
            for run in self._runs.values():
                if run.spec.job_name == js.job.name and run.spec.kind is StageKind.REDUCE:
                    self._dirty_nodes.add(run.node)

    # -- scheduling --------------------------------------------------------------------

    def _schedule_pending(self) -> None:
        """Grant free capacity.

        Each job offers its map queue before its reduce queue (Hadoop
        prioritises maps *within* an application — that is how slow-started
        reduces coexist with the remaining map waves), while the cluster
        policy arbitrates between jobs on every grant.
        """
        kinds = (StageKind.MAP, StageKind.REDUCE)
        requests: Dict[str, List[Tuple[ResourceVector, int]]] = {}
        for name, js in self._jobs.items():
            if not js.arrived or js.done:
                continue
            queues = [
                (container_for(js.job, kind), len(js.pending.get(kind, [])))
                if js.stage_open.get(kind, False)
                else (container_for(js.job, kind), 0)
                for kind in kinds
            ]
            if any(count for _, count in queues):
                requests[name] = queues
        if not requests:
            return
        grants = 0
        for name, node, queue_idx in self._placer.assign_queues(requests):
            self._launch(self._jobs[name], node, kinds[queue_idx])
            grants += 1
        if self._ctr_sched is not None and grants:
            self._ctr_sched.inc(grants)

    # -- state tracking -------------------------------------------------------------------

    def _current_open_set(self) -> FrozenSet[Tuple[str, StageKind]]:
        out: Set[Tuple[str, StageKind]] = set()
        for name, js in self._jobs.items():
            if js.arrived and not js.done:
                for kind in js.open_kinds():
                    out.add((name, kind))
        return frozenset(out)

    def _note_state_change(self) -> None:
        current = self._current_open_set()
        if current == self._open_set:
            return
        recorded = False
        if self._now > self._state_start + _TIME_TOL and self._open_set:
            self._states.append(
                StateTrace(
                    index=len(self._states) + 1,
                    t_start=self._state_start,
                    t_end=self._now,
                    running=self._open_set,
                )
            )
            recorded = True
            if self._hist_state is not None:
                self._hist_state.observe(self._now - self._state_start)
        if self._otr is not None:
            self._roll_state_span(current, recorded)
        self._open_set = current
        self._state_start = self._now

    def _roll_state_span(self, current: FrozenSet[Tuple[str, StageKind]], recorded: bool) -> None:
        """Close the wall-clock span of the ending state, open the next one.

        Spans measure where the *model's own* time goes per simulated state;
        ``recorded=False`` marks zero-duration blips that produced no
        :class:`StateTrace`.
        """
        if self._state_span is not None:
            self._otr.finish(
                self._state_span, sim_t_end=self._now, recorded=recorded
            )
            self._state_span = None
        if current:
            self._state_span = self._otr.begin(
                "sim.state",
                index=len(self._states) + 1,
                sim_t_start=self._now,
                running=",".join(
                    sorted(f"{j}/{k.value}" for j, k in current)
                ),
            )

    def _close_state(self) -> None:
        if self._open_set and self._now > self._state_start + _TIME_TOL:
            self._states.append(
                StateTrace(
                    index=len(self._states) + 1,
                    t_start=self._state_start,
                    t_end=self._now,
                    running=self._open_set,
                )
            )
            if self._hist_state is not None:
                self._hist_state.observe(self._now - self._state_start)
        if self._otr is not None and self._state_span is not None:
            self._otr.finish(self._state_span, sim_t_end=self._now, recorded=True)
            self._state_span = None

    # -- result assembly ------------------------------------------------------------------

    def _build_result(self) -> SimulationResult:
        self._close_state()
        logger.debug(
            "simulated %s: makespan=%.3fs tasks=%d states=%d failures=%d",
            self._workflow.name,
            self._now,
            len(self._finished_tasks),
            len(self._states),
            len(self._failed_attempts),
        )
        return SimulationResult(
            workflow_name=self._workflow.name,
            makespan=self._now,
            tasks=sorted(
                self._finished_tasks, key=lambda t: (t.t_start, t.job, t.index)
            ),
            stages=sorted(self._stage_traces, key=lambda s: (s.t_start, s.job)),
            states=self._states,
            failed_attempts=list(self._failed_attempts),
        )

    # -- slow-start gating ----------------------------------------------------------------

    def _shuffle_target(self, run: _RunState) -> float:
        """How far this run's current sub-stage may progress right now.

        A reduce task launched by slow-start can only copy map output that
        exists: its shuffle sub-stage is capped at the completed-map
        fraction until the map stage closes.
        """
        if run.stage_idx != 0 or not run.pipe.gate0:
            return 1.0
        js = self._jobs[run.spec.job_name]
        if not js.map_stage_open:
            return 1.0
        total = js.job.num_map_tasks
        return js.maps_completed / total if total else 1.0

    def _is_gated(self, run: _RunState) -> bool:
        """True when the run sits at its availability boundary (stalled)."""
        target = self._shuffle_target(run)
        return target < 1.0 and run.progress >= target - _EPS

    # -- diagnostics --------------------------------------------------------------------------

    def _raise_stall(self, active: List[_RunState], rates: Dict[str, float]) -> None:
        stuck_jobs = [n for n, js in self._jobs.items() if not js.done]
        zero_flows = [r.flow_id() for r in active if rates.get(r.flow_id(), 0.0) <= _EPS]
        if zero_flows:
            raise SimulationError(
                f"stall in {self._workflow.name!r}: flows {zero_flows} have zero "
                "rate with no pending events"
            )
        pending = {
            n: sum(len(q) for q in js.pending.values())
            for n, js in self._jobs.items()
            if any(js.pending.values())
        }
        if pending and not self._runs:
            raise SchedulingError(
                f"deadlock in {self._workflow.name!r}: pending tasks {pending} "
                "cannot be placed and nothing is running to free capacity"
            )
        raise SimulationError(
            f"stall in {self._workflow.name!r}: unfinished jobs {stuck_jobs}, "
            f"{len(self._runs)} runs in flight, no future events"
        )


def simulate(
    workflow: Workflow,
    cluster: Cluster,
    config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it.

    ``config=None`` constructs a fresh default :class:`SimulationConfig`
    inside the call — a shared default *instance* in the signature would be
    evaluated once at import time and look mutable to callers.
    """
    if config is None:
        config = SimulationConfig()
    return Simulator(cluster, workflow, config).run()
