"""Columnar simulation engine: flat numpy state for million-task DAGs.

The fast engine (:mod:`repro.simulator.engine`) already made per-event work
proportional to the flows an event touches, but it still spends a Python
object per run (``_RunState``), a dict entry per flow and a heap entry per
deadline — at 10⁵–10⁶ tasks the interpreter overhead of *touching* that
state dominates.  This engine re-hosts the same event loop on columns:

* every launched attempt occupies a **slot** in a set of parallel numpy
  arrays (progress, rate, re-base time, sub-stage index, failure plan, …)
  keyed by slot index; per-task facts (job, index, input size, attempt
  count) live in a second set of arrays keyed by task uid;
* sub-stage pipelines and their sharing classes come from the simulation's
  :class:`~repro.simulator.sharing.SharingRegistry`, the one the fast loop
  uses; this engine keeps only per-pipeline numpy lookup columns (sub-stage
  count, first class id, gate flag) over its ids.  A node's sharing problem
  is a small (class id → count) composition, and identical compositions
  across nodes resolve through one cached registry solve;
* the deadline heap (:class:`~repro.simulator.events.CohortDeadlineHeap`)
  stores index *cohorts* — arrays of slots sharing one class, rate and
  predicted instant — validated by per-slot epochs instead of tokens.

Fidelity discipline is identical to the fast engine's: the object loops are
the oracle, and ``tests/simulator/test_columnar_parity.py`` pins this
engine's traces against them across the workload catalog.  Rates are
bit-identical by construction: both engines read them from the same
registry code over the same canonical class order; the only tolerated divergence is the ordering of same-instant decisions,
which the parity suite bounds at 1e-9 relative.
"""

from __future__ import annotations

import logging
import math
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import JobAbortedError, SchedulingError, SimulationError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.stage import StageKind, stage_input_mb
from repro.scheduler.container import container_for
from repro.simulator.engine import (
    Simulator,
    _EPS,
    _TIME_TOL,
    _JobState,
)
from repro.obs.metrics import get_metrics
from repro.simulator.events import CohortDeadlineHeap
from repro.simulator.trace import (
    SimulationResult,
    SubStageTrace,
    TaskTrace,
)

logger = logging.getLogger(__name__)

_KINDS = (StageKind.MAP, StageKind.REDUCE)

#: A re-share reads the node index instead of scanning the live-slot window
#: when the window holds at least _INDEX_MIN_WINDOW slots and its dirty
#: nodes are at most 1/_INDEX_DIRTY_SHARE of the cluster: below ~4k slots
#: a scan (a few numpy calls) costs less than an index read (~20).  The
#: index is rebuilt once its stale part (the unindexed tail plus the dead
#: stretch below the floor) exceeds 1/_INDEX_STALE_SHARE of the window.
_INDEX_MIN_WINDOW = 4096
_INDEX_DIRTY_SHARE = 8
_INDEX_STALE_SHARE = 8


def _unique_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array, and each row's index among them.

    One 1-D unique over each row's bytes.  ``np.unique(axis=0)`` sorts a
    structured view field by field and costs several times as much (2.2 ms
    against 0.3 ms on 3,261 two-class rows, ~50 µs against ~19 µs on a
    few; 2-vCPU VM).  The distinct rows come out in byte order rather
    than numeric order, which is fine where they are only reached through
    the returned indices.
    """
    keys = np.ascontiguousarray(rows).view(
        np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    ).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], inverse


class _TaskQueue:
    """Pending-task queue as a uid block plus a retry tail.

    Mirrors the object engines' deque semantics — the initial stage
    population drains front-to-back, failed attempts re-queue behind it —
    without materialising a Python object per task.
    """

    __slots__ = ("uids", "head", "retries", "rhead")

    def __init__(self, uids: np.ndarray):
        self.uids = uids
        self.head = 0
        self.retries: List[int] = []
        self.rhead = 0

    def __len__(self) -> int:
        return (len(self.uids) - self.head) + (len(self.retries) - self.rhead)

    def pop_batch(self, n: int) -> np.ndarray:
        """Pop the next ``n`` uids: the initial block first, then retries."""
        avail = len(self.uids) - self.head
        if n <= avail:
            out = self.uids[self.head : self.head + n]
            self.head += n
            return out
        parts = [self.uids[self.head :]]
        self.head = len(self.uids)
        take = n - avail
        parts.append(
            np.asarray(self.retries[self.rhead : self.rhead + take], dtype=np.int64)
        )
        self.rhead += take
        return np.concatenate(parts) if avail else parts[1]


class ColumnarResult(SimulationResult):
    """Simulation result whose per-task traces materialise lazily.

    A million-task run produces a million :class:`TaskTrace` objects nobody
    may ever look at; building them eagerly would cost more than the whole
    columnar simulation.  Neither the canonical task order nor the trace
    columns exist until first read: :attr:`task_count` answers from a
    counter, :meth:`durations_array` builds the columns on its first call
    and ``tasks`` materialises the objects on its first read.
    """

    def __init__(
        self,
        workflow_name: str,
        makespan: float,
        stages,
        states,
        failed_attempts,
        task_builder: Callable[[], List[TaskTrace]],
        columns_builder: Callable[[], Dict[str, np.ndarray]],
        task_count: int,
        job_names: List[str],
        column_bytes: int = 0,
    ):
        # Deliberately not the dataclass __init__: ``tasks`` is a lazy
        # property here, not a field.
        self.workflow_name = workflow_name
        self.makespan = makespan
        self.stages = stages
        self.states = states
        self.failed_attempts = failed_attempts
        self._task_builder = task_builder
        self._tasks_cache: Optional[List[TaskTrace]] = None
        self._columns_builder = columns_builder
        self._columns: Optional[Dict[str, np.ndarray]] = None
        self._task_count = task_count
        self._job_index = {name: i for i, name in enumerate(job_names)}
        #: Peak bytes held by the simulator's slot/task columns — the
        #: never-reused-slot design trades memory for speed, and the scale
        #: bench reports this next to tasks/s.
        self.column_bytes = column_bytes

    @property
    def tasks(self) -> List[TaskTrace]:
        if self._tasks_cache is None:
            self._tasks_cache = self._task_builder()
        return self._tasks_cache

    def _trace_columns(self) -> Dict[str, np.ndarray]:
        if self._columns is None:
            self._columns = self._columns_builder()
        return self._columns

    def __getstate__(self) -> Dict:
        # The lazy builders are bound to simulator internals and cannot
        # cross a process boundary.  A trace that is pickled at all was
        # explicitly kept (e.g. an ensemble exemplar shipping home from a
        # pool worker), so materialise the tasks and columns once and drop
        # the builders — the unpickled copy serves both from its caches.
        _ = self.tasks
        self._trace_columns()
        state = self.__dict__.copy()
        state["_task_builder"] = None
        state["_columns_builder"] = None
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)

    @property
    def task_count(self) -> int:
        return self._task_count

    def durations_array(
        self,
        job: str,
        kind: Optional[StageKind] = None,
        include_overhead: bool = False,
    ) -> np.ndarray:
        """Task durations for one job straight from the trace columns.

        Same values, same canonical task order as iterating ``tasks_of`` —
        ``t_end - t_start`` are the identical floats — minus the object
        materialisation.
        """
        jid = self._job_index.get(job)
        if jid is None:
            return np.empty(0)
        cols = self._trace_columns()
        sel = cols["job"] == jid
        if kind is not None:
            sel &= cols["kind"] == (0 if kind is StageKind.MAP else 1)
        start = cols["t_start"] if include_overhead else cols["work_t0"]
        return cols["t_end"][sel] - start[sel]


class ColumnarSimulator(Simulator):
    """The fast event loop, re-hosted on flat numpy columns."""

    #: 1-D per-slot columns, grown geometrically and never reused: a task's
    #: retry occupies a fresh slot, so trace history needs no copying.
    _SLOT_FIELDS = (
        ("_s_uid", np.int64),
        ("_s_node", np.int32),
        ("_s_pid", np.int32),
        ("_s_scid", np.int32),
        ("_s_stage", np.int32),
        ("_s_attempt", np.int32),
        ("_s_fail_sub", np.int32),
        ("_s_progress", np.float64),
        ("_s_rate", np.float64),
        ("_s_tbase", np.float64),
        ("_s_tlaunch", np.float64),
        ("_s_twork", np.float64),
        ("_s_fail_frac", np.float64),
        ("_s_epoch", np.int64),
        ("_s_active", np.bool_),
        ("_s_gate", np.bool_),
        ("_s_dead", np.bool_),
    )

    _TASK_FIELDS = (
        ("_t_job", np.int32),
        ("_t_kind", np.int8),
        ("_t_index", np.int32),
        ("_t_pid", np.int32),
        ("_t_attempts", np.int32),
        ("_t_input", np.float64),
        ("_t_first", np.float64),
    )

    def _init_loop_state(self) -> None:
        """Registries, slot/task columns and the cohort heap of this loop."""
        cluster = self._cluster
        # Job registry: stable integer ids in workflow order.
        self._job_names = [j.name for j in self._workflow.jobs]
        self._jid_of = {name: i for i, name in enumerate(self._job_names)}
        self._js_by_jid = [self._jobs[name] for name in self._job_names]
        rank_of = {n: r for r, n in enumerate(sorted(self._job_names))}
        self._job_rank = np.array(
            [rank_of[n] for n in self._job_names], dtype=np.int64
        )
        # (job, node) -> count of this job's live reduce attempts, for
        # slow-start dirty marking (the object engines scan all runs; the
        # set of nodes marked must be identical, hence exact per-node live
        # counts).
        self._n_nodes = cluster.workers
        self._reduce_counts = np.zeros(
            (len(self._job_names), cluster.workers), dtype=np.int64
        )

        # Lookup columns over the registry's pipeline ids (its list, which
        # ``_pipes`` aliases, grows as tasks are interned).
        self._pipes = self._sharing.pipelines
        self._pipe_nsub = np.zeros(16, dtype=np.int32)
        self._pipe_scid0 = np.zeros(16, dtype=np.int32)
        self._pipe_gate0 = np.zeros(16, dtype=np.bool_)

        # Slot / task columns.
        self._slot_cap = 256
        self._n_slots = 0
        for name, dtype in self._SLOT_FIELDS:
            setattr(self, name, np.zeros(self._slot_cap, dtype=dtype))
        self._max_sub = 1
        self._sub_t0 = np.zeros((self._slot_cap, self._max_sub))
        self._sub_t1 = np.zeros((self._slot_cap, self._max_sub))
        self._task_cap = 256
        self._n_tasks = 0
        for name, dtype in self._TASK_FIELDS:
            setattr(self, name, np.zeros(self._task_cap, dtype=dtype))

        # Dirty nodes as one bool per node (every node starts dirty, like
        # the object loops' set), and the live-slot window: every slot
        # below ``_low`` is dead, so a dirty node's live slots lie in
        # ``[_low, _n_slots)``.  Slot ids are allocated monotonically and
        # never reused, so a launch only ever extends the window at the
        # top, and ascending slot order *is* the object engines'
        # within-node insertion (tie-break) order.
        self._dirty = np.ones(self._n_nodes, dtype=np.bool_)
        self._low = 0
        # The node index over the window (see _indexed_slots), built by the
        # first small re-share that needs it: the slots of
        # ``[_ix_start, _ix_end)`` sorted by node, as offsets from
        # ``_ix_start`` (``_ix_slots``), and each node's offset into them
        # (``_ix_off``, one more than nodes).
        self._ix_start = self._ix_end = -1
        self._ix_slots = self._ix_off = None

        # Cohort deadline heap.
        self._dl = CohortDeadlineHeap()
        self._epoch = 0
        self._live = 0
        self._done_slots: List[np.ndarray] = []
        self._done_count = 0
        self._failed_raw: List[Tuple[int, int, float]] = []

        # Phase attribution (satellite of the cohort-batching work): wall
        # time per hot-loop phase and fired-cohort sizes, riding the same
        # enabled-or-None discipline as the base counters.  Timers only
        # read the clock — instrumented runs stay bit-identical.
        metrics = get_metrics()
        if metrics.enabled:
            self._hist_cohort = metrics.histogram("engine.cohort_size")
            self._phase_hists = {
                phase: metrics.labeled_histogram("engine.phase_time", phase=phase)
                for phase in ("pop", "solve", "launch", "bookkeep")
            }
        else:
            self._hist_cohort = None
            self._phase_hists = None

    # -- capacity management ---------------------------------------------------

    def _alloc_slots(self, n: int) -> np.ndarray:
        need = self._n_slots + n
        if need > self._slot_cap:
            new_cap = max(need, self._slot_cap * 2)
            for name, dtype in self._SLOT_FIELDS:
                old = getattr(self, name)
                arr = np.zeros(new_cap, dtype=dtype)
                arr[: self._n_slots] = old[: self._n_slots]
                setattr(self, name, arr)
            for name in ("_sub_t0", "_sub_t1"):
                old = getattr(self, name)
                arr = np.zeros((new_cap, self._max_sub))
                arr[: self._n_slots, : old.shape[1]] = old[: self._n_slots]
                setattr(self, name, arr)
            self._slot_cap = new_cap
        base = self._n_slots
        self._n_slots = need
        return np.arange(base, need, dtype=np.int64)

    def _alloc_tasks(self, n: int) -> np.ndarray:
        need = self._n_tasks + n
        if need > self._task_cap:
            new_cap = max(need, self._task_cap * 2)
            for name, dtype in self._TASK_FIELDS:
                old = getattr(self, name)
                arr = np.zeros(new_cap, dtype=dtype)
                arr[: self._n_tasks] = old[: self._n_tasks]
                setattr(self, name, arr)
            self._task_cap = new_cap
        base = self._n_tasks
        self._n_tasks = need
        return np.arange(base, need, dtype=np.int64)

    def _grow_sub_columns(self, new_max: int) -> None:
        for name in ("_sub_t0", "_sub_t1"):
            old = getattr(self, name)
            arr = np.zeros((self._slot_cap, new_max))
            arr[:, : old.shape[1]] = old
            setattr(self, name, arr)
        self._max_sub = new_max

    # -- pipelines -------------------------------------------------------------

    def _pipeline_for(self, job: MapReduceJob, kind: StageKind, input_mb: float) -> int:
        """Registry pipeline id of one task, its lookup columns filled on
        first sight."""
        known = len(self._pipes)
        pipe = self._sharing.pipeline(job, kind, input_mb)
        pid = pipe.pid
        if pid < known:
            return pid
        if pid >= len(self._pipe_nsub):
            new_cap = max(len(self._pipe_nsub) * 2, pid + 1)
            for name in ("_pipe_nsub", "_pipe_scid0", "_pipe_gate0"):
                old = getattr(self, name)
                arr = np.zeros(new_cap, dtype=old.dtype)
                arr[: len(old)] = old
                setattr(self, name, arr)
        nsub = len(pipe.substages)
        self._pipe_nsub[pid] = nsub
        self._pipe_scid0[pid] = pipe.scids[0]
        self._pipe_gate0[pid] = pipe.gate0
        if nsub > self._max_sub:
            self._grow_sub_columns(nsub)
        return pid

    def _task_id_str(self, uid: int) -> str:
        name = self._job_names[int(self._t_job[uid])]
        prefix = "m" if self._t_kind[uid] == 0 else "r"
        return f"{name}/{prefix}{int(self._t_index[uid])}"

    # -- job / stage lifecycle ---------------------------------------------------

    def _open_stage(self, js: _JobState, kind: StageKind) -> None:
        job = js.job
        n = job.num_tasks(kind)
        jid = self._jid_of[job.name]
        uids = self._alloc_tasks(n)
        if n:
            total = stage_input_mb(job, kind)
            skew = self._config.skew
            sigma = skew.sigma_for(kind)
            sizes = skew.task_sizes(
                total, n, salt=f"{job.name}/{kind.value}", sigma=sigma
            )
            self._t_job[uids] = jid
            self._t_kind[uids] = 0 if kind is StageKind.MAP else 1
            self._t_index[uids] = np.arange(n)
            self._t_input[uids] = sizes
            self._t_first[uids] = np.nan
            self._t_attempts[uids] = 0
            if n == 1 or sigma == 0.0 or total == 0.0:
                # task_sizes' uniform branch: one shared pipeline.
                self._t_pid[uids] = self._pipeline_for(job, kind, sizes[0])
            else:
                for uid, size in zip(uids.tolist(), sizes):
                    self._t_pid[uid] = self._pipeline_for(job, kind, size)
        js.pending[kind] = _TaskQueue(uids)  # type: ignore[assignment]
        js.running[kind] = 0
        js.completed[kind] = 0
        js.total[kind] = n
        js.stage_open[kind] = True
        js.stage_bounds[kind] = [self._now, self._now]
        if kind is StageKind.REDUCE:
            js.reduces_opened = True
        if n == 0:
            self._close_stage(js, kind)

    def _on_map_completed(self, js: _JobState) -> None:
        cfg = js.job.config
        if js.job.is_map_only:
            return
        if not js.reduces_opened and cfg.slowstart < 1.0:
            threshold = math.ceil(cfg.slowstart * js.job.num_map_tasks)
            if js.maps_completed >= threshold:
                self._open_stage(js, StageKind.REDUCE)
        if js.reduces_opened and js.map_stage_open:
            self._dirty |= self._reduce_counts[self._jid_of[js.job.name]] > 0

    # -- scheduling --------------------------------------------------------------

    def _schedule_pending(self) -> None:
        requests = {}
        for name, js in self._jobs.items():
            if not js.arrived or js.done:
                continue
            queues = [
                (container_for(js.job, kind), len(js.pending.get(kind, ())))
                if js.stage_open.get(kind, False)
                else (container_for(js.job, kind), 0)
                for kind in _KINDS
            ]
            if any(count for _, count in queues):
                requests[name] = queues
        if not requests:
            return
        names, codes, nodes, qidx = self._placer.assign_queues_arrays(requests)
        n = codes.size
        if n == 0:
            return
        if self._ctr_sched is not None:
            self._ctr_sched.inc(n)
        if self._ctr_launched is not None:
            self._ctr_launched.inc(n)
        self._launch_batch(names, codes, nodes, qidx)

    def _launch_batch(
        self,
        names: List[str],
        codes: np.ndarray,
        nodes: np.ndarray,
        qidx: np.ndarray,
    ) -> None:
        n = codes.size
        slots = self._alloc_slots(n)
        now = self._now
        uids = np.empty(n, dtype=np.int64)
        jobs = self._jobs
        jid_of = self._jid_of
        # One stable-sort groupby over (job, queue): per-group work —
        # queue pops, running tallies, reduce-node counts, the overhead
        # event — happens once per group instead of once per grant, and
        # the stable sort keeps each group's pops in grant order, so the
        # uid -> slot pairing is exactly the scalar loop's.
        key = codes * 2 + qidx
        order = np.argsort(key, kind="stable")
        skey = key[order]
        cuts = np.flatnonzero(skey[1:] != skey[:-1]) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), cuts))
        ends = np.concatenate((cuts, np.array([n], dtype=np.int64)))
        overhead_groups: List[Tuple[float, np.ndarray]] = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            idx = order[s:e]
            first = idx[0]
            name = names[codes[first]]
            queue_idx = int(qidx[first])
            js = jobs[name]
            kind = _KINDS[queue_idx]
            count = e - s
            uids[idx] = js.pending[kind].pop_batch(count)  # type: ignore[attr-defined]
            js.running[kind] += count
            if queue_idx == 1:
                np.add.at(self._reduce_counts[jid_of[name]], nodes[idx], 1)
            overhead_groups.append((js.job.config.task_overhead_s, slots[idx]))
        self._dirty[nodes] = True
        self._s_uid[slots] = uids
        self._s_node[slots] = nodes
        pid = self._t_pid[uids]
        self._s_pid[slots] = pid
        self._s_scid[slots] = self._pipe_scid0[pid]
        self._s_gate[slots] = self._pipe_gate0[pid]
        self._s_stage[slots] = 0
        self._s_progress[slots] = 0.0
        self._s_rate[slots] = 0.0
        self._s_tbase[slots] = now
        self._s_tlaunch[slots] = now
        self._s_twork[slots] = now
        self._s_active[slots] = False
        self._s_dead[slots] = False
        self._s_epoch[slots] = -1
        self._s_fail_sub[slots] = -1
        self._s_fail_frac[slots] = 1.0
        attempts = self._t_attempts[uids] + 1
        self._t_attempts[uids] = attempts
        self._s_attempt[slots] = attempts
        fresh = np.isnan(self._t_first[uids])
        if fresh.any():
            self._t_first[uids[fresh]] = now
        if self._config.failures.enabled:
            self._plan_failures(slots, uids, attempts)
        self._live += n
        for overhead, arr in overhead_groups:
            if overhead > 0:
                self._events.push(now + overhead, ("ready", arr))
            else:
                self._s_active[arr] = True

    def _plan_failures(
        self, slots: np.ndarray, uids: np.ndarray, attempts: np.ndarray
    ) -> None:
        """Per-attempt failure plans; the draw stream matches the object
        engines exactly (same blake2b over the same ``task_id/attempt``)."""
        model = self._config.failures
        for slot, uid, attempt in zip(
            slots.tolist(), uids.tolist(), attempts.tolist()
        ):
            fails, fail_at = model.draw(self._task_id_str(uid), attempt)
            if fails:
                pipe = self._pipes[int(self._t_pid[uid])]
                self._s_fail_sub[slot], self._s_fail_frac[slot] = (
                    pipe.failure_point(fail_at)
                )

    # -- slow-start gating -------------------------------------------------------

    def _targets_for(self, slots: np.ndarray) -> np.ndarray:
        """Vectorised ``_shuffle_target`` over a slot batch.

        One stable-sort groupby pass over the gated slots' job ids — the
        former ``np.unique`` + per-job boolean masks rescanned the whole
        batch once per job, which made big multi-job batches quadratic.
        """
        out = np.ones(slots.size)
        gate_mask = self._s_gate[slots]
        if not gate_mask.any():
            return out
        gated = slots[gate_mask]
        jids = self._t_job[self._s_uid[gated]]
        values = np.ones(gated.size)
        order = np.argsort(jids, kind="stable")
        sorted_jids = jids[order]
        cuts = np.flatnonzero(sorted_jids[1:] != sorted_jids[:-1]) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), cuts))
        ends = np.concatenate((cuts, np.array([jids.size], dtype=np.int64)))
        for s, e in zip(starts.tolist(), ends.tolist()):
            js = self._js_by_jid[int(sorted_jids[s])]
            if not js.map_stage_open:
                continue
            total = js.job.num_map_tasks
            values[order[s:e]] = js.maps_completed / total if total else 1.0
        out[gate_mask] = values
        return out

    # -- sharing -----------------------------------------------------------------

    def _dirty_slots(self, dirty: np.ndarray) -> np.ndarray:
        """Active slots on the ``dirty`` nodes, node- then slot-ascending.

        First moves the window's floor past the slots that died at its
        bottom: every slot below ``_low`` is dead, and waves retire roughly
        in launch order, so the window ``[_low, _n_slots)`` stays near the
        live-slot count instead of growing with every slot the run has
        allocated.  A re-share that dirties most nodes scans the window; one
        that dirties a small share of a large window reads the node index
        instead (:meth:`_indexed_slots`), at a cost that follows the slots
        its dirty nodes hold.  Both return the same array: the stable
        argsort by node of the ascending candidates, which is the oracle's
        ``sorted(dirty)`` + per-node insertion order and keeps the lexsort
        cohort tie-breaks in :meth:`_solve_dirty` bit-stable.
        """
        n = self._n_slots
        low = self._low
        if low < n and self._s_dead[low]:
            # The first not-dead slot from the floor up; argmin is 0 only
            # when every one of them is dead.
            step = int(self._s_dead[low:n].argmin())
            low = low + step if step else n
            self._low = low
        if (
            n - low >= _INDEX_MIN_WINDOW
            and np.count_nonzero(dirty) * _INDEX_DIRTY_SHARE <= self._n_nodes
        ):
            return self._indexed_slots(dirty, low, n)
        nodes = self._s_node[low:n]
        pick = (self._s_active[low:n] & dirty[nodes]).nonzero()[0]
        return low + pick[np.argsort(nodes[pick], kind="stable")]

    def _indexed_slots(self, dirty: np.ndarray, low: int, n: int) -> np.ndarray:
        """The window scan's answer, read from the node index plus its tail.

        The index is a node-sorted CSR list of the window's slots at the
        build, made here and nowhere else, so a launch pays nothing for it.
        Slot ids only grow: the slots launched since the build form one
        contiguous tail ``[_ix_end, n)`` above every indexed slot.  So the
        dirty nodes' index segments (each slot-ascending, in node order)
        filtered on ``_s_active``, then the tail's active slots on dirty
        nodes, stable-sorted by node, are the scan's array exactly.

        The index goes stale as the tail grows and as the floor passes its
        start (everything indexed below ``_low`` is dead).  It is rebuilt
        once those two together exceed a fixed share of the window, so a
        read costs what the dirty nodes' slots and a short tail hold, and a
        rebuild (one stable argsort of the window's node ids) happens a few
        times per simulation.
        """
        start = self._ix_end
        if (n - start + low - self._ix_start) * _INDEX_STALE_SHARE > n - low:
            # One window-sized allocation per rebuild (the argsort, kept as
            # offsets from the floor): every extra window-sized temporary
            # showed up as page faults in the process's later simulations.
            nodes = self._s_node[low:n]
            self._ix_slots = np.argsort(nodes, kind="stable")
            off = np.zeros(self._n_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(nodes, minlength=self._n_nodes), out=off[1:])
            self._ix_off = off
            self._ix_start = low
            self._ix_end = start = n
        # Each dirty node's segment, concatenated in node order.
        hit = np.flatnonzero(dirty)
        begin = self._ix_off[hit]
        lens = self._ix_off[hit + 1] - begin
        ends = np.cumsum(lens)
        pos = np.arange(ends[-1]) + np.repeat(begin - ends + lens, lens)
        seg = self._ix_start + self._ix_slots[pos]
        seg = seg[self._s_active[seg]]
        if start == n:
            return seg
        nodes = self._s_node[start:n]
        tail = start + (self._s_active[start:n] & dirty[nodes]).nonzero()[0]
        if tail.size == 0:
            return seg
        both = np.concatenate((seg, tail))
        return both[np.argsort(self._s_node[both], kind="stable")]

    def _solve_dirty(self) -> None:
        """Re-share every dirty node in one batched pass.

        Equivalent to the fast engine's per-node ``_solve_node`` over
        ``sorted(dirty)``: node order does not matter because each node's
        rates depend only on its own composition, and the solver is a pure
        function of the canonically-ordered class sequence.

        Past the gather (:meth:`_dirty_slots`, whose cost follows the dirty
        nodes' slots on a large cluster), a re-share's work is vectorised
        over those slots alone.  A re-share of a few nodes therefore costs
        mostly the fixed cost of its few dozen numpy calls, ~100 us on a
        2-vCPU VM, at any cluster size.
        """
        dirty = self._dirty
        self._dirty = np.zeros(self._n_nodes, dtype=np.bool_)
        if self._ctr_solves is not None:
            self._ctr_solves.inc(int(np.count_nonzero(dirty)))
        act = self._dirty_slots(dirty)
        if act.size == 0:
            return
        now = self._now

        # Materialise lazily-advanced progress, exactly as _solve_node does:
        # target first (gating caps the advance), then re-base.
        targets = self._targets_for(act)
        rate = self._s_rate[act]
        prog = self._s_progress[act]
        tbase = self._s_tbase[act]
        prog = np.where(
            (rate > 0.0) & (now > tbase),
            np.minimum(targets, prog + (now - tbase) * rate),
            prog,
        )
        self._s_progress[act] = prog
        self._s_tbase[act] = now

        gated = (targets < 1.0) & (prog >= targets - _EPS)
        if gated.any():
            g = act[gated]
            self._s_rate[g] = 0.0
            self._s_epoch[g] = -1
            keep = ~gated
            included = act[keep]
            if included.size == 0:
                return
            tgt_inc = targets[keep]
            prog_inc = prog[keep]
        else:
            included = act
            tgt_inc = targets
            prog_inc = prog
        node_inc = self._s_node[included].astype(np.int64)
        scid_inc = self._s_scid[included].astype(np.int64)

        # Per-node compositions, deduplicated: nodes sharing a composition
        # share one solve (and usually a cached one).  ``node_inc`` is
        # node-sorted, so each node is one run and its row is the count of
        # run heads so far.  Symmetric waves collapse to a handful of
        # distinct rows, so probe the all-equal case first — it skips the
        # row dedup entirely.
        nc = len(self._sharing.weights)
        head = np.empty(node_inc.size, dtype=np.bool_)
        head[0] = True
        np.not_equal(node_inc[1:], node_inc[:-1], out=head[1:])
        rows = np.cumsum(head) - 1
        n_rows = int(rows[-1]) + 1
        comp = np.bincount(
            rows * nc + scid_inc, minlength=n_rows * nc
        ).reshape(n_rows, nc)
        if (comp == comp[0]).all():
            uniq = comp[:1]
            inverse = np.zeros(comp.shape[0], dtype=np.int64)
        else:
            uniq, inverse = _unique_rows(comp)
        dense = np.zeros((uniq.shape[0], nc))
        for i in range(uniq.shape[0]):
            present = np.flatnonzero(uniq[i])
            rate_of = self._sharing.rates(
                tuple((int(scid), int(uniq[i, scid])) for scid in present)
            )
            dense[i, list(rate_of)] = list(rate_of.values())
        new_rates = dense[inverse[rows], scid_inc]
        self._s_rate[included] = new_rates

        # Re-issue deadlines as (when, class, rate) cohorts.  The failure
        # cap only exists when injection is configured; the gathers are
        # pure overhead otherwise.
        if self._config.failures.enabled:
            fail_cap = self._s_fail_sub[included] == self._s_stage[included]
            tgt2 = np.where(
                fail_cap, np.minimum(tgt_inc, self._s_fail_frac[included]), tgt_inc
            )
        else:
            tgt2 = tgt_inc
        alive = new_rates > _EPS
        if alive.all():
            ok = included
            tgt_ok = tgt2
            prog_ok = prog_inc
            scid_ok = scid_inc
            rate_ok = new_rates
        else:
            self._s_epoch[included[~alive]] = -1  # starved: no deadline
            ok = included[alive]
            if ok.size == 0:
                return
            tgt_ok = tgt2[alive]
            prog_ok = prog_inc[alive]
            scid_ok = scid_inc[alive]
            rate_ok = new_rates[alive]
        when = now + np.maximum(0.0, tgt_ok - prog_ok) / rate_ok
        self._epoch += 1
        epoch = self._epoch
        self._s_epoch[ok] = epoch
        order = np.lexsort((rate_ok, scid_ok, when))
        w = when[order]
        sc = scid_ok[order]
        rt = rate_ok[order]
        so = ok[order]
        if w.size == 1:
            cuts = np.empty(0, dtype=np.int64)
        else:
            cuts = (
                np.flatnonzero(
                    (w[1:] != w[:-1]) | (sc[1:] != sc[:-1]) | (rt[1:] != rt[:-1])
                )
                + 1
            )
        starts = np.concatenate((np.zeros(1, dtype=np.int64), cuts))
        ends = np.concatenate((cuts, np.array([w.size], dtype=np.int64)))
        for s, e in zip(starts.tolist(), ends.tolist()):
            self._dl.push(float(w[s]), epoch, so[s:e].copy(), float(rt[s]))

    # -- deadline firing -----------------------------------------------------------

    def _fire_cohort(self, slots: np.ndarray, rate: float) -> None:
        if self._ctr_deadlines is not None:
            self._ctr_deadlines.inc(slots.size)
        now = self._now
        self._s_epoch[slots] = -1
        targets = self._targets_for(slots)
        prog = self._s_progress[slots]
        if rate > 0.0:
            tbase = self._s_tbase[slots]
            prog = np.where(
                now > tbase,
                np.minimum(targets, prog + (now - tbase) * rate),
                prog,
            )
            self._s_progress[slots] = prog
        self._s_tbase[slots] = now
        failed = (self._s_fail_sub[slots] == self._s_stage[slots]) & (
            prog >= self._s_fail_frac[slots] - _EPS
        )
        completed = ~failed & (prog >= 1.0 - _EPS)
        gated = ~failed & ~completed & (targets < 1.0) & (prog >= targets - _EPS)
        moved = ~(failed | completed | gated)
        if failed.any():
            for slot in slots[failed].tolist():
                self._kill_slot(slot)
        if completed.any():
            self._complete_batch(slots[completed])
        if gated.any():
            g = slots[gated]
            self._s_rate[g] = 0.0
            self._dirty[self._s_node[g]] = True
        if moved.any():
            self._dirty[self._s_node[slots[moved]]] = True

    def _kill_slot(self, slot: int) -> None:
        uid = int(self._s_uid[slot])
        attempt = int(self._s_attempt[slot])
        model = self._config.failures
        task_id = self._task_id_str(uid)
        if attempt >= model.max_attempts:
            raise JobAbortedError(
                f"task {task_id} failed {attempt} attempts "
                f"(limit {model.max_attempts}); job aborted"
            )
        node = int(self._s_node[slot])
        jid = int(self._t_job[uid])
        js = self._js_by_jid[jid]
        kind = _KINDS[int(self._t_kind[uid])]
        self._s_dead[slot] = True
        self._s_active[slot] = False
        self._live -= 1
        self._dirty[node] = True
        self._placer.release(js.job.name, node, container_for(js.job, kind))
        js.running[kind] -= 1
        js.pending[kind].retries.append(uid)  # type: ignore[attr-defined]
        if kind is StageKind.REDUCE:
            self._reduce_counts[jid, node] -= 1
        if self._ctr_failed is not None:
            self._ctr_failed.inc()
        self._failed_raw.append((uid, attempt, self._now))

    def _complete_batch(self, slots: np.ndarray) -> None:
        now = self._now
        stage = self._s_stage[slots]
        self._sub_t0[slots, stage] = self._s_twork[slots]
        self._sub_t1[slots, stage] = now
        pid = self._s_pid[slots]
        new_stage = stage + 1
        finishing = new_stage >= self._pipe_nsub[pid]
        self._dirty[self._s_node[slots]] = True
        continuing = ~finishing
        if continuing.any():
            c = slots[continuing]
            ns = new_stage[continuing]
            self._s_stage[c] = ns
            self._s_progress[c] = 0.0
            self._s_rate[c] = 0.0
            self._s_twork[c] = now
            self._s_tbase[c] = now
            self._s_gate[c] = False  # gating only ever applies to sub-stage 0
            pc = pid[continuing]
            for p, s in sorted(set(zip(pc.tolist(), ns.tolist()))):
                mask = (pc == p) & (ns == s)
                self._s_scid[c[mask]] = self._pipes[p].scids[s]
        if finishing.any():
            self._finish_batch(slots[finishing])

    def _finish_batch(self, slots: np.ndarray) -> None:
        self._s_dead[slots] = True
        self._s_active[slots] = False
        self._live -= slots.size
        self._done_slots.append(slots.copy())
        self._done_count += slots.size
        uids = self._s_uid[slots]
        nodes = self._s_node[slots].astype(np.int64)
        jids = self._t_job[uids].astype(np.int64)
        kind_codes = self._t_kind[uids].astype(np.int64)
        # Group completions by (job, kind) — ascending, like the former
        # sorted(dict) pass — with per-node release counts from np.unique.
        # Bookkeeping totals are order-independent within one instant, and
        # container releases stay float-exact: release_batch adds containers
        # back one at a time, and reordering nodes only permutes independent
        # per-node chains (the per-job usage sees the same sequence of
        # identical subtractions either way — see YarnPlacer.release_batch).
        key = jids * 2 + kind_codes
        order = np.argsort(key, kind="stable")
        skey = key[order]
        cuts = np.flatnonzero(skey[1:] != skey[:-1]) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), cuts))
        ends = np.concatenate((cuts, np.array([skey.size], dtype=np.int64)))
        for s, e in zip(starts.tolist(), ends.tolist()):
            first = order[s]
            jid = int(jids[first])
            code = int(kind_codes[first])
            js = self._js_by_jid[jid]
            kind = _KINDS[code]
            count = e - s
            group_nodes, group_counts = np.unique(
                nodes[order[s:e]], return_counts=True
            )
            self._placer.release_batch(
                js.job.name, group_nodes, group_counts, container_for(js.job, kind)
            )
            js.running[kind] -= count
            js.completed[kind] += count
            if kind is StageKind.MAP:
                js.maps_completed += count
                self._on_map_completed(js)
            else:
                self._reduce_counts[jid, group_nodes] -= group_counts
            if (
                js.completed[kind] >= js.total[kind]
                and not js.pending[kind]
                and js.running[kind] == 0
            ):
                self._close_stage(js, kind)

    # -- event loop -----------------------------------------------------------------

    def _run_engine(self) -> SimulationResult:
        for name in self._workflow.roots():
            self._arrive(name)
        self._schedule_pending()
        self._note_state_change()

        dl = self._dl
        events = self._events
        iterations = 0
        phases = self._phase_hists
        time_pop = time_solve = time_launch = time_book = 0.0
        mark = 0.0
        while True:
            iterations += 1
            if iterations > self._config.max_iterations:
                raise SimulationError(
                    f"simulation of {self._workflow.name!r} exceeded "
                    f"{self._config.max_iterations} iterations"
                )
            if self._dirty.any():
                if phases is not None:
                    mark = perf_counter()
                self._solve_dirty()
                if phases is not None:
                    time_solve += perf_counter() - mark

            # Drop heap entries whose every slot was re-shared since the
            # push (epoch mismatch) so they cannot masquerade as t_next.
            while True:
                head = dl.peek()
                if head is None:
                    break
                if bool(np.any(self._s_epoch[head[3]] == head[2])):
                    break
                dl.pop()
            t_deadline = dl.peek_time()
            t_event = events.peek_time()
            t_next = min(
                t_deadline if t_deadline is not None else math.inf,
                t_event if t_event is not None else math.inf,
            )
            if t_next == math.inf:
                if self._live or any(
                    not js.done for js in self._jobs.values()
                ):
                    self._raise_columnar_stall()
                break
            self._now = t_next

            # Pop the whole cohort group within the _EPS progress window of
            # t_next — the same fuzzy-window rule as the fast loop, per
            # cohort because a cohort shares one rate by construction —
            # then fire its cohorts in pop order.
            if phases is not None:
                mark = perf_counter()
            for cohort_slots, rate in dl.pop_due(t_next, self._s_epoch, _EPS):
                if self._hist_cohort is not None:
                    self._hist_cohort.observe(cohort_slots.size)
                self._fire_cohort(cohort_slots, rate)
            if phases is not None:
                time_pop += perf_counter() - mark
                mark = perf_counter()

            for payload in events.pop_all_at(t_next, tol=_TIME_TOL):
                _kind, slots = payload
                self._s_active[slots] = True
                self._s_twork[slots] = t_next
                self._s_tbase[slots] = t_next
                self._dirty[self._s_node[slots]] = True
            if phases is not None:
                time_book += perf_counter() - mark
                mark = perf_counter()

            self._schedule_pending()
            if phases is not None:
                time_launch += perf_counter() - mark
                mark = perf_counter()
            self._note_state_change()
            if phases is not None:
                time_book += perf_counter() - mark

            if self._live == 0 and all(
                js.done for js in self._jobs.values()
            ):
                break

        if self._ctr_events is not None:
            self._ctr_events.inc(iterations)
        if phases is not None:
            phases["pop"].observe(time_pop)
            phases["solve"].observe(time_solve)
            phases["launch"].observe(time_launch)
            phases["bookkeep"].observe(time_book)
        return self._build_result()

    # -- diagnostics -------------------------------------------------------------------

    def _raise_columnar_stall(self) -> None:
        stuck_jobs = [n for n, js in self._jobs.items() if not js.done]
        zero_flows = []
        for slot in np.flatnonzero(self._s_active[: self._n_slots]).tolist():
            target = float(self._targets_for(np.array([slot]))[0])
            if target < 1.0 and self._s_progress[slot] >= target - _EPS:
                continue  # gated, excluded like the object loops
            if self._s_rate[slot] <= _EPS:
                uid = int(self._s_uid[slot])
                zero_flows.append(
                    f"{self._task_id_str(uid)}/{int(self._s_stage[slot])}"
                )
        if zero_flows:
            raise SimulationError(
                f"stall in {self._workflow.name!r}: flows {zero_flows} have zero "
                "rate with no pending events"
            )
        pending = {
            n: sum(len(q) for q in js.pending.values())
            for n, js in self._jobs.items()
            if any(len(q) for q in js.pending.values())
        }
        if pending and self._live == 0:
            raise SchedulingError(
                f"deadlock in {self._workflow.name!r}: pending tasks {pending} "
                "cannot be placed and nothing is running to free capacity"
            )
        raise SimulationError(
            f"stall in {self._workflow.name!r}: unfinished jobs {stuck_jobs}, "
            f"{self._live} runs in flight, no future events"
        )

    # -- result assembly ------------------------------------------------------------------

    def _build_result(self) -> ColumnarResult:
        self._close_state()
        slots = _FinishedSlots(self)
        failed = [
            (self._task_id_str(uid), attempt, when)
            for uid, attempt, when in self._failed_raw
        ]
        logger.debug(
            "simulated %s (columnar): makespan=%.3fs tasks=%d states=%d failures=%d",
            self._workflow.name,
            self._now,
            self._done_count,
            len(self._states),
            len(failed),
        )
        return ColumnarResult(
            workflow_name=self._workflow.name,
            makespan=self._now,
            stages=sorted(self._stage_traces, key=lambda s: (s.t_start, s.job)),
            states=self._states,
            failed_attempts=failed,
            task_builder=slots.tasks,
            columns_builder=slots.columns,
            task_count=self._done_count,
            job_names=self._job_names,
            column_bytes=self.column_bytes(),
        )

    def column_bytes(self) -> int:
        """Current bytes held by the slot/task/sub-stage columns."""
        total = self._sub_t0.nbytes + self._sub_t1.nbytes
        total += self._reduce_counts.nbytes
        for name, _dtype in self._SLOT_FIELDS:
            total += getattr(self, name).nbytes
        for name, _dtype in self._TASK_FIELDS:
            total += getattr(self, name).nbytes
        return total


class _FinishedSlots:
    """What a :class:`ColumnarResult`'s lazy builders read: references to a
    finished simulator's arrays, not copies, and not the simulator, so a
    kept result does not pin its other slot, task and placer state."""

    __slots__ = (
        "_done_slots", "_s_uid", "_s_pid", "_s_node", "_s_tlaunch",
        "_t_job", "_t_kind", "_t_index", "_t_input", "_t_first",
        "_job_rank", "_job_names", "_pipes", "_pipe_nsub",
        "_sub_t0", "_sub_t1", "_canonical",
    )

    def __init__(self, sim: "ColumnarSimulator"):
        for name in self.__slots__[:-1]:
            setattr(self, name, getattr(sim, name))
        self._canonical = None

    def _canonical_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """Finished slots and their uids in the canonical fast-engine task
        order (t_start, job name, index), sorted once on first read."""
        if self._canonical is None:
            slots = (
                np.concatenate(self._done_slots)
                if self._done_slots
                else np.empty(0, dtype=np.int64)
            )
            uids = self._s_uid[slots]
            order = np.lexsort(
                (
                    self._t_index[uids],
                    self._job_rank[self._t_job[uids]],
                    self._s_tlaunch[slots],
                )
            )
            self._canonical = (slots[order], uids[order])
        return self._canonical

    def columns(self) -> Dict[str, np.ndarray]:
        """Per-task trace columns in canonical order, for
        :meth:`ColumnarResult.durations_array`."""
        slots, uids = self._canonical_order()
        nsub = self._pipe_nsub[self._s_pid[slots]]
        return {
            "job": self._t_job[uids],
            "kind": self._t_kind[uids],
            "t_start": self._s_tlaunch[slots],
            "t_end": self._sub_t1[slots, nsub - 1] if slots.size else np.empty(0),
            "work_t0": self._sub_t0[slots, 0] if slots.size else np.empty(0),
        }

    def tasks(self) -> List[TaskTrace]:
        slots, uids = self._canonical_order()
        names = self._job_names
        sub_t0 = self._sub_t0
        sub_t1 = self._sub_t1
        pipes = self._pipes
        tasks: List[TaskTrace] = []
        for slot, uid in zip(slots.tolist(), uids.tolist()):
            pipe = pipes[int(self._s_pid[slot])]
            substages = tuple(
                SubStageTrace(sub.name, float(sub_t0[slot, i]), float(sub_t1[slot, i]))
                for i, sub in enumerate(pipe.substages)
            )
            tasks.append(
                TaskTrace(
                    job=names[int(self._t_job[uid])],
                    kind=_KINDS[int(self._t_kind[uid])],
                    index=int(self._t_index[uid]),
                    node=int(self._s_node[slot]),
                    input_mb=float(self._t_input[uid]),
                    t_ready=float(self._t_first[uid]),
                    t_start=float(self._s_tlaunch[slot]),
                    t_end=substages[-1].t_end,
                    substages=substages,
                )
            )
        return tasks
