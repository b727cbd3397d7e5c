"""Incremental Algorithm 1 — prefix-reusing state trajectories.

What-if sweeps evaluate the state-based estimator
(:class:`~repro.core.estimator.DagEstimator`, Algorithm 1 of §IV) on
*thousands of nearly identical workflows*: coordinate descent perturbs one
knob of one job at a time, so neighbouring candidates share a long identical
prefix of workflow states.  A knob that only changes job 7's reduce
parallelism leaves every state before job 7's arrival untouched — yet the
estimator historically recomputed the full trajectory from ``t = 0`` for
each candidate.

This module memoises *trajectories*.  After each full estimate the
:class:`TrajectoryCache` records one :class:`Checkpoint` per state — the
iteration index, the running set with per-job progress, the completed set,
the arrival order and the accumulated ``t_dag``.  On the next candidate it
diffs the candidate against the cached run's workflow (per-job value
fingerprints plus parent sets), binary-searches the longest provably
unaffected state prefix, and hands the estimator the checkpoint to resume
Algorithm 1 from instead of ``t = 0``.

**Reuse invariant.**  Checkpoint ``k`` of a cached trajectory is reusable
for a candidate iff

* the cluster, estimator variant, scheduler policy, vcore enforcement and
  the task-time source are unchanged (all part of the cache entry's key);
* every job that *arrived* (started any stage) by the end of state ``k``
  is unchanged — same specification fingerprint, same parent set; and
* no changed/added job becomes *newly arrivable* by state ``k``: a changed
  job with no parents would start at ``t = 0``, and one whose (new) parents
  are all in the checkpoint's completed set would have started during the
  prefix.

Under that invariant the first ``k`` states of a cold run on the candidate
are equal — value by value, float by float — to the cached ones, because
Algorithm 1 is a deterministic function of exactly the inputs the invariant
pins.  Resuming therefore produces results **bit-identical** to the cold
path; the parity suite (``tests/core/test_incremental.py``) enforces this
across the whole Table I catalogue and all three estimator variants.

Both conditions are monotone in ``k`` (arrived and completed sets only
grow), which is what makes the binary search over checkpoints valid.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.state import EstimatedState
from repro.dag.workflow import Workflow
from repro.errors import EstimationError
from repro.mapreduce.stage import StageKind

#: Trajectory cache bound.  Entries are whole trajectories (states x
#: running-set width), so the bound is much tighter than the task-time
#: caches'; coordinate descent only ever needs the incumbent plus the
#: current knob's candidates to stay resident.
DEFAULT_TRAJECTORY_ENTRIES = 16


#: One running stage inside a checkpoint, in the estimator's dict order:
#: (job name, stage kind, remaining task-equivalents, total tasks,
#: stage start time, previous state's parallelism grant).
RunningEntry = Tuple[str, StageKind, float, float, float, float]

#: One recorded stage span: (state index at completion, (job, kind), span).
SpanEntry = Tuple[int, Tuple[str, StageKind], Tuple[float, float]]


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """Algorithm 1's loop variables after ``index`` completed states.

    ``running`` preserves the estimator's dict insertion order — the order
    is semantically relevant (it fixes the concurrent-load signature every
    stage sees, and thereby the BOE system's iteration order), so restoring
    it verbatim is part of the bit-identical guarantee.
    """

    index: int
    now: float
    running: Tuple[RunningEntry, ...]
    done: FrozenSet[str]
    arrival: Tuple[str, ...]
    arrived: FrozenSet[str]


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """One cached estimator run: the estimate plus per-state checkpoints.

    The configuration fields (cluster through ``source``) gate reuse: a
    lookup only considers entries whose configuration matches the calling
    estimator's.  ``source`` is compared by object identity — two distinct
    source instances may embed different measurements or scale factors
    (failure injection), so sharing trajectories across them could poison
    results; a fresh source simply starts cold.
    """

    workflow: Workflow
    cluster: object
    variant: object
    policy: str
    enforce_vcores: bool
    source: object
    total_time: float
    states: Tuple[EstimatedState, ...]
    span_log: Tuple[SpanEntry, ...]
    checkpoints: Tuple[Checkpoint, ...]
    parents: Dict[str, FrozenSet[str]]

    def spans_through(self, prefix: int) -> Dict[Tuple[str, StageKind], Tuple[float, float]]:
        """Stage spans recorded during the first ``prefix`` states."""
        return {key: span for index, key, span in self.span_log if index <= prefix}


@dataclasses.dataclass(frozen=True)
class PrefixMatch:
    """Outcome of a cache lookup: where to resume from.

    ``prefix`` is the number of leading states provably unaffected by the
    candidate's changes; ``len(trajectory.states)`` means the candidate is
    identical (a full hit) and resumes from the final checkpoint.
    """

    trajectory: Trajectory
    prefix: int
    changed: FrozenSet[str]

    @property
    def full(self) -> bool:
        return self.prefix == len(self.trajectory.states)


@dataclasses.dataclass
class ReuseStats:
    """Ledger of trajectory-reuse activity (mirrors :class:`CacheStats`).

    Attributes:
        lookups: estimator runs that consulted the cache.
        hits: lookups that found a non-empty reusable prefix.
        full_hits: lookups whose candidate matched a cached run entirely.
        states_reused: states resumed from checkpoints instead of computed.
        states_computed: states actually iterated by Algorithm 1.
        evictions: trajectories dropped at the LRU bound.
    """

    lookups: int = 0
    hits: int = 0
    full_hits: int = 0
    states_reused: int = 0
    states_computed: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def reuse_rate(self) -> float:
        """Fraction of all states served from checkpoints."""
        total = self.states_reused + self.states_computed
        return self.states_reused / total if total else 0.0

    def add(self, other: "ReuseStats") -> None:
        """Accumulate another ledger into this one (cross-process merge)."""
        self.lookups += other.lookups
        self.hits += other.hits
        self.full_hits += other.full_hits
        self.states_reused += other.states_reused
        self.states_computed += other.states_computed
        self.evictions += other.evictions

    def delta(self, since: "ReuseStats") -> "ReuseStats":
        """The activity between an earlier snapshot and now."""
        return ReuseStats(
            lookups=self.lookups - since.lookups,
            hits=self.hits - since.hits,
            full_hits=self.full_hits - since.full_hits,
            states_reused=self.states_reused - since.states_reused,
            states_computed=self.states_computed - since.states_computed,
            evictions=self.evictions - since.evictions,
        )

    def snapshot(self) -> "ReuseStats":
        return ReuseStats(
            self.lookups,
            self.hits,
            self.full_hits,
            self.states_reused,
            self.states_computed,
            self.evictions,
        )

    def describe(self) -> str:
        if not self.lookups:
            return "unused"
        return (
            f"{self.hits}/{self.lookups} warm starts, "
            f"{self.reuse_rate:.0%} states reused"
        )


def parent_map(workflow: Workflow) -> Dict[str, FrozenSet[str]]:
    """Parent sets of every job, computed in one pass over the edges."""
    parents: Dict[str, set] = {job.name: set() for job in workflow.jobs}
    for parent, child in workflow.edges:
        parents[child].add(parent)
    return {name: frozenset(members) for name, members in parents.items()}


def changed_jobs(
    cached: Workflow,
    cached_parents: Dict[str, FrozenSet[str]],
    candidate: Workflow,
    candidate_parents: Dict[str, FrozenSet[str]],
) -> FrozenSet[str]:
    """Jobs whose specification or parent set differs between two workflows.

    Jobs are frozen dataclasses comparing by value, so ``!=`` *is* the
    call-time fingerprint diff — a mutated or re-built job can never be
    mistaken for its cached namesake.  Jobs present in only one workflow
    count as changed; an edge change marks the *child* (its arrival
    condition moved), which is the side the reuse invariant cares about.
    """
    old_jobs = cached.job_map
    new_jobs = candidate.job_map
    changed = set()
    for name in old_jobs.keys() | new_jobs.keys():
        if name not in old_jobs or name not in new_jobs:
            changed.add(name)
            continue
        old, new = old_jobs[name], new_jobs[name]
        # Identity first: candidates produced by perturbing one knob share
        # the untouched job objects with their base workflow, so most jobs
        # skip the field-by-field dataclass comparison entirely.
        if cached_parents[name] != candidate_parents[name]:
            changed.add(name)
        elif old is not new and old != new:
            changed.add(name)
    return frozenset(changed)


def reusable_prefix(
    trajectory: Trajectory,
    changed: FrozenSet[str],
    candidate: Workflow,
    candidate_parents: Dict[str, FrozenSet[str]],
) -> int:
    """The longest state prefix of ``trajectory`` a candidate may resume from.

    Binary search over the checkpoints: both disqualifiers — a changed job
    having arrived, and a changed job having become arrivable — are
    monotone in the state index, so the reusable prefix is a true prefix
    and bisection finds its end in ``O(log states)`` checks.
    """
    if not changed:
        return len(trajectory.states)
    present = [name for name in changed if name in candidate_parents]
    # A changed root (or newly added root) starts at t = 0: nothing reusable.
    for name in present:
        if not candidate_parents[name]:
            return 0

    def reusable(k: int) -> bool:
        checkpoint = trajectory.checkpoints[k - 1]
        if changed & checkpoint.arrived:
            return False
        for name in present:
            if candidate_parents[name] <= checkpoint.done:
                return False
        return True

    low, high = 0, len(trajectory.checkpoints)
    while low < high:
        mid = (low + high + 1) // 2
        if reusable(mid):
            low = mid
        else:
            high = mid - 1
    return low


class TrajectoryCache:
    """LRU-bounded store of estimator trajectories, shared across candidates.

    One cache instance is meant to live for a whole sweep (a
    :class:`~repro.sweep.SweepRunner` context, a tuning run): every
    successful full estimate is recorded, and every subsequent estimate
    asks :meth:`match` for the cached trajectory with the longest provably
    reusable prefix.  The cache never changes results — the estimator's
    resumed runs are bit-identical to cold ones (see the module docstring
    for the invariant) — it only changes how much of Algorithm 1's loop is
    replayed versus recomputed.

    Entries are keyed by (workflow, cluster); both are frozen, value-hashed
    dataclasses, so keys are taken from call-time values and a mutated
    workflow can never collide with a stale entry.
    """

    #: Entries examined per lookup, most recently used first.  The tuner's
    #: seeded incumbent sits at the MRU end, and locality-ordered batches
    #: keep the best donor among the last few runs, so a deeper scan buys
    #: almost nothing while its diffing cost scales with the bound.
    SCAN_LIMIT = 4

    def __init__(self, max_entries: int = DEFAULT_TRAJECTORY_ENTRIES):
        if max_entries < 1:
            raise EstimationError(f"max_entries must be >= 1: {max_entries}")
        self._entries: "OrderedDict[object, Trajectory]" = OrderedDict()
        self._max_entries = max_entries
        # Parent maps memoised by workflow object identity.  Workflows are
        # frozen, so identity implies an unchanged edge list; the table
        # keeps a strong reference to each workflow so an id can never be
        # recycled while its entry lives.  Bounded alongside the LRU scan
        # working set.
        self._parents_memo: Dict[int, Tuple[Workflow, Dict[str, FrozenSet[str]]]] = {}
        self.stats = ReuseStats()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._parents_memo.clear()

    def parents_of(self, workflow: Workflow) -> Dict[str, FrozenSet[str]]:
        """Memoised :func:`parent_map` (workflows are frozen, so object
        identity pins the edge list)."""
        entry = self._parents_memo.get(id(workflow))
        if entry is not None and entry[0] is workflow:
            return entry[1]
        if len(self._parents_memo) >= 4 * max(self._max_entries, self.SCAN_LIMIT):
            self._parents_memo.clear()
        parents = parent_map(workflow)
        self._parents_memo[id(workflow)] = (workflow, parents)
        return parents

    def _key(self, workflow: Workflow, cluster: object) -> object:
        return (workflow, cluster)

    def contains(self, workflow: Workflow, cluster: object) -> bool:
        """Whether an exact (workflow, cluster) trajectory is cached.

        A positive check marks the entry most recently used — callers use
        this to pin a warm-start seed (the tuner's incumbent) resident.
        """
        key = self._key(workflow, cluster)
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        return True

    def match(
        self,
        workflow: Workflow,
        cluster: object,
        variant: object,
        policy: str,
        enforce_vcores: bool,
        source: object,
    ) -> Optional[PrefixMatch]:
        """The first (most recently used) trajectory with a reusable prefix.

        Only entries whose estimator configuration matches are considered;
        the source is compared by identity (see :class:`Trajectory`).  The
        scan takes the first non-empty prefix rather than the global
        maximum: the MRU end holds the warm-start seed (the tuner's
        incumbent) and the locality-ordered neighbours, which offer the
        longest prefixes in practice, while a full scan would pay a
        workflow diff per resident entry on every lookup.
        """
        self.stats.lookups += 1
        candidate_parents = self.parents_of(workflow)
        scanned = 0
        for key in reversed(self._entries):
            if scanned >= self.SCAN_LIMIT:
                break
            scanned += 1
            trajectory = self._entries[key]
            if (
                trajectory.cluster != cluster
                or trajectory.variant != variant
                or trajectory.policy != policy
                or trajectory.enforce_vcores != enforce_vcores
                or trajectory.source is not source
            ):
                continue
            changed = changed_jobs(
                trajectory.workflow, trajectory.parents, workflow, candidate_parents
            )
            prefix = reusable_prefix(trajectory, changed, workflow, candidate_parents)
            if prefix:
                match = PrefixMatch(
                    trajectory=trajectory, prefix=prefix, changed=changed
                )
                self.stats.hits += 1
                if match.full:
                    self.stats.full_hits += 1
                    self._entries.move_to_end(key)
                return match
        return None

    def record(self, trajectory: Trajectory) -> None:
        """Store a completed run's trajectory, evicting past the LRU bound."""
        key = self._key(trajectory.workflow, trajectory.cluster)
        if key in self._entries:
            self._entries.move_to_end(key)
        else:
            while len(self._entries) >= self._max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        self._entries[key] = trajectory
