"""YARN-style per-node container placement, used by the simulator.

While :mod:`repro.scheduler.drf` answers "how many containers does each job
deserve" in the aggregate, the simulator must place *individual* tasks on
*individual* nodes and release their capacity when they finish.
:class:`YarnPlacer` does that, reproducing the relevant behaviour of the YARN
ResourceManager:

* admission is **memory-only** by default (DefaultResourceCalculator) so CPU
  oversubscribes, exactly the regime the BOE model targets;
* among jobs with pending requests, the next container goes to the job with
  the lowest (weighted) dominant share — DRF;
* within the cluster, the container lands on the node with the most free
  memory (spreads load, approximating locality-aware balancing).

Alternative policies ("fifo", "fair") are provided for ablations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector, ZERO_VECTOR
from repro.errors import SchedulingError

_EPS = 1e-9

#: Node tie window of the round-robin pick (see `_pick_node`): a granted
#: node must fall *out* of the window, so the bulk grant path requires the
#: container to be comfortably larger than it.
_TIE_WINDOW = 1e-6

#: Ring steps `_pick_node_fast` walks from a job's cursor before it looks the
#: tie window's nodes up in the free-memory heap instead.
_WALK_LIMIT = 64

POLICIES = ("drf", "fifo", "fair")


def _tier_admits(free_hi: float, cm: float) -> bool:
    """Whether a ``cm`` MB container fits a top tier at ``free_hi`` MB and a
    granted tier node leaves the scalar scan's tie window (in its floats)."""
    return cm <= free_hi + _EPS and free_hi - cm < free_hi - _TIE_WINDOW


def _clamp_zero(value: float) -> float:
    """ResourceVector.__sub__'s drift snap, applied to a bare component."""
    return 0.0 if -1e-6 < value < 0.0 else value


@dataclass
class _NodeState:
    index: int
    free_vcores: float
    free_memory: float


class YarnPlacer:
    """Stateful container placement over the nodes of one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        policy: str = "drf",
        enforce_vcores: bool = False,
        fast: bool = True,
    ):
        if policy not in POLICIES:
            raise SchedulingError(f"unknown policy {policy!r}; pick one of {POLICIES}")
        self._cluster = cluster
        self._policy = policy
        self._enforce_vcores = enforce_vcores
        # The heap shortcut below is exact only for memory-only admission
        # (fits is monotone in free memory); strict-vcores mode keeps the
        # plain scan, as does ``fast=False`` (the simulator's reference
        # engine, which must exercise the historical code path).
        self._fast = fast and not enforce_vcores
        node = cluster.node
        self._nodes = [
            _NodeState(i, float(node.cores), node.memory_mb)
            for i in range(cluster.workers)
        ]
        self._capacity = cluster.capacity
        # Per-job usage, tracked as bare float components rather than
        # ResourceVector instances: the DRF priority reads usage on every
        # grant, and allocating a fresh frozen dataclass per update is the
        # single biggest cost of a 10⁵-grant run.  The arithmetic (including
        # __sub__'s drift clamp) mirrors ResourceVector exactly.
        self._usage_v: Dict[str, float] = {}
        self._usage_m: Dict[str, float] = {}
        self._arrival: Dict[str, int] = {}
        self._arrival_counter = 0
        self._next_node: Dict[str, int] = {}
        self._weights: Dict[str, float] = {}
        # Lazy max-heap over (-free_memory, index).  Every free-memory
        # change pushes a fresh entry; stale entries (value no longer equal
        # to the node's current free memory) are discarded when they reach
        # the top.  The top therefore always names a node with the maximum
        # free memory — the O(nodes) "fitting" rescan in `_pick_node`
        # collapses to an O(log nodes) peek.
        self._free_heap: List[Tuple[float, int]] = [
            (-n.free_memory, n.index) for n in self._nodes
        ]
        heapq.heapify(self._free_heap)
        # Batch paths (bulk grants, large releases) change many nodes at
        # once; instead of eagerly rebuilding the heap they raise this flag
        # and the next scalar pick rebuilds lazily — consecutive batch
        # operations then pay for at most one rebuild between them.
        self._heap_dirty = False

    # -- bookkeeping -----------------------------------------------------------

    def register_job(self, name: str, weight: float = 1.0) -> None:
        """Record arrival order (FIFO) and initialise usage accounting."""
        if name not in self._arrival:
            self._arrival[name] = self._arrival_counter
            self._arrival_counter += 1
            self._usage_v.setdefault(name, 0.0)
            self._usage_m.setdefault(name, 0.0)
            self._next_node.setdefault(name, self._arrival[name] % len(self._nodes))
        self._weights[name] = weight

    def usage_of(self, name: str) -> ResourceVector:
        if name not in self._usage_v:
            return ZERO_VECTOR
        return ResourceVector(self._usage_v[name], self._usage_m[name])

    def release(self, name: str, node_index: int, container: ResourceVector) -> None:
        """Return a finished task's container to its node."""
        node = self._nodes[node_index]
        node.free_vcores += container.vcores
        node.free_memory += container.memory_mb
        if node.free_memory > self._cluster.node.memory_mb + _EPS:
            raise SchedulingError(
                f"released more memory than node {node_index} owns "
                f"({node.free_memory} > {self._cluster.node.memory_mb})"
            )
        self._touch(node)
        self._usage_v[name] = _clamp_zero(self._usage_v[name] - container.vcores)
        self._usage_m[name] = _clamp_zero(self._usage_m[name] - container.memory_mb)

    def release_batch(self, name, node_counts, container: ResourceVector) -> None:
        """Return many identical containers of one job at once.

        Float-exact versus the equivalent sequence of :meth:`release` calls:
        containers are added back one at a time (a single ``k * memory``
        multiply would reassociate the float sums and drift the admission
        threshold), and the usage vector shrinks by the same one-at-a-time
        subtractions.  Only the heap `_touch` is coalesced to one push per
        node — the lazy heap reads current values, so intermediate pushes
        carry no information.

        Args:
            name: the owning job.
            node_counts: iterable of (node index, container count) pairs.
            container: the (identical) container size being released.
        """
        cv = container.vcores
        cm = container.memory_mb
        limit = self._cluster.node.memory_mb + _EPS
        nodes = self._nodes
        pairs = list(node_counts)
        total = 0
        for node_index, count in pairs:
            node = nodes[node_index]
            fv = node.free_vcores
            fm = node.free_memory
            for _ in range(count):
                fv += cv
                fm += cm
            node.free_vcores = fv
            node.free_memory = fm
            if fm > limit:
                raise SchedulingError(
                    f"released more memory than node {node_index} owns "
                    f"({fm} > {self._cluster.node.memory_mb})"
                )
            total += count
        # Usage: the scalar fold subtracts one container at a time with the
        # drift clamp.  The clamp can only engage on a partial value in
        # (-1e-6, 0), and the partials only ever decrease — so when the
        # final cumsum value (their minimum) is non-negative the clamp
        # provably never fired and the cumsum *is* the scalar fold (it adds
        # strictly left to right).  Otherwise fall back to the fold itself.
        if total:
            acc = np.empty(total + 1)
            acc[0] = self._usage_v[name]
            acc[1:] = -cv
            end_v = float(np.cumsum(acc)[-1])
            acc[0] = self._usage_m[name]
            acc[1:] = -cm
            end_m = float(np.cumsum(acc)[-1])
            if end_v >= 0.0 and end_m >= 0.0:
                self._usage_v[name] = end_v
                self._usage_m[name] = end_m
            else:
                uv = self._usage_v[name]
                um = self._usage_m[name]
                for _ in range(total):
                    uv = _clamp_zero(uv - cv)
                    um = _clamp_zero(um - cm)
                self._usage_v[name] = uv
                self._usage_m[name] = um
        # Heap upkeep: a fresh entry per touched node, or — when the batch
        # touched a sizeable slice of the cluster — a deferred wholesale
        # rebuild (the legal compaction of the lazy heap, and cheaper than
        # the equivalent pile of pushes).
        if 8 * len(pairs) >= len(nodes):
            self._heap_dirty = True
        else:
            for node_index, _count in pairs:
                self._touch(nodes[node_index])

    def _touch(self, node: _NodeState) -> None:
        """Record a free-memory change in the lazy max-heap."""
        heapq.heappush(self._free_heap, (-node.free_memory, node.index))
        if len(self._free_heap) > max(64, 8 * len(self._nodes)):
            # Compact: one fresh entry per node replaces the stale pile.
            self._free_heap = [(-n.free_memory, n.index) for n in self._nodes]
            heapq.heapify(self._free_heap)

    # -- placement -------------------------------------------------------------

    def _node_fits(self, node: _NodeState, container: ResourceVector) -> bool:
        if container.memory_mb > node.free_memory + _EPS:
            return False
        if self._enforce_vcores and container.vcores > node.free_vcores + _EPS:
            return False
        return True

    def _pick_node(self, container: ResourceVector, job: str) -> Optional[_NodeState]:
        """Least-loaded (most free memory) node that fits the container.

        Ties are broken by a per-job round-robin cursor rather than by node
        index: real YARN hands out containers on node-manager heartbeats,
        which interleaves concurrent jobs across nodes.  A fixed-index
        tie-break instead *segregates* jobs onto disjoint node subsets (job A
        always wins the even heartbeat, job B the odd one), silently removing
        the cross-job resource contention this whole library studies.
        """
        fitting = [n for n in self._nodes if self._node_fits(n, container)]
        if not fitting:
            return None
        best_memory = max(n.free_memory for n in fitting)
        start = self._next_node.get(job, 0)
        n_nodes = len(self._nodes)
        for offset in range(n_nodes):
            node = self._nodes[(start + offset) % n_nodes]
            if node in fitting and node.free_memory >= best_memory - 1e-6:
                self._next_node[job] = (node.index + 1) % n_nodes
                return node
        return None  # pragma: no cover - fitting is non-empty

    def _pick_node_fast(
        self, container: ResourceVector, job: str
    ) -> Optional[_NodeState]:
        """Heap-backed `_pick_node`, exact for memory-only admission.

        Admission is monotone in free memory, so either the globally
        least-loaded node fits (and the scan's ``best_memory`` *is* the
        global maximum) or nothing does.  The round-robin walk then only
        pays `_node_fits` for nodes inside the 1e-6 tie window.  When the
        walk meets no such node within `_WALK_LIMIT` steps (a sparse top
        tier, e.g. the ragged remainder of a layer on a large cluster), the
        window's nodes are looked up in the heap instead, and the one
        nearest the cursor in ring order — the node the walk would reach —
        is picked.
        """
        nodes = self._nodes
        if self._heap_dirty:
            self._free_heap = [(-n.free_memory, n.index) for n in nodes]
            heapq.heapify(self._free_heap)
            self._heap_dirty = False
        heap = self._free_heap
        while heap and -heap[0][0] != nodes[heap[0][1]].free_memory:
            heapq.heappop(heap)  # stale: superseded by a later push
        if not heap:  # pragma: no cover - every change pushes an entry
            return None
        best = nodes[heap[0][1]]
        # `_node_fits`, inlined: this runs once per grant and the method-call
        # plus attribute traffic shows up at 10^5-task scale.
        mem = container.memory_mb
        vc = container.vcores
        enforce = self._enforce_vcores
        if mem > best.free_memory + _EPS:
            return None
        if enforce and vc > best.free_vcores + _EPS:
            return None
        threshold = best.free_memory - 1e-6
        n_nodes = len(nodes)
        cursor = self._next_node.get(job, 0)
        idx = cursor
        for _ in range(min(n_nodes, _WALK_LIMIT)):
            node = nodes[idx]
            idx += 1
            if idx == n_nodes:
                idx = 0
            free = node.free_memory
            if (
                free >= threshold
                and mem <= free + _EPS
                and (not enforce or vc <= node.free_vcores + _EPS)
            ):
                self._next_node[job] = idx  # == (node.index + 1) % n_nodes
                return node
        if n_nodes <= _WALK_LIMIT:  # pragma: no cover - `best` is reachable
            return None
        # A sparse window: every node the walk could stop at has a heap
        # entry inside the window (each free-memory change pushes one), so
        # a subtree prune of the heap finds them all at a cost that follows
        # the window's size; the walk would stop at the nearest one.
        key = -threshold
        size = len(heap)
        stack = [0]
        offset = n_nodes
        while stack:
            i = stack.pop()
            neg, index = heap[i]
            if neg > key:
                continue  # this entry, and its whole subtree, is outside
            node = nodes[index]
            free = node.free_memory
            if (
                free >= threshold
                and mem <= free + _EPS
                and (not enforce or vc <= node.free_vcores + _EPS)
            ):
                off = (index - cursor) % n_nodes
                if off < offset:
                    offset = off
            child = 2 * i + 1
            if child < size:
                stack.append(child)
                if child + 1 < size:
                    stack.append(child + 1)
        index = (cursor + offset) % n_nodes
        self._next_node[job] = (index + 1) % n_nodes
        return nodes[index]

    def _priority(self, name: str) -> Tuple:
        """Sort key: lower = served first."""
        if self._policy == "fifo":
            return (self._arrival.get(name, 1 << 30), name)
        memory = self._usage_m.get(name, 0.0)
        weight = self._weights.get(name, 1.0)
        if self._policy == "fair":
            share = memory / self._capacity.memory_mb
        else:  # drf: ResourceVector.dominant_share over the bare components
            share = max(
                self._usage_v.get(name, 0.0) / self._capacity.vcores,
                memory / self._capacity.memory_mb,
            )
        return (share / weight, self._arrival.get(name, 1 << 30), name)

    def assign_queues(
        self, requests: Dict[str, List[Tuple[ResourceVector, int]]]
    ) -> List[Tuple[str, int, int]]:
        """Place containers from per-job ordered request queues.

        Each job offers a list of (container, count) queues served strictly
        in order (Hadoop serves an application's maps before its reduces),
        while *between* jobs the policy (DRF/FIFO/fair) arbitrates every
        grant.  Returns (job, node index, queue index) triples.

        Thin tuple-producing wrapper over :meth:`assign_queues_arrays` (the
        object engines want triples; the columnar engine takes the arrays
        directly) — the placement decisions and every float touched are
        identical through either entry point.
        """
        names, codes, nodes, qidx = self.assign_queues_arrays(requests)
        return [
            (names[c], n, q)
            for c, n, q in zip(codes.tolist(), nodes.tolist(), qidx.tolist())
        ]

    def assign_queues_arrays(
        self, requests: Dict[str, List[Tuple[ResourceVector, int]]]
    ) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
        """Array-native :meth:`assign_queues`.

        Returns ``(names, codes, nodes, queue_idx)`` where ``names`` lists
        the granted jobs and the three equal-length arrays give, per grant
        in grant order, an index into ``names``, the node index, and the
        queue index.  A million-grant wave returns three arrays instead of
        a million tuples.

        Grants come from two exactness-equivalent paths: a vectorised bulk
        path (:meth:`_bulk_uniform_grants`) that grants one whole layer over
        the top tier of the cluster at once whenever the jobs and nodes are
        in the regime its preconditions pin down, and the per-grant scalar
        loop for everything else.  The bulk path performs
        the same float operations in the same order as the scalar loop —
        its preconditions are chosen to make that provable — so the
        placements and the placer's post-call state are bit-identical
        whichever path served a grant.
        """
        remaining: Dict[str, List[List]] = {}
        for name, queues in requests.items():
            live = [
                [idx, container, count]
                for idx, (container, count) in enumerate(queues)
                if count > 0
            ]
            if live:
                remaining[name] = live
        for name in remaining:
            if name not in self._arrival:  # keep a registered job's weight
                self.register_job(name)
        names: List[str] = []
        code_of: Dict[str, int] = {}
        chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        codes: List[int] = []
        nodes_out: List[int] = []
        qidx_out: List[int] = []
        # This loop runs once per launched task, so it is the scheduler's
        # only hot path.  Two things keep it lean: (a) a job's priority only
        # moves when *it* receives a grant, so the sort keys are cached and
        # just the winner's entry is refreshed; (b) `_touch` and `_priority`
        # are inlined (same arithmetic, no per-grant method dispatch).
        prio = {name: self._priority(name) for name in remaining}
        pick = self._pick_node_fast if self._fast else self._pick_node
        policy = self._policy
        usage_v = self._usage_v
        usage_m = self._usage_m
        arrival = self._arrival
        weights = self._weights
        cap_v = self._capacity.vcores
        cap_m = self._capacity.memory_mb
        heap_limit = max(64, 8 * len(self._nodes))
        # Bulk is attempted on entry and after each successful bulk span
        # (whose end may just mean a queue emptied).  A failed attempt
        # usually means a transient irregularity: a layer over a cluster
        # whose tier does not divide by the job count leaves a ragged
        # remainder, and one scalar turn per pending job restores tied jobs
        # over a clean top tier.  So a failure re-arms the bulk path after
        # ``len(remaining)`` scalar grants, and two consecutive failures end
        # the attempts for this call — keeping the precondition scans at
        # O(nodes) per bulk span rather than per grant.
        try_bulk = self._fast
        bulk_wait = 0  # scalar grants left before the next bulk attempt
        bulk_failures = 0  # consecutive failed attempts
        while remaining:
            if try_bulk and not bulk_wait:
                bulk = self._bulk_uniform_grants(remaining, prio, code_of, names)
                if bulk is not None:
                    bulk_failures = 0
                    if codes:
                        chunks.append(
                            (
                                np.asarray(codes, dtype=np.int64),
                                np.asarray(nodes_out, dtype=np.int64),
                                np.asarray(qidx_out, dtype=np.int64),
                            )
                        )
                        codes, nodes_out, qidx_out = [], [], []
                    chunks.append(bulk)
                    continue
                bulk_failures += 1
                try_bulk = bulk_failures < 2
                bulk_wait = len(remaining)
            candidates = sorted(remaining, key=prio.__getitem__)
            placed = False
            for name in candidates:
                queue = remaining[name][0]
                idx, container, count = queue
                node = pick(container, name)
                if node is None:
                    continue
                node.free_vcores -= container.vcores
                node.free_memory -= container.memory_mb
                # `_touch`, inlined.
                heapq.heappush(self._free_heap, (-node.free_memory, node.index))
                if len(self._free_heap) > heap_limit:
                    self._free_heap = [
                        (-n.free_memory, n.index) for n in self._nodes
                    ]
                    heapq.heapify(self._free_heap)
                v = usage_v[name] = usage_v[name] + container.vcores
                m = usage_m[name] = usage_m[name] + container.memory_mb
                # `_priority`, inlined (fifo keys never change).
                if policy != "fifo":
                    if policy == "fair":
                        share = m / cap_m
                    else:  # drf
                        share = max(v / cap_v, m / cap_m)
                    prio[name] = (
                        share / weights.get(name, 1.0),
                        arrival.get(name, 1 << 30),
                        name,
                    )
                code = code_of.get(name)
                if code is None:
                    code = code_of[name] = len(names)
                    names.append(name)
                codes.append(code)
                nodes_out.append(node.index)
                qidx_out.append(idx)
                if count == 1:
                    remaining[name].pop(0)
                    if not remaining[name]:
                        del remaining[name]
                else:
                    queue[2] = count - 1
                if bulk_wait:
                    bulk_wait -= 1
                placed = True
                break
            if not placed:
                break  # nothing fits anywhere
        if codes:
            chunks.append(
                (
                    np.asarray(codes, dtype=np.int64),
                    np.asarray(nodes_out, dtype=np.int64),
                    np.asarray(qidx_out, dtype=np.int64),
                )
            )
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return names, empty, empty.copy(), empty.copy()
        if len(chunks) == 1:
            c, n, q = chunks[0]
        else:
            c = np.concatenate([ch[0] for ch in chunks])
            n = np.concatenate([ch[1] for ch in chunks])
            q = np.concatenate([ch[2] for ch in chunks])
        return names, c, n, q

    def _bulk_uniform_grants(
        self,
        remaining: Dict[str, List[List]],
        prio: Dict[str, Tuple],
        code_of: Dict[str, int],
        names: List[str],
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Grant one layer over the top tier to a group of jobs at once.

        The *top tier* is the set of nodes bit-tied at the maximum free
        memory (see :meth:`_top_tier`).  Only tier nodes sit inside the
        scalar scan's 1e-6 tie window, and a granted node drops out of it,
        so the scalar loop's grants walk the ungranted tier nodes in ring
        order.  Two regimes of the scalar loop follow that walk provably,
        and together they cover the bulk of a large symmetric run:

        * **round-robin** — every remaining job bit-tied (usage, weight and
          head container) under DRF or fair, with a *strictly* rising
          share at every usage level the span visits: each grant puts its
          job behind all the others, so grant ``t`` goes to job ``t % J``
          in arrival order and lands on the ``t``-th tier node from job 0's
          cursor.  Each job's cursor must sit within (or just past) the
          tier run granted before its first turn, or past the last tier
          node, whence its scan wraps to the run: with ``rel`` the tier
          nodes' ring offsets from job 0's cursor ``start``, ascending,
          ``(cursor_k - start) % n <= rel[k]`` or ``> rel[-1]``.
        * **winner** — otherwise ``J = 1``: the priority winner keeps
          winning until its share passes the runner-up's static priority
          (ties go its way only when its arrival order wins them), so the
          span is truncated at the first level where it would not.  Tied
          jobs whose container add rounds away (the share stops rising)
          land here: the scalar loop never rotates them.

        The span is capped at one layer, one grant per tier node: past it
        the scalar cursors land mid-ring.  A full layer leaves the granted
        nodes bit-tied at the new level, so the next call re-derives the
        tier and chains (that is how the scalar loop water-fills a ragged
        cluster); a ragged remainder is closed by a few scalar grants,
        after which the caller re-arms this path.

        State updates perform the scalar loop's float operations in the
        same order: one memory and one vcores subtraction per granted node,
        usage grown through a cumsum (strictly left-to-right additions),
        cursors one past each job's last granted node, and a heap rebuild
        (a legal compaction of the lazy heap).  Placements and post-call
        state are therefore bit-identical whichever path served a grant.
        Returns the (codes, nodes, queue idx) chunk, or ``None`` when no
        span of at least two grants is provable.
        """
        nodes = self._nodes
        n_nodes = len(nodes)
        if n_nodes < 8:
            return None
        jobs = sorted(remaining, key=prio.__getitem__)
        winner = jobs[0]
        _idx, container, count = remaining[winner][0]
        cm = container.memory_mb
        cv = container.vcores
        if cm <= 2.0 * _TIE_WINDOW:
            return None
        top = self._top_tier(cm)
        if top is None:
            return None
        free_hi, tier = top
        start = self._next_node.get(winner, 0)
        rel = (np.asarray(tier, dtype=np.int64) - start) % n_nodes
        rel.sort()
        # The winner's usage before each grant of the longest possible span
        # (one extra level: the usage after it).  These are the exact floats
        # the scalar loop stores (cumsum folds left to right), so a bit-tied
        # group shares them and a truncated span reads its prefix.
        levels = min(count, len(tier)) + 1
        lv = np.empty(levels)
        lm = np.empty(levels)
        lv[0] = self._usage_v[winner]
        lm[0] = self._usage_m[winner]
        lv[1:] = cv
        lm[1:] = cm
        np.cumsum(lv, out=lv)
        np.cumsum(lm, out=lm)
        if self._policy == "fair":
            shares = lm / self._capacity.memory_mb
        else:  # drf (fifo reads no shares)
            shares = np.maximum(
                lv / self._capacity.vcores, lm / self._capacity.memory_mb
            )
        shares /= self._weights.get(winner, 1.0)

        cycles = self._round_robin_cycles(jobs, remaining, rel, start, shares)
        if cycles:
            group = jobs
        else:
            group = jobs[:1]
            cycles = levels - 1
            if len(jobs) > 1 and self._policy != "fifo":
                runner_share, runner_arrival, runner_name = prio[jobs[1]]
                if (self._arrival.get(winner, 1 << 30), winner) < (
                    runner_arrival,
                    runner_name,
                ):
                    allowed = shares[:cycles] <= runner_share
                else:
                    allowed = shares[:cycles] < runner_share
                if not bool(allowed[-1]):
                    cycles = int(np.argmin(allowed))
            if cycles < 2:
                return None

        n_jobs = len(group)
        total = cycles * n_jobs
        grant_nodes = (start + rel[:total]) % n_nodes
        free_m1 = free_hi - cm
        for index in grant_nodes.tolist():
            node = nodes[index]
            node.free_memory = free_m1
            node.free_vcores -= cv
        end_v = float(lv[cycles])
        end_m = float(lm[cycles])
        last = grant_nodes[total - n_jobs :].tolist()
        qidx = np.empty(total, dtype=np.int64)
        code_arr = np.empty(total, dtype=np.int64)
        for k, name in enumerate(group):
            self._usage_v[name] = end_v
            self._usage_m[name] = end_m
            prio[name] = self._priority(name)
            self._next_node[name] = (last[k] + 1) % n_nodes
            code = code_of.get(name)
            if code is None:
                code = code_of[name] = len(names)
                names.append(name)
            queue = remaining[name][0]
            code_arr[k::n_jobs] = code
            qidx[k::n_jobs] = queue[0]
            if queue[2] == cycles:
                remaining[name].pop(0)
                if not remaining[name]:
                    del remaining[name]
            else:
                queue[2] -= cycles
        # Flag a lazy heap rebuild, deferred to the next scalar pick so
        # chained spans pay for at most one.
        self._heap_dirty = True
        return code_arr, grant_nodes, qidx

    def _round_robin_cycles(
        self,
        jobs: List[str],
        remaining: Dict[str, List[List]],
        rel: np.ndarray,
        start: int,
        shares: np.ndarray,
    ) -> int:
        """Grants per job of a provable round-robin layer over all ``jobs``
        (see :meth:`_bulk_uniform_grants`), or 0 when the regime fails."""
        if len(jobs) < 2 or self._policy == "fifo":
            return 0
        lead = jobs[0]
        _idx, container, min_count = remaining[lead][0]
        weight = self._weights.get(lead, 1.0)
        usage = (self._usage_v[lead], self._usage_m[lead])
        for name in jobs[1:]:
            _idx, other, count = remaining[name][0]
            if (
                other.memory_mb != container.memory_mb
                or other.vcores != container.vcores
                or self._weights.get(name, 1.0) != weight
                or (self._usage_v[name], self._usage_m[name]) != usage
            ):
                return 0
            min_count = min(min_count, count)
        cycles = min(min_count, len(rel) // len(jobs))
        if cycles < 2:
            return 0
        n_nodes = len(self._nodes)
        for k, name in enumerate(jobs[1:], start=1):
            offset = (self._next_node.get(name, 0) - start) % n_nodes
            if rel[k] < offset <= rel[-1]:
                return 0
        if not bool(np.all(shares[1 : cycles + 1] > shares[:cycles])):
            return 0
        return cycles

    def _top_tier(self, cm: float) -> Optional[Tuple[float, List[int]]]:
        """The top tier a bulk span may walk: ``(free_hi, node indices)``.

        The tier is the set of nodes bit-tied at the maximum free memory
        ``free_hi``, in index order.  Returns ``None`` unless the scalar
        scan provably sees exactly this tier: a container of ``cm`` MB
        fits it, a granted tier node's subtraction leaves the 1e-6 tie
        window (checked in the scan's exact floats), and no other node
        sits inside the window (near-ties keep the scalar loop's exact
        semantics).
        """
        # One pass: the maximum, its tier, and the largest value below it.
        free_hi = below = float("-inf")
        tier: List[int] = []
        for node in self._nodes:
            free = node.free_memory
            if free == free_hi:
                tier.append(node.index)
            elif free > free_hi:
                below = free_hi
                free_hi = free
                tier = [node.index]
            elif free > below:
                below = free
        if not _tier_admits(free_hi, cm) or below >= free_hi - _TIE_WINDOW:
            return None
        return free_hi, tier

    # -- introspection ----------------------------------------------------------

    def free_capacity(self) -> ResourceVector:
        return ResourceVector(
            sum(n.free_vcores for n in self._nodes),
            sum(n.free_memory for n in self._nodes),
        )

    def tasks_on_node(self, node_index: int) -> float:
        """Committed vcores on a node (proxy for its running-task count)."""
        node = self._nodes[node_index]
        return float(self._cluster.node.cores) - node.free_vcores
