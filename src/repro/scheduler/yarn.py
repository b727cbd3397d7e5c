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
        path (:meth:`_bulk_uniform_grants`) that fires whole round-robin
        layers over the top tier of the cluster at once whenever the jobs
        and nodes are in the regime its preconditions pin down, and the
        per-grant scalar loop for everything else.  The bulk path performs
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
        """Grant a whole provable span of the scalar loop at once.

        Two regimes of the scalar loop admit a closed form, and together
        they cover the bulk of a large symmetric run:

        * **round-robin layer** (:meth:`_bulk_round_robin`) — several jobs
          bit-tied on usage, requesting the bit-identical container: grants
          provably cycle through the jobs in arrival order while walking
          the top tier of bit-tied least-loaded nodes in ring order;
        * **winner run** (:meth:`_bulk_winner_run`) — one job strictly
          ahead of every other (or alone, or first under FIFO): it provably
          receives a consecutive run of grants that walks the *top tier* of
          bit-tied least-loaded nodes in ring order.

        Both paths perform the same float operations in the same order as
        the scalar loop — their preconditions are chosen to make that
        provable — so placements and post-call state are bit-identical
        whichever path served a grant.  Returns the (codes, nodes, queue
        idx) chunk, or ``None`` when neither regime's preconditions hold.
        """
        if len(self._nodes) < 8:
            return None
        jobs = sorted(remaining, key=prio.__getitem__)
        if len(jobs) > 1:
            out = self._bulk_round_robin(jobs, remaining, prio, code_of, names)
            if out is not None:
                return out
        return self._bulk_winner_run(jobs, remaining, prio, code_of, names)

    def _bulk_round_robin(
        self,
        jobs: List[str],
        remaining: Dict[str, List[List]],
        prio: Dict[str, Tuple],
        code_of: Dict[str, int],
        names: List[str],
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Grant one whole round-robin layer over the top tier at once.

        In the regime that dominates large symmetric waves — every competing
        job bit-tied and requesting the bit-identical container — the scalar
        loop's behaviour is provably a fixed pattern: grant ``t`` lands on
        the ``t``-th node of the *top tier* (the nodes bit-tied at the
        maximum free memory, see :meth:`_top_tier`) in ring order from job
        0's cursor, and goes to job ``t % J`` of the (recurring) priority
        order.  Proof sketch: only tier nodes sit inside the 1e-6 tie
        window, so a job's round-robin scan picks the first ungranted tier
        node at or after its cursor; a granted node drops out of the window
        (checked in float), so within one layer the grant frontier advances
        one tier node per grant, in ring order.  The span is capped at a
        single layer (no node granted twice) because past the layer
        boundary the scalar cursors land mid-ring and the pattern genuinely
        changes — but a *full* layer leaves the granted nodes bit-tied
        again, so the next bulk call chains, re-validating per layer.  A
        layer that leaves a ragged remainder (tier size not a multiple of
        ``J``) is closed by a few scalar grants, after which the caller
        re-arms the bulk path.

        Preconditions (checked, else ``None`` and the caller stays scalar):

        * >= 2 jobs and not FIFO (FIFO never rotates; both the single-job
          and the FIFO-head cases belong to :meth:`_bulk_winner_run`);
        * every job's head-queue container bit-equal, with memory above the
          tie window;
        * bit-equal usage vectors and weights across the jobs, and a
          *strictly* increasing share at every usage level the span visits
          — bit-tied fields plus a strict riser put each winner behind all
          others, so arrival order provably cycles with no drift (the
          strictness check matters: at extreme magnitudes a container add
          can round away);
        * the container fits the top tier, a granted node leaves the tie
          window, and no other node sits inside it;
        * each job ``k``'s cursor sits within (or just past) the tier run
          the span will have granted when its first turn comes, or past the
          last tier node (its scan then wraps to the run): with ``rel`` the
          tier nodes' ring offsets from job 0's cursor ``start``, ascending,
          ``(cursor_k - start) % n <= rel[k]`` or ``> rel[-1]``.

        The all-nodes-tied cluster (every even wave) is recognised by one
        equality scan; the tier is derived only when that scan fails.

        State updates are float-exact versus the scalar loop: each granted
        node sees exactly one memory and one vcores subtraction, job usage
        grows through a cumsum (strictly left-to-right additions), cursors
        land one past each job's last tier node, and the heap is rebuilt —
        a legal compaction of the lazy heap.  Returns the (codes, nodes,
        queue idx) chunk.
        """
        n_jobs = len(jobs)
        nodes = self._nodes
        n_nodes = len(nodes)
        if self._policy == "fifo":
            return None
        head0 = remaining[jobs[0]][0]
        container = head0[1]
        cm = container.memory_mb
        cv = container.vcores
        if cm <= 2.0 * _TIE_WINDOW:
            return None
        min_count = head0[2]
        for name in jobs:
            _idx, cont, count = remaining[name][0]
            if cont.memory_mb != cm or cont.vcores != cv:
                return None
            if count < min_count:
                min_count = count
        # Bit-tied jobs + bit-equal per-grant increments: after every
        # full cycle the jobs are bit-tied again, so the winner order is
        # provably the arrival order, every cycle, with no drift.
        w0 = self._weights.get(jobs[0], 1.0)
        v0 = self._usage_v[jobs[0]]
        m0 = self._usage_m[jobs[0]]
        for name in jobs[1:]:
            if (
                self._weights.get(name, 1.0) != w0
                or self._usage_v[name] != v0
                or self._usage_m[name] != m0
            ):
                return None
        start = self._next_node.get(jobs[0], 0)
        free_hi = nodes[0].free_memory
        vfree0 = nodes[0].free_vcores
        uniform = True
        for node in nodes:
            if node.free_memory != free_hi or node.free_vcores != vfree0:
                uniform = False
                break
        if uniform:
            # Every node is in the tier, at ring offset == tier position.
            if not _tier_admits(free_hi, cm):
                return None
            n_tier = n_nodes
            rel = None
        else:
            top = self._top_tier(cm)
            if top is None:
                return None
            free_hi, tier = top
            n_tier = len(tier)
            rel = (np.asarray(tier, dtype=np.int64) - start) % n_nodes
            rel.sort()
        # One layer per span: every tier node receives at most one grant.
        cycles = min(min_count, n_tier // n_jobs)
        if cycles < 2:
            return None
        # Cursor geometry: job k's scan picks the first ungranted tier node
        # at or after its cursor, so the pattern holds iff each cursor sits
        # within (or just past) the tier run granted before its first turn
        # — or past the last tier node, whence the scan wraps to the run.
        for k, name in enumerate(jobs[1:], start=1):
            offset = (self._next_node.get(name, 0) - start) % n_nodes
            if rel is None:
                if offset > k:
                    return None
            elif rel[k] < offset <= rel[-1]:
                return None
        # Strict share monotonicity across every level the span visits
        # (see docstring).  The level values are the exact usage floats
        # the scalar loop would store (cumsum folds left to right).
        lv = np.empty(cycles + 1)
        lm = np.empty(cycles + 1)
        lv[0] = v0
        lm[0] = m0
        lv[1:] = cv
        lm[1:] = cm
        np.cumsum(lv, out=lv)
        np.cumsum(lm, out=lm)
        if self._policy == "fair":
            shares = lm / self._capacity.memory_mb
        else:  # drf
            shares = np.maximum(
                lv / self._capacity.vcores, lm / self._capacity.memory_mb
            )
        if not bool(np.all(shares[1:] > shares[:-1])):
            return None

        total = cycles * n_jobs
        # Node state: each granted node sees exactly one subtraction, the
        # same single float op the scalar loop would perform.
        free_m1 = free_hi - cm
        if rel is None:
            grant_nodes = (start + np.arange(total, dtype=np.int64)) % n_nodes
            free_v1 = vfree0 - cv
            for index in grant_nodes.tolist():
                node = nodes[index]
                node.free_memory = free_m1
                node.free_vcores = free_v1
        else:
            grant_nodes = (start + rel[:total]) % n_nodes
            for index in grant_nodes.tolist():
                node = nodes[index]
                node.free_memory = free_m1
                node.free_vcores -= cv
        # Job usage: `cycles` sequential adds per job via the cumsum trick
        # (acc[0]=current, acc[1:]=delta — np.cumsum folds strictly left to
        # right, the same floats as the scalar loop's += chain).
        acc = np.empty(cycles + 1)
        for name in jobs:
            acc[0] = self._usage_m[name]
            acc[1:] = cm
            self._usage_m[name] = float(np.cumsum(acc)[-1])
            acc[0] = self._usage_v[name]
            acc[1:] = cv
            self._usage_v[name] = float(np.cumsum(acc)[-1])
            prio[name] = self._priority(name)
        # Cursors: each job's scan stops one past its last granted node.
        last = grant_nodes[total - n_jobs :].tolist()
        for k, name in enumerate(jobs):
            self._next_node[name] = (last[k] + 1) % n_nodes
        # Heap: flag for a lazy rebuild (a legal compaction, deferred to the
        # next scalar pick so chained batch spans pay for at most one).
        self._heap_dirty = True
        # Queue bookkeeping, exactly as `cycles` scalar grants would leave it.
        qidx = np.empty(total, dtype=np.int64)
        code_arr = np.empty(total, dtype=np.int64)
        for k, name in enumerate(jobs):
            queue = remaining[name][0]
            code = code_of.get(name)
            if code is None:
                code = code_of[name] = len(names)
                names.append(name)
            code_arr[k::n_jobs] = code
            qidx[k::n_jobs] = queue[0]
            if queue[2] == cycles:
                remaining[name].pop(0)
                if not remaining[name]:
                    del remaining[name]
            else:
                queue[2] = queue[2] - cycles
        return code_arr, grant_nodes, qidx

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

    def _bulk_winner_run(
        self,
        jobs: List[str],
        remaining: Dict[str, List[List]],
        prio: Dict[str, Tuple],
        code_of: Dict[str, int],
        names: List[str],
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Grant a consecutive run to the strictly-winning job at once.

        When one job sits strictly ahead of every other in the priority
        order — because it is alone, or FIFO puts it first, or its share
        stays below the runner-up's for the whole run — the scalar loop
        hands it every grant of the run, and each grant provably lands on
        the *top tier*: the set of nodes bit-tied at the maximum free
        memory.  Proof sketch: `_pick_node_fast` scans the ring from the
        job's cursor for the first node within the 1e-6 tie window of the
        maximum; a granted node drops below the window (precondition), so
        successive grants walk the ungranted tier nodes in ring order from
        the cursor, and the span caps at one grant per tier node.  A fully
        granted tier leaves its nodes bit-tied again at the new level, so
        the next bulk call re-derives the new top tier and chains — which
        is exactly how the scalar loop water-fills a ragged cluster.

        Preconditions (checked, else ``None`` and the caller stays scalar):

        * the winner's head container exceeds the tie window and passes
          :meth:`_top_tier`'s checks;
        * multi-job, non-FIFO: the winner's share — recomputed at every
          usage level the run visits, with the scalar loop's exact floats —
          stays below the runner-up's static priority (ties included only
          when the winner's arrival order wins them); the run is truncated
          at the first level where it would not.

        State updates are float-exact versus the scalar loop: one memory
        subtraction per granted node (bit-tied inputs give the bit-equal
        result the shared value stores), per-node vcores subtraction,
        winner usage via the cumsum trick, cursor one past the last grant,
        heap rebuilt (a legal compaction).  Returns the (codes, nodes,
        queue idx) chunk.
        """
        winner = jobs[0]
        head = remaining[winner][0]
        queue_idx, container, count = head
        cm = container.memory_mb
        cv = container.vcores
        if cm <= 2.0 * _TIE_WINDOW:
            return None
        top = self._top_tier(cm)
        if top is None:
            return None
        free_hi, tier = top
        nodes = self._nodes
        n_nodes = len(nodes)
        cycles = min(count, len(tier))
        if len(jobs) > 1 and self._policy != "fifo":
            # The runner-up's priority is static while the winner is served;
            # truncate the run at the first level where the winner would no
            # longer be sorted first.  Shares are the exact floats the
            # scalar loop stores (cumsum folds left to right), so the cut
            # lands on the exact grant where the scalar winner changes.
            runner_share, runner_arrival, runner_name = prio[jobs[1]]
            lv = np.empty(cycles)
            lm = np.empty(cycles)
            lv[0] = self._usage_v[winner]
            lm[0] = self._usage_m[winner]
            lv[1:] = cv
            lm[1:] = cm
            np.cumsum(lv, out=lv)
            np.cumsum(lm, out=lm)
            if self._policy == "fair":
                shares = lm / self._capacity.memory_mb
            else:  # drf
                shares = np.maximum(
                    lv / self._capacity.vcores, lm / self._capacity.memory_mb
                )
            shares /= self._weights.get(winner, 1.0)
            winner_key = (self._arrival.get(winner, 1 << 30), winner)
            if winner_key < (runner_arrival, runner_name):
                allowed = shares <= runner_share
            else:
                allowed = shares < runner_share
            if not bool(allowed[-1]):
                cycles = int(np.argmin(allowed))
        if cycles < 2:
            return None
        # Grants walk the ungranted tier nodes in ring order from the cursor.
        start = self._next_node.get(winner, 0)
        tier_arr = np.asarray(tier, dtype=np.int64)
        rel = (tier_arr - start) % n_nodes
        rel.sort()
        grant_nodes = (start + rel[:cycles]) % n_nodes
        # Node state: one subtraction per granted node, the same float op
        # the scalar loop performs (bit-tied inputs, bit-equal result).
        free_m1 = free_hi - cm
        for index in grant_nodes.tolist():
            node = nodes[index]
            node.free_memory = free_m1
            node.free_vcores -= cv
        # Winner usage: `cycles` sequential adds via the cumsum trick.
        acc = np.empty(cycles + 1)
        acc[0] = self._usage_m[winner]
        acc[1:] = cm
        self._usage_m[winner] = float(np.cumsum(acc)[-1])
        acc[0] = self._usage_v[winner]
        acc[1:] = cv
        self._usage_v[winner] = float(np.cumsum(acc)[-1])
        prio[winner] = self._priority(winner)
        self._next_node[winner] = int((grant_nodes[-1] + 1) % n_nodes)
        # Heap: flag for a lazy rebuild (a legal compaction, deferred to the
        # next scalar pick so chained batch spans pay for at most one).
        self._heap_dirty = True
        code = code_of.get(winner)
        if code is None:
            code = code_of[winner] = len(names)
            names.append(winner)
        code_arr = np.full(cycles, code, dtype=np.int64)
        qidx = np.full(cycles, queue_idx, dtype=np.int64)
        if count == cycles:
            remaining[winner].pop(0)
            if not remaining[winner]:
                del remaining[winner]
        else:
            head[2] = count - cycles
        return code_arr, grant_nodes, qidx

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
