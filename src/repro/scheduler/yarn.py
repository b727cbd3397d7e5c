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

The per-node state is two float64 columns, free memory and free vcores,
indexed by node.  Every step that looks at the whole cluster (the pick, the
top-tier scan of a bulk grant, a bulk commit, a batched release) is a handful
of array operations over them, so a 3,000-node cluster costs little more per
step than a 10-node one.  Each node's value still changes by the same float
additions and subtractions, in the same order, as a per-container walk would
make, so placements are bit-identical to the scalar scan of `_pick_node`.
"""

from __future__ import annotations

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

POLICIES = ("drf", "fifo", "fair")


def _tier_admits(free_hi: float, cm: float) -> bool:
    """Whether a ``cm`` MB container fits a top tier at ``free_hi`` MB and a
    granted tier node leaves the scalar scan's tie window (in its floats)."""
    return cm <= free_hi + _EPS and free_hi - cm < free_hi - _TIE_WINDOW


def _clamp_zero(value: float) -> float:
    """ResourceVector.__sub__'s drift snap, applied to a bare component."""
    return 0.0 if -1e-6 < value < 0.0 else value


class YarnPlacer:
    """Stateful container placement over the nodes of one cluster.

    Node ``i``'s free memory and free vcores are ``_free_m[i]`` and
    ``_free_v[i]``.  With ``fast=True`` (the default) a grant is picked by
    the vectorised `_pick_node_fast`, and uniform waves under memory-only
    admission are granted a whole layer at a time by
    `_bulk_uniform_grants`; ``fast=False`` (the simulator's reference
    engine) picks every grant with the plain scan `_pick_node`, the oracle
    both fast paths are tested against.
    """

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
        self._fast = fast
        # The bulk path's tier proofs assume admission is monotone in free
        # memory alone, which strict-vcores mode breaks.
        self._bulk = fast and not enforce_vcores
        node = cluster.node
        self._free_m = np.full(cluster.workers, node.memory_mb, dtype=np.float64)
        self._free_v = np.full(cluster.workers, float(node.cores), dtype=np.float64)
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

    # -- bookkeeping -----------------------------------------------------------

    def register_job(self, name: str, weight: float = 1.0) -> None:
        """Record arrival order (FIFO) and initialise usage accounting."""
        if name not in self._arrival:
            self._arrival[name] = self._arrival_counter
            self._arrival_counter += 1
            self._usage_v.setdefault(name, 0.0)
            self._usage_m.setdefault(name, 0.0)
            self._next_node.setdefault(name, self._arrival[name] % self._free_m.size)
        self._weights[name] = weight

    def usage_of(self, name: str) -> ResourceVector:
        if name not in self._usage_v:
            return ZERO_VECTOR
        return ResourceVector(self._usage_v[name], self._usage_m[name])

    def release(self, name: str, node_index: int, container: ResourceVector) -> None:
        """Return a finished task's container to its node."""
        free_m = self._free_m
        free_v = self._free_v
        fm = free_m.item(node_index) + container.memory_mb
        free_m[node_index] = fm
        free_v[node_index] = free_v.item(node_index) + container.vcores
        if fm > self._cluster.node.memory_mb + _EPS:
            raise SchedulingError(
                f"released more memory than node {node_index} owns "
                f"({fm} > {self._cluster.node.memory_mb})"
            )
        self._usage_v[name] = _clamp_zero(self._usage_v[name] - container.vcores)
        self._usage_m[name] = _clamp_zero(self._usage_m[name] - container.memory_mb)

    def release_batch(
        self,
        name: str,
        node_idx: np.ndarray,
        counts: np.ndarray,
        container: ResourceVector,
    ) -> None:
        """Return many identical containers of one job at once.

        Float-exact versus the equivalent sequence of :meth:`release` calls:
        step ``k`` adds one container back to every node whose count
        exceeds ``k``, so each node sees the same left-to-right chain of
        additions (a single ``count * memory`` multiply would reassociate
        the float sums and drift the admission threshold), and the usage
        vector shrinks by the same one-at-a-time subtractions.  Nodes are
        checked for over-release before any state changes.

        Args:
            name: the owning job.
            node_idx: distinct node indices (as ``np.unique`` returns them).
            counts: containers released on each of those nodes, each >= 1.
            container: the (identical) container size being released.
        """
        cv = container.vcores
        cm = container.memory_mb
        fm = self._free_m[node_idx]
        fv = self._free_v[node_idx]
        for k in range(int(counts.max(initial=0))):
            live = counts > k
            fm[live] += cm
            fv[live] += cv
        over = np.flatnonzero(fm > self._cluster.node.memory_mb + _EPS)
        if over.size:
            first = over.item(0)
            raise SchedulingError(
                f"released more memory than node {node_idx.item(first)} owns "
                f"({fm.item(first)} > {self._cluster.node.memory_mb})"
            )
        self._free_m[node_idx] = fm
        self._free_v[node_idx] = fv
        total = int(counts.sum())
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

    # -- placement -------------------------------------------------------------

    def _pick_node(self, container: ResourceVector, job: str) -> Optional[int]:
        """Least-loaded (most free memory) node that fits the container.

        Ties are broken by a per-job round-robin cursor rather than by node
        index: real YARN hands out containers on node-manager heartbeats,
        which interleaves concurrent jobs across nodes.  A fixed-index
        tie-break instead *segregates* jobs onto disjoint node subsets (job A
        always wins the even heartbeat, job B the odd one), silently removing
        the cross-job resource contention this whole library studies.

        This is the plain scan, one node at a time: the reference engine
        runs it, and the tests hold `_pick_node_fast` to it.
        """
        free_m = self._free_m.tolist()
        free_v = self._free_v.tolist()
        mem = container.memory_mb
        vc = container.vcores
        fitting = [
            mem <= m + _EPS and (not self._enforce_vcores or vc <= v + _EPS)
            for m, v in zip(free_m, free_v)
        ]
        if not any(fitting):
            return None
        best_memory = max(m for m, fits in zip(free_m, fitting) if fits)
        start = self._next_node.get(job, 0)
        n_nodes = len(free_m)
        for offset in range(n_nodes):
            index = (start + offset) % n_nodes
            if fitting[index] and free_m[index] >= best_memory - 1e-6:
                self._next_node[job] = (index + 1) % n_nodes
                return index
        return None  # pragma: no cover - fitting is non-empty

    def _pick_node_fast(self, container: ResourceVector, job: str) -> Optional[int]:
        """`_pick_node` as a few array operations over the node columns.

        The candidates are the fitting nodes' free memory (``-inf`` for a
        node that does not fit).  Under memory-only admission no mask is
        needed: admission is monotone in free memory, so either the global
        maximum fits or nothing does.  The window is every candidate within
        1e-6 of the best one; a window node can still fail the admission
        test when the threshold itself does not fit, and is then dropped.
        The pick is the window node nearest the job's cursor in ring order,
        the node the scan's walk would stop at.
        """
        free_m = self._free_m
        mem = container.memory_mb
        if self._enforce_vcores:
            fits = (mem <= free_m + _EPS) & (container.vcores <= self._free_v + _EPS)
            candidates = np.where(fits, free_m, -np.inf)
        else:
            candidates = free_m
        best = candidates.item(candidates.argmax())
        if not mem <= best + _EPS:
            return None
        threshold = best - 1e-6
        window = candidates >= threshold
        if not mem <= threshold + _EPS:
            window &= mem <= free_m + _EPS
        # The first window node at or after the cursor, else the first one.
        cursor = self._next_node.get(job, 0)
        index = cursor + int(window[cursor:].argmax())
        if not window.item(index):
            index = int(window.argmax())
        self._next_node[job] = (index + 1) % free_m.size
        return index

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
        # just the winner's entry is refreshed; (b) `_priority` is inlined
        # (same arithmetic, no per-grant method dispatch).
        prio = {name: self._priority(name) for name in remaining}
        pick = self._pick_node_fast if self._fast else self._pick_node
        policy = self._policy
        usage_v = self._usage_v
        usage_m = self._usage_m
        arrival = self._arrival
        weights = self._weights
        cap_v = self._capacity.vcores
        cap_m = self._capacity.memory_mb
        free_m = self._free_m
        free_v = self._free_v
        # Bulk is attempted on entry and after each successful bulk span
        # (whose end may just mean a queue emptied).  A failed attempt
        # usually means a transient irregularity: a layer over a cluster
        # whose tier does not divide by the job count leaves a ragged
        # remainder, and one scalar turn per pending job restores tied jobs
        # over a clean top tier.  So a failure re-arms the bulk path after
        # ``len(remaining)`` scalar grants, and two consecutive failures end
        # the attempts for this call — keeping the precondition scans at
        # O(nodes) per bulk span rather than per grant.
        try_bulk = self._bulk
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
                free_v[node] = free_v.item(node) - container.vcores
                free_m[node] = free_m.item(node) - container.memory_mb
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
                nodes_out.append(node)
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
        and cursors one past each job's last granted node.  Placements and
        post-call state are therefore bit-identical whichever path served a
        grant.
        Returns the (codes, nodes, queue idx) chunk, or ``None`` when no
        span of at least two grants is provable.
        """
        n_nodes = self._free_m.size
        if n_nodes < 8:
            return None
        jobs = sorted(remaining, key=prio.__getitem__)
        winner = jobs[0]
        _idx, container, count = remaining[winner][0]
        cm = container.memory_mb
        cv = container.vcores
        # Either regime grants the winner's head queue at least twice.
        if count < 2 or cm <= 2.0 * _TIE_WINDOW:
            return None
        top = self._top_tier(cm)
        if top is None:
            return None
        free_hi, tier = top
        start = self._next_node.get(winner, 0)
        rel = (tier - start) % n_nodes
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
        lv.cumsum(out=lv)
        lm.cumsum(out=lm)
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
        # Tier nodes are distinct and all at ``free_hi``: one subtraction
        # per granted node, as the scalar loop makes.
        self._free_m[grant_nodes] = free_hi - cm
        self._free_v[grant_nodes] -= cv
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
        n_nodes = self._free_m.size
        for k, name in enumerate(jobs[1:], start=1):
            offset = (self._next_node.get(name, 0) - start) % n_nodes
            if rel[k] < offset <= rel[-1]:
                return 0
        if not bool(np.all(shares[1 : cycles + 1] > shares[:cycles])):
            return 0
        return cycles

    def _top_tier(self, cm: float) -> Optional[Tuple[float, np.ndarray]]:
        """The top tier a bulk span may walk: ``(free_hi, node indices)``.

        The tier is the set of nodes bit-tied at the maximum free memory
        ``free_hi``, in index order.  Returns ``None`` unless the scalar
        scan provably sees exactly this tier: a container of ``cm`` MB
        fits it, a granted tier node's subtraction leaves the 1e-6 tie
        window (checked in the scan's exact floats), and no other node
        sits inside the window (near-ties keep the scalar loop's exact
        semantics).
        """
        free = self._free_m
        free_hi = free.item(free.argmax())
        if not _tier_admits(free_hi, cm):
            return None
        tier = (free >= free_hi - _TIE_WINDOW).nonzero()[0]
        window = free[tier]
        if window.item(window.argmin()) != free_hi:
            return None  # a near-tie below the maximum sits in the window
        return free_hi, tier

    # -- introspection ----------------------------------------------------------

    def free_capacity(self) -> ResourceVector:
        # Memory-only admission may commit more vcores than a node has; an
        # oversubscribed node has no free vcores, not a negative count.
        # Python's left-to-right sum: ndarray.sum() adds pairwise, which
        # rounds differently.
        free_v = np.maximum(self._free_v, 0.0)
        return ResourceVector(sum(free_v.tolist()), sum(self._free_m.tolist()))
