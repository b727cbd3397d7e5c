"""Fair sharing of resource pools among fluid flows.

This is the mechanism that makes the simulator a faithful stand-in for a real
cluster: at any instant, every active task sub-stage is a *flow* that needs
several resources at once (its pipelined operations), and the OS/hardware
time-share each resource among its users — the disk scheduler fair-queues
bytes, the CPU scheduler round-robins runnable threads, the NIC serialises
packets.

The physical semantics are **per-device equal sharing among demanding flows,
with redistribution**:

* each device serves its active demanders at equal rates, *except* that a
  flow whose progress is limited elsewhere (its bottleneck operation sits on
  another device, or it is capped at one core) demands less than its fair
  share — and the slack goes back to the hungry flows (water-filling);
* a flow's progress rate is the minimum over its operations of what each
  device grants it (the pipeline moves at its slowest operation — the fluid
  version of the paper's Eq. 3).

Formally the allocation is the fixed point of

    r_i = min( cap_i,  min_{R in ops(i)}  tau_R / w_iR )
    where tau_R solves   sum_i min(w_iR * r_i, tau_R) = C_R   (tau_R = inf
    when the device is unsaturated)

which we compute by Gauss-Seidel iteration from an optimistic start.  The
fixed point realises the paper's execution model mechanically: every flow is
limited by exactly one bottleneck operation, and non-bottleneck devices run
at utilisation ``p_X < 1`` (the Fig. 4 numbers); a CPU-bound job's tasks
occupy the disk only at their actual ``p_disk``, so a co-running disk-bound
job observes a larger effective share — the redistribution the paper's
Table II discussion relies on.

Rates are expressed in *progress units per second*: a flow that must move
``w_p`` units through pool ``p`` per unit of progress consumes ``rate * w_p``
of that pool's capacity.

Symmetric flows — identical ``(demands, cap)`` signatures, ubiquitous at
scale because every task of one wave of one stage performs the same work —
provably receive equal rates at the fixed point (the allocation is the
unique max-min-fair point and is invariant under permuting identical flows).
They therefore form one *equivalence class* with a multiplicity, and
:func:`solve_max_min_classes` iterates over classes: a node running six
identical map tasks solves a 1-class problem, not a 6-flow Gauss–Seidel.

:class:`SharingRegistry` is the one place that decides what a class is.  A
simulation builds one and interns every task pipeline into it (sub-stages,
class ids, gate flag, failure weights); a node's sharing problem is then a
``((class id, count), ...)`` composition, solved once per distinct
composition.  ``solve_max_min`` groups its flows through a registry of its
own, so the flow-level API and the engines share one class key and one
class order.  Pass ``collapse=False`` for the historical per-flow iteration
(kept as the reference implementation the class solver is tested against,
and the rate path of the ``reference`` event loop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.resources import Resource
from repro.core.memo import DEFAULT_CACHE_ENTRIES, LRUCache
from repro.errors import SimulationError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.phases import SubStageSpec, build_task_substages
from repro.mapreduce.stage import StageKind

_EPS = 1e-12
_MAX_ITER = 500
_REL_TOL = 1e-10
# The collapsed solver self-consistently places whole classes at the water
# level, so each sweep is a contraction with a tiny per-sweep cost (a handful
# of classes instead of dozens of flows).  Converging it much tighter than
# the per-flow reference keeps the two solutions — and hence fast- and
# reference-engine traces — within ~1e-10 relative of each other.
_REL_TOL_COLLAPSED = 1e-13
# The damped fallback phases accept a slightly looser fixed point: damping
# halves the step, so the oscillation amplitude — not the distance to the
# fixed point — is what the residual measures there.
_REL_TOL_DAMPED = 1e-9
_REL_TOL_COLLAPSED_DAMPED = 1e-11


@dataclass(frozen=True)
class FlowSpec:
    """One fluid flow competing for pooled resources.

    Attributes:
        flow_id: unique identifier.
        demands: (pool_id, weight) pairs; ``weight`` is the pool units the
            flow consumes per unit of progress.  Zero-weight entries must be
            filtered out by the caller.
        cap: optional private progress-rate cap (units of progress per
            second), e.g. ``1/amount`` for a one-core compute operation.
    """

    flow_id: str
    demands: Tuple[Tuple[str, float], ...]
    cap: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.demands and self.cap is None:
            raise SimulationError(
                f"flow {self.flow_id!r} has no demands and no cap; its rate "
                "would be unbounded — zero-work flows must complete instantly "
                "at the engine level instead"
            )
        for pool_id, weight in self.demands:
            if weight <= 0:
                raise SimulationError(
                    f"flow {self.flow_id!r} has non-positive demand {weight} on {pool_id!r}"
                )
        if self.cap is not None and self.cap <= 0:
            raise SimulationError(f"flow {self.flow_id!r} has non-positive cap")


def _hungry_level(others: List[float], capacity: float) -> float:
    """The share a flow would receive on a device if it demanded infinitely,
    while the ``others`` demand the given amounts.

    Solves ``tau + sum_j min(d_j, tau) = capacity`` for ``tau``: the flows
    smaller than the water level keep their demand, everyone else (including
    the hungry flow) gets ``tau``.
    """
    if not others:
        return capacity
    ordered = sorted(others)
    n = len(ordered)
    prefix = 0.0
    for m, demand in enumerate(ordered):
        # Hypothesis: the m smallest others are fully satisfied; the hungry
        # flow and the remaining (n - m) others all sit at the level.
        tau = (capacity - prefix) / (n - m + 1)
        if tau <= demand + _EPS:
            return tau
        prefix += demand
    return capacity - prefix


def _hungry_level_grouped(
    others: List[Tuple[float, int]], capacity: float, hungry: int = 1
) -> float:
    """:func:`_hungry_level` over (demand, multiplicity) groups, with a
    *class* of ``hungry`` identical flows demanding infinitely.

    Solves ``hungry * tau + sum_j min(d_j, tau) = capacity``.  Within a
    group either every member fits under the water level or none does
    (equal demands), so groups are admitted wholesale.  Treating the whole
    hungry class simultaneously (rather than one member against ``m - 1``
    frozen copies of its own old rate) is what lets the class-level
    Gauss-Seidel land on the self-consistent share in one step instead of
    creeping towards it — at the fixed point a bottlenecked class's members
    all sit *at* the level, so the equations coincide.
    """
    if not others:
        return capacity / hungry
    ordered = sorted(others)
    total = sum(count for _, count in ordered)
    prefix = 0.0
    consumed = 0
    for demand, count in ordered:
        tau = (capacity - prefix) / (total - consumed + hungry)
        if tau <= demand + _EPS:
            return tau
        prefix += demand * count
        consumed += count
    return (capacity - prefix) / hungry


def _nonconvergence(
    residual: float, n_classes: int, damping: float, tol: float
) -> SimulationError:
    """Diagnostic error for a Gauss-Seidel that exhausted its sweep budget.

    Historically both solvers silently returned the last iterate here, so a
    divergent sharing problem would feed garbage rates into the engine and
    surface (if at all) as an inexplicable trace.  Failing loudly with the
    residual makes the pathology attributable.
    """
    return SimulationError(
        "max-min sharing failed to converge: relative residual "
        f"{residual:.3e} > {tol:.0e} after {_MAX_ITER} damped sweeps "
        f"(classes={n_classes}, damping={damping})"
    )


def class_sort_key(cap: Optional[float], items: Tuple[Tuple[str, float], ...]):
    """Canonical ordering key of one equivalence class.

    :meth:`SharingRegistry.rates` presents every composition's classes to
    the solver in this order: two solves seeing the same multiset of flows
    perform bit-identical sweeps, which is what keeps symmetric cluster
    nodes on float-identical rates.
    """
    return (cap is None, cap if cap is not None else 0.0, items)


def solve_max_min_classes(
    cls_weights: Sequence[Mapping[str, float]],
    cls_caps: Sequence[Optional[float]],
    multiplicity: Sequence[int],
    capacities: Mapping[str, float],
) -> List[float]:
    """Gauss-Seidel over equivalence classes of identical flows.

    Takes the classes *pre-grouped* in :func:`class_sort_key` order and
    returns one rate per class.  Each class carries its multiplicity into
    the water-level computation (a class of ``m`` flows contributes ``m``
    demanders to every pool it uses).  Every class-level solve goes through
    here, by way of :meth:`SharingRegistry.rates`.
    """
    n_classes = len(cls_weights)
    pool_users: Dict[str, List[int]] = {}
    for ci, agg in enumerate(cls_weights):
        for pool_id in agg:
            pool_users.setdefault(pool_id, []).append(ci)

    # Optimistic start: each class's flows alone on the cluster.
    rates: List[float] = []
    for ci in range(n_classes):
        bound = cls_caps[ci] if cls_caps[ci] is not None else float("inf")
        for pool_id, weight in cls_weights[ci].items():
            bound = min(bound, capacities[pool_id] / weight)
        rates.append(bound)

    def sweep(damping: float) -> float:
        """One class-level sweep; returns the largest relative change."""
        max_change = 0.0
        for ci in range(n_classes):
            bound = cls_caps[ci] if cls_caps[ci] is not None else float("inf")
            for pool_id, weight in cls_weights[ci].items():
                others: List[Tuple[float, int]] = []
                for cj in pool_users[pool_id]:
                    if cj != ci:
                        others.append(
                            (cls_weights[cj][pool_id] * rates[cj], multiplicity[cj])
                        )
                level = _hungry_level_grouped(
                    others, capacities[pool_id], hungry=multiplicity[ci]
                )
                bound = min(bound, level / weight)
            if bound == float("inf"):  # pragma: no cover - FlowSpec forbids
                raise SimulationError(f"class {ci} is unbounded")
            updated = damping * rates[ci] + (1.0 - damping) * bound
            max_change = max(
                max_change, abs(updated - rates[ci]) / max(rates[ci], _EPS)
            )
            rates[ci] = updated
        return max_change

    converged = False
    residual = math.inf
    for _ in range(_MAX_ITER):
        residual = sweep(damping=0.0)
        if residual <= _REL_TOL_COLLAPSED:
            converged = True
            break
    if not converged:
        for _ in range(_MAX_ITER):
            residual = sweep(damping=0.5)
            if residual <= _REL_TOL_COLLAPSED_DAMPED:
                converged = True
                break
    if not converged:
        raise _nonconvergence(
            residual, n_classes, 0.5, _REL_TOL_COLLAPSED_DAMPED
        )

    return [max(r, 0.0) for r in rates]


def _repair_feasible(
    rates: List[float],
    weights: Sequence[Mapping[str, float]],
    multiplicity: Sequence[int],
    pool_users: Mapping[str, Sequence[int]],
    capacities: Mapping[str, float],
) -> None:
    """Scale oversubscribed pools' users down until every pool is feasible.

    Numerical leftovers of the Gauss-Seidel may overshoot a pool by a hair.
    Scaling a pool's users down never *increases* any pool's usage, so the
    repair converges; it is nevertheless iterated to an explicit fixed point
    (no pool above capacity) rather than trusting a single order-dependent
    pass, and guarded against the theoretical non-termination.  Mutates
    ``rates`` in place.
    """
    for _ in range(len(pool_users) + 1):
        scaled = False
        for pool_id, users in pool_users.items():
            used = sum(
                weights[i][pool_id] * rates[i] * multiplicity[i] for i in users
            )
            cap = capacities[pool_id]
            if used > cap * (1.0 + 1e-9):
                scale = cap / used
                for i in users:
                    rates[i] *= scale
                scaled = True
        if not scaled:
            return
    raise SimulationError(
        "feasibility repair failed to converge; rates remain oversubscribed"
    )  # pragma: no cover - scaling is monotone, one pass always suffices


#: Node-less pool name of each throughput resource.  A flow only touches its
#: own node's pools, so within one sharing problem the node suffix of the
#: reference loop's ``cpu:<n>`` ids carries no information, and the bare
#: names sort exactly like the suffixed ones: class order, sweep order and
#: rates are the same either way.
POOL_NAMES = {Resource.CPU: "cpu", Resource.DISK: "disk", Resource.NETWORK: "net"}


class Pipeline(NamedTuple):
    """One interned ``(job, kind, input size)`` sub-stage pipeline.

    Attributes:
        pid: index in :attr:`SharingRegistry.pipelines`.
        substages: the sub-stage specs, in execution order.
        scids: each sub-stage's class id.
        gate0: the first sub-stage is a shuffle that slow-start gates.
        fail_weights: each sub-stage's summed op amounts, over which a
            failure draw is spread.
        fail_total: their sum.
    """

    pid: int
    substages: List[SubStageSpec]
    scids: Tuple[int, ...]
    gate0: bool
    fail_weights: List[float]
    fail_total: float

    def failure_point(self, fail_at: float) -> Tuple[int, float]:
        """The ``(sub-stage, fraction)`` at which an attempt drawn to die at
        ``fail_at`` of its whole work dies, weighting sub-stages by their
        op amounts."""
        cumulative = 0.0
        last = len(self.fail_weights) - 1
        for idx, weight in enumerate(self.fail_weights):
            share = weight / self.fail_total
            if fail_at <= cumulative + share or idx == last:
                break
            cumulative += share
        return idx, min(0.999, (fail_at - cumulative) / share)


class SharingRegistry:
    """The sharing classes of one simulation, interned once.

    A class is the node-less key ``(cap, sorted (pool, weight) items)``:
    demands summed per pool in op order, caps ``min``-folded in op order.
    Class ids are dense and stable for the registry's life; a node's sharing
    problem is a composition ``((class id, count), ...)`` in ascending class
    id order, and :meth:`rates` solves each distinct composition in
    :func:`class_sort_key` order, memoised on a bounded LRU map (a solve is
    a pure function of the composition, so eviction only forces a
    re-solve).

    Args:
        capacities: pool name -> capacity of one node.
        remote_fraction: the cluster's, for the pipelines :meth:`pipeline`
            builds (0 for a single node).
    """

    def __init__(self, capacities: Mapping[str, float], remote_fraction: float = 0.0):
        self.capacities = capacities
        self._remote_fraction = remote_fraction
        self._class_ids: Dict[tuple, int] = {}
        self.weights: List[Dict[str, float]] = []
        self.caps: List[Optional[float]] = []
        self._sort_keys: List[tuple] = []
        # Bounded: under skew most compositions are seen once, so an
        # unbounded map would mostly keep answers it never reads again.
        self._rates = LRUCache(DEFAULT_CACHE_ENTRIES)
        self._pipeline_of: Dict[Tuple[str, StageKind, float], Pipeline] = {}
        self.pipelines: List[Pipeline] = []

    def intern(self, agg: Dict[str, float], cap: Optional[float]) -> int:
        """Class id of the flows with per-pool demands ``agg`` and ``cap``."""
        key = (cap, tuple(sorted(agg.items())))
        cid = self._class_ids.get(key)
        if cid is None:
            cid = len(self.weights)
            self._class_ids[key] = cid
            self.weights.append(agg)
            self.caps.append(cap)
            self._sort_keys.append(class_sort_key(*key))
        return cid

    def _intern_substage(self, sub: SubStageSpec) -> int:
        agg: Dict[str, float] = {}
        cap: Optional[float] = None
        for op in sub.ops:
            pool = POOL_NAMES.get(op.resource)
            if pool is None:
                raise SimulationError(f"{op.resource} is not a throughput pool")
            if op.amount <= 0:
                raise SimulationError(
                    f"sub-stage {sub.name!r} has non-positive demand {op.amount} on {pool!r}"
                )
            agg[pool] = agg.get(pool, 0.0) + op.amount
            if op.per_flow_cap is not None:
                op_cap = op.per_flow_cap / op.amount
                cap = op_cap if cap is None else min(cap, op_cap)
        return self.intern(agg, cap)

    def pipeline(self, job: MapReduceJob, kind: StageKind, input_mb: float) -> Pipeline:
        """The interned pipeline of one task of ``job``'s ``kind`` stage with
        ``input_mb`` input (identical tasks share one)."""
        key = (job.name, kind, input_mb)
        pipe = self._pipeline_of.get(key)
        if pipe is None:
            substages = build_task_substages(
                job,
                kind,
                task_input_mb=input_mb if input_mb > 0 else None,
                remote_fraction=self._remote_fraction,
            )
            fail_weights = [sum(op.amount for op in sub.ops) for sub in substages]
            pipe = Pipeline(
                len(self.pipelines),
                substages,
                tuple(self._intern_substage(sub) for sub in substages),
                kind is StageKind.REDUCE and substages[0].name == "shuffle",
                fail_weights,
                sum(fail_weights),
            )
            self.pipelines.append(pipe)
            self._pipeline_of[key] = pipe
        return pipe

    def rates(self, composition: Tuple[Tuple[int, int], ...]) -> Dict[int, float]:
        """Class id -> progress rate on a node running ``composition``."""
        rate_of = self._rates.get(composition)
        if rate_of is None:
            order = sorted(composition, key=lambda item: self._sort_keys[item[0]])
            solved = solve_max_min_classes(
                [self.weights[cid] for cid, _ in order],
                [self.caps[cid] for cid, _ in order],
                [count for _, count in order],
                self.capacities,
            )
            rate_of = {cid: rate for (cid, _), rate in zip(order, solved)}
            self._rates.put(composition, rate_of)
        return rate_of


def solve_max_min(
    flows: Sequence[FlowSpec],
    capacities: Mapping[str, float],
    collapse: bool = True,
) -> Dict[str, float]:
    """Equilibrium progress rates for ``flows`` over ``capacities``.

    Args:
        flows: the competing flows.  Flow ids must be unique.
        capacities: pool id -> capacity (units per second).  Every pool a
            flow references must be present and positive.
        collapse: solve over equivalence classes of identical flows
            (default).  ``False`` runs the historical per-flow iteration;
            both converge to the same fixed point (identical flows receive
            equal rates by symmetry), the collapsed form in far fewer
            operations when flows repeat.

    Returns:
        flow id -> progress rate (units of progress per second).
    """
    seen = set()
    for flow in flows:
        if flow.flow_id in seen:
            raise SimulationError(f"duplicate flow id {flow.flow_id!r}")
        seen.add(flow.flow_id)
        for pool_id, _ in flow.demands:
            if pool_id not in capacities:
                raise SimulationError(
                    f"flow {flow.flow_id!r} references unknown pool {pool_id!r}"
                )
    for pool_id, cap in capacities.items():
        if cap <= 0:
            raise SimulationError(f"pool {pool_id!r} has non-positive capacity {cap}")
    if not flows:
        return {}

    # A flow may carry several operations on the same pool (e.g. a disk read
    # and a disk write): they serialise on that device, so the flow's demand
    # per unit of progress is their *sum*.
    weights: List[Dict[str, float]] = []
    for flow in flows:
        agg: Dict[str, float] = {}
        for pool_id, weight in flow.demands:
            agg[pool_id] = agg.get(pool_id, 0.0) + weight
        weights.append(agg)

    if not collapse:
        return _solve_flowwise(flows, weights, capacities)
    registry = SharingRegistry(capacities)
    class_ids = [
        registry.intern(agg, flow.cap) for flow, agg in zip(flows, weights)
    ]
    counts: Dict[int, int] = {}
    for cid in class_ids:
        counts[cid] = counts.get(cid, 0) + 1
    rate_of = registry.rates(tuple(sorted(counts.items())))
    return {flow.flow_id: rate_of[cid] for flow, cid in zip(flows, class_ids)}


def _solve_flowwise(
    flows: Sequence[FlowSpec],
    weights: List[Dict[str, float]],
    capacities: Mapping[str, float],
) -> Dict[str, float]:
    """Per-flow Gauss-Seidel (the reference implementation)."""
    pool_users: Dict[str, List[int]] = {}
    for idx, agg in enumerate(weights):
        for pool_id in agg:
            pool_users.setdefault(pool_id, []).append(idx)

    # Optimistic start: each flow alone on the cluster.
    rates: List[float] = []
    for idx, flow in enumerate(flows):
        bound = flow.cap if flow.cap is not None else float("inf")
        for pool_id, weight in weights[idx].items():
            bound = min(bound, capacities[pool_id] / weight)
        rates.append(bound)

    def sweep(damping: float) -> float:
        """One Gauss-Seidel sweep; returns the largest relative change."""
        max_change = 0.0
        for idx, flow in enumerate(flows):
            bound = flow.cap if flow.cap is not None else float("inf")
            for pool_id, weight in weights[idx].items():
                others = [
                    weights[j][pool_id] * rates[j]
                    for j in pool_users[pool_id]
                    if j != idx
                ]
                level = _hungry_level(others, capacities[pool_id])
                bound = min(bound, level / weight)
            if bound == float("inf"):  # pragma: no cover - FlowSpec forbids
                raise SimulationError(f"flow {flow.flow_id!r} is unbounded")
            updated = damping * rates[idx] + (1.0 - damping) * bound
            max_change = max(
                max_change, abs(updated - rates[idx]) / max(rates[idx], _EPS)
            )
            rates[idx] = updated
        return max_change

    converged = False
    residual = math.inf
    for _ in range(_MAX_ITER):
        residual = sweep(damping=0.0)
        if residual <= _REL_TOL:
            converged = True
            break
    if not converged:
        # The undamped iteration can (rarely) oscillate between two points;
        # a short damped phase settles it onto the same fixed point.
        for _ in range(_MAX_ITER):
            residual = sweep(damping=0.5)
            if residual <= _REL_TOL_DAMPED:
                converged = True
                break
    if not converged:
        raise _nonconvergence(residual, len(flows), 0.5, _REL_TOL_DAMPED)

    final = [max(r, 0.0) for r in rates]
    _repair_feasible(final, weights, [1] * len(flows), pool_users, capacities)
    return {flow.flow_id: final[idx] for idx, flow in enumerate(flows)}


def pool_utilisation(
    flows: Sequence[FlowSpec],
    rates: Mapping[str, float],
    capacities: Mapping[str, float],
) -> Dict[str, float]:
    """Utilisation ``p_X`` of every pool under the given rates.

    This is the quantity the paper reports in the Fig. 4 walk-through
    (e.g. "the disk utilisation is 20 %, the network utilisation is 100 %").
    """
    used: Dict[str, float] = {pool_id: 0.0 for pool_id in capacities}
    for flow in flows:
        rate = rates[flow.flow_id]
        for pool_id, weight in flow.demands:
            used[pool_id] += rate * weight
    return {pool_id: used[pool_id] / capacities[pool_id] for pool_id in capacities}
