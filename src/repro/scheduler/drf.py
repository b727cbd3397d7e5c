"""Dominant Resource Fairness (Ghodsi et al., NSDI'11) — equilibrium form.

The paper assumes YARN schedules tasks by DRF (§II-B) and the workflow model
needs, for every state, the *equilibrium* degree of parallelism ``Delta_i`` of
each running job (Algorithm 1, step 1).  This module computes that
equilibrium analytically by progressive filling:

* every unfrozen job's dominant share grows at the same (weighted) rate;
* a job freezes when it reaches its demand cap (no more pending tasks);
* jobs touching a saturated resource freeze when that resource exhausts;
* iteration ends when every job is frozen or all capacity is consumed.

**CPU oversubscription.**  Stock YARN admits containers by memory only (the
DefaultResourceCalculator), so the number of tasks on a node routinely
exceeds its core count — that is precisely the situation in which CPU becomes
a *preemptable* resource and the BOE model earns its keep (the paper's Fig. 6
drives the per-node degree of parallelism to 12 on 6-core nodes).  We mirror
this: by default only memory saturates admission (``enforce_vcores=False``),
while fairness between jobs is still judged on the full dominant share.  Pass
``enforce_vcores=True`` for a strict DominantResourceCalculator deployment.

The same function serves the model-side ``Delta`` estimator and the tests
that validate the simulator's emergent allocation against theory.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cluster.resources import ResourceVector
from repro.errors import SchedulingError
from repro.scheduler.container import JobDemand

_EPS = 1e-9


def _fits(container: ResourceVector, capacity: ResourceVector, enforce_vcores: bool) -> bool:
    if enforce_vcores:
        return container.fits_into(capacity)
    return container.memory_mb <= capacity.memory_mb


def drf_equilibrium(
    demands: Sequence[JobDemand],
    capacity: ResourceVector,
    integral: bool = False,
    enforce_vcores: bool = False,
) -> Dict[str, float]:
    """Equilibrium container counts per job under DRF.

    Args:
        demands: one entry per job stage competing at this instant.
        capacity: total schedulable cluster capacity.
        integral: when True, floor the continuous equilibrium to whole
            containers (the simulator places whole tasks; the analytic model
            usually keeps the continuous value so waves come out fractional).
        enforce_vcores: when True, vcores also gate admission (strict DRF
            calculator); default False matches stock YARN, which admits by
            memory and lets CPU oversubscribe.

    Returns:
        Mapping job name -> allocated container count (``Delta_i``).

    Raises:
        SchedulingError: duplicate names, or a container that exceeds the
            whole cluster on some admission dimension (it could never run).
    """
    names = [d.name for d in demands]
    if len(set(names)) != len(names):
        raise SchedulingError(f"duplicate job names in demands: {names}")
    for d in demands:
        if d.max_tasks > 0 and not _fits(d.container, capacity, enforce_vcores):
            raise SchedulingError(
                f"container of {d.name!r} ({d.container}) exceeds cluster capacity"
            )

    allocation: Dict[str, float] = {d.name: 0.0 for d in demands}
    active: List[JobDemand] = [d for d in demands if d.max_tasks > 0]
    free_vcores = capacity.vcores
    free_memory = capacity.memory_mb

    # Growth rate of each job in containers per unit of the common
    # (weighted) dominant-share parameter lambda.  Fairness always uses the
    # full dominant share, even when admission ignores vcores.
    growth = {d.name: d.weight / d.container.dominant_share(capacity) for d in active}
    while active:
        # Candidate events: a job hits its demand cap, or a resource that
        # gates admission saturates.
        lam = float("inf")
        for d in active:
            remaining = d.max_tasks - allocation[d.name]
            lam = min(lam, remaining / growth[d.name])
        saturating = None
        if enforce_vcores:
            vcore_rate = sum(growth[d.name] * d.container.vcores for d in active)
            if vcore_rate > _EPS and free_vcores / vcore_rate < lam:
                lam = free_vcores / vcore_rate
                saturating = "vcores"
        memory_rate = sum(growth[d.name] * d.container.memory_mb for d in active)
        if memory_rate > _EPS and free_memory / memory_rate < lam:
            lam = free_memory / memory_rate
            saturating = "memory"
        if lam == float("inf"):  # nothing consumes a gating resource, no caps
            break

        for d in active:
            delta = growth[d.name] * lam
            allocation[d.name] += delta
            free_vcores -= delta * d.container.vcores
            free_memory -= delta * d.container.memory_mb

        still_active = []
        for d in active:
            capped = allocation[d.name] >= d.max_tasks - _EPS
            blocked = saturating == "vcores" and d.container.vcores > _EPS
            blocked = blocked or (saturating == "memory" and d.container.memory_mb > _EPS)
            if not capped and not blocked:
                still_active.append(d)
        if len(still_active) == len(active):
            # Numerical stall safety valve: freeze everything.
            break
        active = still_active

    if integral:
        allocation = {name: float(int(x + _EPS)) for name, x in allocation.items()}
    return allocation


def drf_single_job_slots(
    container: ResourceVector,
    capacity: ResourceVector,
    pending: int,
    enforce_vcores: bool = False,
) -> float:
    """Degree of parallelism of one job alone on the cluster."""
    alloc = drf_equilibrium(
        [JobDemand(name="only", container=container, max_tasks=pending)],
        capacity,
        enforce_vcores=enforce_vcores,
    )
    return alloc["only"]
