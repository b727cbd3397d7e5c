"""Estimator-as-a-service: the long-running prediction/tuning layer.

The library's estimator answers one query in milliseconds; this package
turns that into a *workload*: an asyncio HTTP/JSON server
(:mod:`repro.service.server`) multiplexing many concurrent users over

* a per-workflow-hash hot cache and a single-flight request coalescer for
  estimate queries (:mod:`repro.service.estimates`);
* a fair job scheduler with priorities, cooperative deadlines, bounded
  retries and cancellation for sweep/ensemble jobs
  (:mod:`repro.service.scheduler`);
* **one** shared crash-tolerant process pool
  (:mod:`repro.service.pool` — also the pool engine behind
  :class:`~repro.sweep.SweepRunner` and
  :class:`~repro.ensemble.EnsembleRunner`).

See ``docs/service.md`` for the API, the scheduling semantics and the
failure/degradation matrix.

Exports resolve lazily (PEP 562): the sweep/ensemble runners import
``repro.service.pool`` for their pool engine, while the service's own
modules import the runners — eager package-level imports would close that
cycle.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "ResilientPool": "repro.service.pool",
    "parent_cpu_clock": "repro.service.pool",
    "EstimateService": "repro.service.estimates",
    "Job": "repro.service.scheduler",
    "JobScheduler": "repro.service.scheduler",
    "JobSpec": "repro.service.scheduler",
    "deadline_checker": "repro.service.scheduler",
    "DagService": "repro.service.server",
    "serve": "repro.service.server",
    "serve_in_thread": "repro.service.server",
    "ServiceClient": "repro.service.client",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.service.client import ServiceClient
    from repro.service.estimates import EstimateService
    from repro.service.pool import ResilientPool, parent_cpu_clock
    from repro.service.scheduler import (
        Job,
        JobScheduler,
        JobSpec,
        deadline_checker,
    )
    from repro.service.server import DagService, serve, serve_in_thread


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
