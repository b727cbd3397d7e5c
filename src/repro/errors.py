"""Exception hierarchy for the library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers embedding the models inside larger systems can
catch one type at the integration boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SpecificationError(ReproError):
    """A cluster, job, or workflow specification is invalid.

    Raised at construction time (fail fast) rather than when the broken value
    is eventually consumed by a model or the simulator.
    """


class WorkflowError(SpecificationError):
    """A DAG workflow violates Definition 1 (cycle, dangling edge, ...)."""


class SchedulingError(ReproError):
    """The scheduler cannot produce a feasible allocation.

    Typical cause: a single container request exceeds the capacity of every
    node in the cluster, so the job can never run.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent state.

    This always indicates a bug in the engine (e.g. a flow with zero rate but
    remaining work and no pending event) and is raised instead of looping
    forever.
    """


class TraceWindowError(SimulationError):
    """A trace query targets an instant outside the traced time window.

    Unlike its parent :class:`SimulationError`, this does **not** indicate an
    engine bug — the caller simply asked about a time before the first or
    after the last recorded workflow state.  It subclasses
    :class:`SimulationError` so existing handlers keep working.
    """


class JobAbortedError(SimulationError):
    """A task failed every attempt the failure model allows, so the
    simulated job aborted.

    Not an engine bug: with failure injection on, some seeds abort by
    design.  The replication ensemble counts such a run as aborted
    instead of failing the whole ensemble.
    """


class EstimationError(ReproError):
    """A cost model cannot produce an estimate from the inputs it was given.

    For example: asking for a profile-driven estimate when the profile lacks
    the needed stage, or estimating a workflow whose jobs have no tasks.
    """


class ProfileError(ReproError):
    """A job profile is missing, malformed, or incompatible."""


class ServiceError(ReproError):
    """The prediction service rejected or could not complete a request.

    Raised for malformed service requests, unknown jobs, and scheduler
    capacity problems — conditions of the serving layer rather than of the
    models themselves.
    """


class JobTimeoutError(ServiceError):
    """A scheduled job exceeded its deadline.

    Deadlines are cooperative: runners poll a check between work chunks, so
    the job stops at the next chunk boundary after the deadline passes and
    its pool slots are released to other jobs.
    """


class JobCancelledError(ServiceError):
    """A scheduled job was cancelled before it completed.

    Like deadlines, cancellation is cooperative — the job observes the
    request at its next chunk boundary, stops feeding the shared pool, and
    surfaces this error instead of partial results.
    """
