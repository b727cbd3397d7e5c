"""Request context: the trace identity that follows one request everywhere.

The service mints a ``trace_id`` per HTTP request; everything that happens
on behalf of that request — the handler, the scheduler's job thread, the
spans shipped home from pool workers — must end up tagged with it, or the
"one request, one flame" promise of ``GET /trace/<id>`` breaks.  This
module is the carrier:

* :class:`RequestContext` — an immutable ``(trace_id, span_id)`` pair held
  in a :class:`contextvars.ContextVar`.  ``span_id`` names the request's
  root span so spans opened on *other* threads (the scheduler's job
  workers activate the context explicitly) re-parent under it.
* The tracer consults :func:`current_context` through a provider hook
  (:func:`repro.obs.tracer.set_context_provider`, installed at import):
  every span begun while a context is active gets a ``trace_id`` attribute
  and, at the top of a thread's stack, the request span as its parent.
  The hook lives entirely on the *enabled* path — a disabled tracer never
  reads the context, so the PR 3 no-op discipline holds.
* :class:`TraceContextFilter` — a :mod:`logging` filter injecting
  ``record.trace_id`` so log lines correlate with traces
  (:func:`repro.obs.logsetup.configure_logging` installs it).

Worker processes never see the context object: pool chunks return their
spans trace-id-less and the parent stamps the active ``trace_id`` at
ingest time (:meth:`repro.obs.tracer.Tracer.ingest` runs on the job
thread, where the contextvar is live).  That keeps work items free of
request state — the same chunk bytes serve any request.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.obs import tracer as _tracer_module

__all__ = [
    "RequestContext",
    "TraceContextFilter",
    "activate",
    "clear_context",
    "current_context",
    "current_trace_id",
    "deactivate",
    "new_trace_id",
    "request_context",
]


@dataclass(frozen=True)
class RequestContext:
    """One request's trace identity.

    Attributes:
        trace_id: opaque hex string naming the request end to end.
        span_id: the request's root span in the *serving* process's
            tracer; spans opened at the top of another thread's stack
            while this context is active parent to it.  ``None`` until
            the root span exists (or when tracing is disabled).
    """

    trace_id: str
    span_id: Optional[int] = None


_CURRENT: "ContextVar[Optional[RequestContext]]" = ContextVar(
    "repro_request_context", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    return os.urandom(8).hex()


def current_context() -> Optional[RequestContext]:
    """The active request context on this thread/task, or ``None``."""
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    """The active trace id, or ``None`` outside any request."""
    ctx = _CURRENT.get()
    return ctx.trace_id if ctx is not None else None


def activate(ctx: Optional[RequestContext]):
    """Install ``ctx`` as the active context; returns the reset token."""
    return _CURRENT.set(ctx)


def deactivate(token) -> None:
    """Undo a matching :func:`activate`."""
    _CURRENT.reset(token)


def clear_context() -> None:
    """Unconditionally drop any active context on this thread.

    The pool-worker initializer calls this: on POSIX the executor *forks* its
    workers from whichever thread first feeds the pool, and if that thread
    was serving a request, the child's main thread inherits the activated
    contextvar — every worker span would then be stamped with a request it
    never served.  Workers must start context-free; the parent stamps the
    right trace id at ingest time.
    """
    _CURRENT.set(None)


@contextmanager
def request_context(
    trace_id: Optional[str] = None, span_id: Optional[int] = None
) -> Iterator[RequestContext]:
    """Scope a request context lexically (tests, embedding apps)."""
    ctx = RequestContext(trace_id if trace_id else new_trace_id(), span_id)
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


class TraceContextFilter(logging.Filter):
    """Injects ``record.trace_id`` into every log record.

    Outside a request the field is ``"-"``, so a format containing
    ``%(trace_id)s`` is always safe.  Attach to a *handler* (not a
    logger) so records from every ``repro.*`` child logger pass through.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        ctx = _CURRENT.get()
        record.trace_id = ctx.trace_id if ctx is not None else "-"
        return True


# The tracer stamps spans with the active trace id through this hook; it
# is consulted only on the enabled path (begin() bails first when off).
_tracer_module.set_context_provider(current_context)
