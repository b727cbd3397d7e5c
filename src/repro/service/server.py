"""The asyncio HTTP/JSON prediction-and-tuning server.

``repro-dag serve`` turns the library into a long-running multi-tenant
service: estimate queries answer inline through the hot-cached,
request-coalescing :class:`~repro.service.estimates.EstimateService`,
while sweep and ensemble jobs queue through the fair
:class:`~repro.service.scheduler.JobScheduler` and share **one**
crash-tolerant :class:`~repro.service.pool.ResilientPool` (respawning —
a killed worker degrades one batch to serial and the next batch gets a
fresh pool).

The HTTP layer is deliberately minimal — stdlib ``asyncio`` streams, one
request per connection, JSON bodies — because the interesting semantics
live below it.  Endpoints:

========================  ====================================================
``GET  /healthz``          liveness + configuration
``GET  /workloads``        the named-workload catalogue
``POST /estimate``         inline estimate (cached/coalesced)
``POST /sweep``            submit a cluster-size sweep job and wait
``POST /ensemble``         submit a replication-ensemble job and wait
``GET  /jobs``             job table (``/jobs/<id>`` for one)
``POST /jobs/<id>/cancel`` cooperative cancellation
``GET  /metrics``          metrics snapshot (``?format=prom`` for Prometheus
                           text exposition)
``GET  /trace``            finished tracer spans
``GET  /trace/<id>``       one request's spans as a Chrome/Perfetto flame
``GET  /status``           sliding-window per-endpoint SLO statistics
========================  ====================================================

``/estimate``, ``/sweep`` and ``/ensemble`` parse their params into the
requests of :mod:`repro.operations`, the ones ``repro-dag`` runs.

Error mapping: :class:`~repro.errors.ServiceError` (bad request) → 400,
unknown path → 404, :class:`~repro.errors.JobTimeoutError` → 504,
:class:`~repro.errors.JobCancelledError` → 409, anything else typed
(:class:`~repro.errors.ReproError`) → 422.

Telemetry per request (armed tracer/registry only): a ``service.request``
root span whose ``trace_id`` is minted here (or adopted from an inbound
``X-Repro-Trace-Id`` header) and echoed back as ``X-Repro-Trace-Id``; the
id rides a contextvar through the scheduler onto job threads and into
worker-shipped pool-chunk spans, so ``GET /trace/<id>`` exports the whole
request as one flame.  Counts: ``service.requests`` / ``service.errors``
plus the labeled families ``service.responses{endpoint,status}`` and the
``service.request_latency{endpoint,status}`` bucket histogram; the same
latency sample feeds the :class:`~repro.obs.slo.SloTracker` behind
``GET /status``.

See ``docs/service.md`` for the full API, every request field and the
failure/degradation matrix.
"""

from __future__ import annotations

import asyncio
import json
import logging
import queue
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.cluster.cluster import paper_cluster
from repro.errors import (
    JobCancelledError,
    JobTimeoutError,
    ReproError,
    ServiceError,
)
from repro.obs.context import (
    RequestContext,
    activate,
    deactivate,
    new_trace_id,
)
from repro.obs.metrics import get_metrics
from repro.obs.slo import SloTracker
from repro.obs.tracer import get_tracer
from repro.operations import (
    EnsembleRequest,
    EstimateRequest,
    SweepRequest,
    boolean,
    number,
    parse,
    read,
    run,
)
from repro.service.estimates import EstimateService
from repro.service.pool import ResilientPool
from repro.service.scheduler import JobScheduler, JobSpec

logger = logging.getLogger(__name__)


#: Paths that are their own label; parameterised paths collapse to a
#: placeholder so label cardinality stays bounded no matter what ids (or
#: garbage paths) clients send.
_KNOWN_ENDPOINTS = frozenset(
    {
        "/healthz",
        "/workloads",
        "/estimate",
        "/sweep",
        "/ensemble",
        "/jobs",
        "/metrics",
        "/trace",
        "/status",
    }
)


def _endpoint_label(path: str) -> str:
    """Collapse a request path to a bounded-cardinality endpoint label."""
    if path.startswith("/jobs/"):
        return "/jobs/:id/cancel" if path.endswith("/cancel") else "/jobs/:id"
    if path.startswith("/trace/"):
        return "/trace/:id"
    return path if path in _KNOWN_ENDPOINTS else "(other)"


#: The operations that run as scheduled jobs.
_JOBS = {"/sweep": SweepRequest, "/ensemble": EnsembleRequest}


class DagService:
    """The application object behind the HTTP server.

    Owns the estimate service, the job scheduler and the one shared
    process pool; every handler is a plain synchronous method returning
    ``(status, payload)`` so the service is equally usable without HTTP
    (tests drive it directly).

    Args:
        scale: input-volume scale for the named-workload catalogue.
        processes: shared-pool worker processes.
        job_workers: concurrent jobs (scheduler threads).
    """

    def __init__(
        self,
        scale: float = 0.05,
        processes: int = 2,
        job_workers: int = 2,
        cache_capacity: int = 1024,
    ):
        self._scale = scale
        self.pool = ResilientPool(processes, label="service", respawn=True)
        self.estimates = EstimateService(paper_cluster(), capacity=cache_capacity)
        self.scheduler = JobScheduler(workers=job_workers)
        self.slo = SloTracker()
        self._workflows: Dict[str, Any] = {}
        self._workflows_lock = threading.Lock()
        self.started_at = time.time()

    def close(self) -> None:
        self.scheduler.close()
        self.estimates.close()
        self.pool.close()

    def __enter__(self) -> "DagService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request plumbing --------------------------------------------------------

    def _catalogue(self) -> Dict[str, Any]:
        with self._workflows_lock:
            if not self._workflows:
                from repro.workloads import named_workflows

                self._workflows = named_workflows(self._scale)
            return self._workflows

    def handle(
        self, method: str, path: str, params: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """Dispatch one request; returns ``(http_status, json_payload)``.

        Convenience wrapper over :meth:`handle_http` for callers without
        HTTP framing (tests, benchmarks, embedded use) — same telemetry,
        no headers, trace id dropped.
        """
        status, payload, _ = self.handle_http(method, path, params)
        return status, payload

    def handle_http(
        self,
        method: str,
        path: str,
        params: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any], Optional[str]]:
        """Dispatch one request; returns ``(status, payload, trace_id)``.

        With the tracer armed, every request gets a trace id — adopted
        from an inbound ``x-repro-trace-id`` header (lower-cased keys) or
        minted fresh — a ``service.request`` root span, and an activated
        :class:`~repro.obs.context.RequestContext` for the duration of
        routing, so spans opened anywhere downstream (including scheduler
        job threads and ingested worker chunks) join this request's trace.
        ``trace_id`` is ``None`` when tracing is off; the HTTP layer echoes
        it as ``X-Repro-Trace-Id`` when present.
        """
        registry = get_metrics()
        tracer = get_tracer()
        t0 = time.perf_counter()
        if registry.enabled:
            registry.counter("service.requests").inc()
        trace_id: Optional[str] = None
        span = None
        token = None
        if tracer.enabled:
            inbound = (headers or {}).get("x-repro-trace-id", "")
            trace_id = inbound.strip() or new_trace_id()
            span = tracer.begin("service.request", method=method, path=path)
            # Activated *after* the root span opens (so the span itself
            # parents normally on this thread); everything downstream
            # re-parents under it via the context.
            token = activate(
                RequestContext(
                    trace_id, span.span_id if span is not None else None
                )
            )
            if span is not None:
                span.attrs["trace_id"] = trace_id
        try:
            try:
                status, payload = self._route(method, path, params)
            except JobTimeoutError as exc:
                status, payload = 504, {"error": str(exc)}
            except JobCancelledError as exc:
                status, payload = 409, {"error": str(exc)}
            except ServiceError as exc:
                status, payload = 400, {"error": str(exc)}
            except ReproError as exc:
                status, payload = 422, {"error": str(exc)}
        finally:
            if token is not None:
                deactivate(token)
        if status >= 400 and registry.enabled:
            registry.counter("service.errors").inc()
        if span is not None:
            tracer.finish(span, status=status)
        if registry.enabled:
            latency = time.perf_counter() - t0
            endpoint = _endpoint_label(path)
            status_label = str(status)
            registry.labeled_counter(
                "service.responses", endpoint=endpoint, status=status_label
            ).inc()
            registry.labeled_bucket_histogram(
                "service.request_latency",
                endpoint=endpoint,
                status=status_label,
            ).observe(latency)
            self.slo.record(endpoint, latency, error=status >= 400)
        return status, payload, trace_id

    def _route(
        self, method: str, path: str, params: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            return 200, {
                "ok": True,
                "uptime_s": time.time() - self.started_at,
                "pool": self._pool_state(),
                "cache_entries": self.estimates.cache_size,
            }
        if path == "/workloads":
            return 200, {"workloads": sorted(self._catalogue()), "scale": self._scale}
        if path == "/estimate":
            request = parse(EstimateRequest, params, self._catalogue())
            payload = self.estimates.estimate(
                request.workflow,
                cluster=request.workers,
                variant=request.variant,
                timeout=read(params, "timeout_s", number),
            )
            return (200 if payload["ok"] else 422), payload
        if path in _JOBS:
            request = parse(_JOBS[path], params, self._catalogue())
            return self._submit(path[1:], request, params)
        if path == "/jobs":
            return 200, {
                "jobs": [job.describe() for job in self.scheduler.jobs()]
            }
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/cancel") and method == "POST":
                job = self.scheduler.cancel(rest[: -len("/cancel")])
                return 200, job.describe()
            return 200, self.scheduler.get(rest).describe()
        if path == "/metrics":
            fmt = str(params.get("format", "json")).lower()
            if fmt in ("prom", "prometheus"):
                from repro.obs.exposition import to_prometheus

                return 200, {
                    "_text": to_prometheus(get_metrics().snapshot()),
                    "_content_type": "text/plain; version=0.0.4; charset=utf-8",
                }
            if fmt != "json":
                raise ServiceError(
                    f"unknown metrics format {fmt!r} (choose json or prom)"
                )
            return 200, {"metrics": get_metrics().snapshot()}
        if path == "/trace":
            return 200, {"spans": _span_rows(get_tracer())}
        if path.startswith("/trace/"):
            wanted = path[len("/trace/"):]
            # Lazy import: repro.obs.export pulls in the simulator stack.
            from repro.obs.export import trace_flame

            flame = trace_flame(wanted) if wanted else None
            if flame is None:
                return 404, {
                    "error": (
                        f"no spans recorded for trace {wanted!r} (tracing "
                        "disabled, id never seen, or spans evicted)"
                    )
                }
            return 200, flame
        if path == "/status":
            return 200, {
                "uptime_s": time.time() - self.started_at,
                "slo": self.slo.snapshot(),
                "pool": self._pool_state(),
            }
        return 404, {"error": f"no such endpoint: {method} {path}"}

    def _pool_state(self) -> Dict[str, Any]:
        return {"processes": self.pool.processes, "broken": self.pool.broken}

    def _submit(
        self, kind: str, request: Any, params: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """Run ``request`` as a job on the shared pool and wait up to
        ``timeout_s`` for it, unless ``wait`` is off (a 202 with the job
        record); every parameter is parsed before anything is submitted."""
        spec = parse(
            JobSpec,
            params,
            kind=kind,
            run=lambda cancel: run(request, pool=self.pool, cancel=cancel),
            label=request.workload,
        )
        timeout = read(params, "timeout_s", number)
        wait = read(params, "wait", boolean, default=True)
        job = self.scheduler.submit(spec)
        if not wait:
            return 202, job.describe()
        return 200, dict(job.outcome(timeout), job=job.describe())


def _span_rows(tracer) -> list:
    return [
        {
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "t_start": span.t_start - tracer.epoch,
            "t_end": (
                span.t_end - tracer.epoch if span.t_end is not None else None
            ),
            "attrs": {
                k: v for k, v in span.attrs.items() if not k.startswith("__")
            },
        }
        for span in tracer.snapshot()
    ]


# -- the HTTP layer ---------------------------------------------------------------

_MAX_BODY = 1 << 20  # 1 MiB of JSON is already an abusive request


async def _handle_connection(
    service: DagService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        request_line = await reader.readline()
        if not request_line:
            return
        try:
            method, target, _ = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            await _respond(writer, 400, {"error": "malformed request line"})
            return
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            content_length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            content_length = 0
        if content_length > _MAX_BODY:
            await _respond(writer, 413, {"error": "request body too large"})
            return
        body = await reader.readexactly(content_length) if content_length else b""
        split = urlsplit(target)
        params: Dict[str, Any] = dict(parse_qsl(split.query))
        if body:
            try:
                parsed = json.loads(body)
            except json.JSONDecodeError as exc:
                await _respond(writer, 400, {"error": f"invalid JSON body: {exc}"})
                return
            if not isinstance(parsed, dict):
                await _respond(
                    writer, 400, {"error": "JSON body must be an object"}
                )
                return
            params.update(parsed)
        # Handlers block (futures, job waits, estimator work), so they run
        # on the default thread-pool executor — the event loop only parses
        # and frames, which is what keeps slow jobs from starving /healthz.
        loop = asyncio.get_running_loop()
        status, payload, trace_id = await loop.run_in_executor(
            None, service.handle_http, method.upper(), split.path, params, headers
        )
        await _respond(
            writer,
            status,
            payload,
            {"X-Repro-Trace-Id": trace_id} if trace_id else None,
        )
    except (asyncio.IncompleteReadError, ConnectionResetError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    504: "Gateway Timeout",
}


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Dict[str, Any],
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    # A payload carrying ``_text`` ships as a plain-text body (Prometheus
    # exposition); everything else is JSON.
    if isinstance(payload, dict) and "_text" in payload:
        body = str(payload["_text"]).encode()
        content_type = str(
            payload.get("_content_type", "text/plain; charset=utf-8")
        )
    else:
        body = json.dumps(payload).encode()
        content_type = "application/json"
    head = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    head.append("Connection: close")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


async def _serve_async(
    service: DagService,
    host: str,
    port: int,
    ready: Callable[[str], None],
    shutdown: threading.Event,
) -> None:
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w), host, port
    )
    bound = server.sockets[0].getsockname()
    url = f"http://{bound[0]}:{bound[1]}"
    logger.info("repro-dag service listening on %s", url)
    ready(url)
    async with server:
        while not shutdown.is_set():
            await asyncio.sleep(0.05)


class ServiceHandle:
    """A server running on a background thread (tests, CI smoke, notebooks)."""

    def __init__(self, url: str, service: DagService, stop: Callable[[], None]):
        self.url = url
        self.service = service
        self._stop = stop

    def stop(self) -> None:
        self._stop()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    host: str = "127.0.0.1",
    port: int = 0,
    service: Optional[DagService] = None,
    **service_kwargs: Any,
) -> ServiceHandle:
    """Start the server on a daemon thread; returns once it accepts requests.

    ``port=0`` binds an ephemeral port; the handle's ``url`` reports it.
    A failed bind raises here, and an owned service is closed.

    When the service is built here, tracing and metrics are armed first
    so spans/counters are live from the first request; a caller-supplied
    ``service`` keeps whatever observability state the caller configured.
    """
    own = service is None
    if own:
        get_tracer().enable()
        get_metrics().enable()
        service = DagService(**service_kwargs)
    # The bound URL, or the error that stopped the server from binding.
    started: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
    shutdown = threading.Event()

    def _run() -> None:
        try:
            asyncio.run(_serve_async(service, host, port, started.put, shutdown))
        except OSError as exc:  # the bind failed: the caller raises it
            started.put(exc)

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()

    def _stop() -> None:
        shutdown.set()
        thread.join(10.0)
        if own:
            service.close()

    try:
        url = started.get(timeout=10.0)
    except queue.Empty:
        url = ServiceError("service failed to start within 10s")
    if isinstance(url, Exception):
        _stop()
        raise url
    return ServiceHandle(url, service, _stop)


def serve(
    host: str = "127.0.0.1",
    port: int = 8349,
    service: Optional[DagService] = None,
    **service_kwargs: Any,
) -> None:
    """Run the server until interrupted (the ``repro-dag serve`` command):
    :func:`serve_in_thread`, then wait for Ctrl-C."""
    with serve_in_thread(host, port, service, **service_kwargs):
        try:
            threading.Event().wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
