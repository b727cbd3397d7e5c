"""Service telemetry tests: request tracing, labeled metrics, SLO window.

The contract under test is the PR's acceptance criterion: one traced
request yields one flame (HTTP handler -> scheduler wait -> job run ->
worker-shipped chunk spans, all sharing the request's trace id), labeled
latency series appear under ``/metrics``, ``/status`` serves the sliding
SLO window — and with observability disabled none of it exists.
"""

import pytest

from repro.obs import MetricsRegistry, Tracer, parse_prometheus, validate_trace_events
from repro.obs.metrics import get_metrics, set_metrics
from repro.obs.tracer import get_tracer, set_tracer
from repro.service import DagService, ServiceClient, serve_in_thread

SCALE = 0.02


@pytest.fixture
def obs_disabled():
    old_tracer = set_tracer(Tracer(enabled=False))
    old_metrics = set_metrics(MetricsRegistry(enabled=False))
    yield
    set_tracer(old_tracer)
    set_metrics(old_metrics)


@pytest.fixture
def obs_enabled(obs_disabled):
    get_tracer().enable()
    get_metrics().enable()
    yield


@pytest.fixture
def service(obs_enabled):
    # A real two-process pool: worker-side spans must ship home across
    # the process boundary, which is the property under test.
    with DagService(processes=2, job_workers=1, scale=SCALE) as service:
        yield service


class TestDisabledPath:
    def test_no_trace_id_no_spans_no_slo(self, obs_disabled):
        with DagService(processes=1, job_workers=1, scale=SCALE) as service:
            status, payload, trace_id = service.handle_http(
                "POST", "/estimate", {"workload": "wc"}
            )
            assert status == 200 and "total_time_s" in payload
            assert trace_id is None
            assert get_tracer().span_count == 0
            assert get_metrics().snapshot() == {}
            assert service.slo.snapshot()["endpoints"] == {}

    def test_handle_compat_wrapper_returns_two_tuple(self, obs_disabled):
        with DagService(processes=1, job_workers=1, scale=SCALE) as service:
            status, payload = service.handle("GET", "/healthz", {})
            assert status == 200 and "uptime_s" in payload


class TestRequestTracing:
    def test_every_request_mints_a_trace_id(self, service):
        _, _, first = service.handle_http("GET", "/healthz", {})
        _, _, second = service.handle_http("GET", "/healthz", {})
        assert first and second and first != second

    def test_inbound_header_id_is_adopted(self, service):
        _, _, trace_id = service.handle_http(
            "GET", "/healthz", {}, headers={"x-repro-trace-id": "caller-id"}
        )
        assert trace_id == "caller-id"

    def test_job_describe_carries_the_request_trace_id(self, service):
        status, payload, trace_id = service.handle_http(
            "POST", "/sweep", {"workload": "wc", "workers": [4, 8]}
        )
        assert status == 200
        jobs = service.handle("GET", "/jobs", {})[1]["jobs"]
        assert trace_id in {j["trace_id"] for j in jobs}

    def test_one_request_one_flame(self, service):
        """The acceptance flame: handler, scheduler wait, job run and
        worker-side chunk spans under a single trace id."""
        status, _, trace_id = service.handle_http(
            "POST", "/sweep", {"workload": "wc", "workers": [4, 8]}
        )
        assert status == 200
        fstatus, flame, _ = service.handle_http(
            "GET", f"/trace/{trace_id}", {}
        )
        assert fstatus == 200
        assert validate_trace_events(flame) == []
        names = {e["name"] for e in flame["traceEvents"] if e.get("ph") == "X"}
        for needed in (
            "service.request",
            "job.queue_wait",
            "job.run",
            "sweep.batch",
            "sweep.chunk",
        ):
            assert needed in names, (needed, sorted(names))
        spans = get_tracer().spans_for_trace(trace_id)
        assert all(s.attrs["trace_id"] == trace_id for s in spans)

    def test_concurrent_requests_do_not_share_traces(self, service):
        _, _, t1 = service.handle_http(
            "POST", "/sweep", {"workload": "wc", "workers": [4, 8]}
        )
        _, _, t2 = service.handle_http(
            "POST", "/sweep", {"workload": "wc", "workers": [16, 32]}
        )
        spans1 = get_tracer().spans_for_trace(t1)
        spans2 = get_tracer().spans_for_trace(t2)
        assert {s.attrs["trace_id"] for s in spans1} == {t1}
        assert {s.attrs["trace_id"] for s in spans2} == {t2}
        assert {s.name for s in spans1} >= {"service.request", "sweep.chunk"}

    def test_unknown_trace_is_404(self, service):
        status, payload, _ = service.handle_http(
            "GET", "/trace/deadbeef00000000", {}
        )
        assert status == 404
        assert "deadbeef00000000" in payload["error"]


class TestLabeledMetrics:
    def test_latency_family_labeled_by_endpoint_and_status(self, service):
        service.handle_http("POST", "/estimate", {"workload": "wc"})
        service.handle_http("GET", "/nope", {})
        snap = get_metrics().snapshot()
        ok = snap["service.request_latency{endpoint=/estimate,status=200}"]
        assert ok["type"] == "bucket_histogram" and ok["count"] >= 1
        missing = snap["service.responses{endpoint=(other),status=404}"]
        assert missing["value"] >= 1

    def test_job_ids_collapse_to_one_label(self, service):
        _, payload, _ = service.handle_http(
            "POST", "/sweep", {"workload": "wc", "workers": [4]}
        )
        service.handle_http("GET", f"/jobs/{payload['job']['id']}", {})
        snap = get_metrics().snapshot()
        assert "service.responses{endpoint=/jobs/:id,status=200}" in snap

    def test_prom_format_serves_parseable_text(self, service):
        service.handle_http("POST", "/estimate", {"workload": "wc"})
        status, payload, _ = service.handle_http(
            "GET", "/metrics", {"format": "prom"}
        )
        assert status == 200
        assert payload["_content_type"].startswith("text/plain")
        families = parse_prometheus(payload["_text"])
        assert "service_request_latency" in families

    def test_unknown_metrics_format_is_400(self, service):
        status, payload, _ = service.handle_http(
            "GET", "/metrics", {"format": "xml"}
        )
        assert status == 400 and "xml" in payload["error"]

    def test_pool_chunk_counter_counts_pooled_chunks(self, service):
        service.handle_http("POST", "/sweep", {"workload": "wc", "workers": [4, 8]})
        snap = get_metrics().snapshot()
        assert snap["pool.chunks{path=pooled,pool=service}"]["value"] >= 1

    def test_pool_chunk_counter_counts_the_serial_tail(self, obs_enabled):
        from repro.service.pool import ResilientPool

        # A one-process pool never builds an executor, so every chunk
        # takes the serial fallback path — and is counted as such.
        with ResilientPool(1, label="t") as pool:
            assert list(pool.run_chunks(lambda x: x * 2, [1, 2, 3])) == [2, 4, 6]
        snap = get_metrics().snapshot()
        assert snap["pool.chunks{path=serial,pool=t}"]["value"] == 3
        assert snap["pool.chunks{path=pooled,pool=t}"]["value"] == 0


class TestSloWindow:
    def test_status_reports_percentiles_and_errors(self, service):
        for _ in range(3):
            service.handle_http("POST", "/estimate", {"workload": "wc"})
        service.handle_http("POST", "/estimate", {"workload": "no-such"})
        status, payload, _ = service.handle_http("GET", "/status", {})
        assert status == 200
        endpoints = payload["slo"]["endpoints"]
        estimate = endpoints["/estimate"]
        assert estimate["count"] == 4
        assert estimate["errors"] == 1
        assert estimate["error_rate"] == pytest.approx(0.25)
        assert estimate["p99"] >= estimate["p95"] >= estimate["p50"] >= 0
        assert payload["pool"]["processes"] == 2


class TestOverHttp:
    def test_header_echo_and_text_payloads(self, obs_enabled):
        with serve_in_thread(scale=SCALE, processes=1, job_workers=1) as handle:
            client = ServiceClient(handle.url)
            client.estimate("wc")
            assert client.last_trace_id
            prom = client.prom_metrics()
            assert "service_requests" in parse_prometheus(prom)
            flame = client.flame(client.last_trace_id)
            assert validate_trace_events(flame) == []
            names = {
                e["name"] for e in flame["traceEvents"] if e.get("ph") == "X"
            }
            assert "service.request" in names
            status = client.status()
            assert "/estimate" in status["slo"]["endpoints"]

    def test_disabled_service_sends_no_trace_header(self, obs_disabled):
        # serve_in_thread arms observability when it builds the service;
        # supplying the service keeps the caller's (disabled) state.
        with DagService(processes=1, job_workers=1, scale=SCALE) as svc:
            with serve_in_thread(service=svc) as handle:
                client = ServiceClient(handle.url)
                client.estimate("wc")
                assert client.last_trace_id is None
