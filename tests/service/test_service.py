"""Tests for the estimate service and the HTTP server, end to end.

The headline acceptance criterion lives here: 32 concurrent estimate
requests for the same workflow structure must be served with the solve
work of ONE request (measured through the ``boe.batch_points`` counter),
every response bit-identical to a direct library call.
"""

import http.client
import json
import threading
import time
from collections import Counter
from urllib.parse import urlsplit

import pytest

from repro.cluster import Cluster, paper_cluster
from repro.cluster.node import PAPER_NODE
from repro.core.estimator import estimate_workflow
from repro.ensemble.engine import EnsembleConfig, EnsembleRunner
from repro.errors import JobTimeoutError, ServiceError
from repro.obs import MetricsRegistry, Tracer
from repro.obs.metrics import get_metrics, set_metrics
from repro.obs.tracer import set_tracer
from repro.service import DagService, EstimateService, ServiceClient, serve_in_thread
from repro.service.scheduler import Job, JobSpec
from repro.simulator import SimulationConfig
from repro.workloads import named_workflows

SCALE = 0.02


@pytest.fixture
def obs_sandbox():
    """Fresh global tracer/metrics (the server arms the process globals)."""
    old_tracer = set_tracer(Tracer(enabled=False))
    old_metrics = set_metrics(MetricsRegistry(enabled=False))
    yield
    set_tracer(old_tracer)
    set_metrics(old_metrics)


@pytest.fixture
def wc_workflow():
    return named_workflows(scale=SCALE)["wc"]


def _counter(registry, name):
    return registry.snapshot().get(name, {}).get("value", 0)


class TestEstimateService:
    def test_32_concurrent_requests_coalesce_into_one_solve(
        self, cluster, wc_workflow, obs_sandbox
    ):
        """The acceptance criterion for the request coalescer."""
        # Reference: the solve cost (in BOE batch points) of ONE direct call.
        reference = set_metrics(MetricsRegistry(enabled=True))
        direct = estimate_workflow(wc_workflow, cluster)
        direct_points = _counter(get_metrics(), "boe.batch_points")
        assert direct_points > 0
        set_metrics(reference)

        set_metrics(MetricsRegistry(enabled=True))
        registry = get_metrics()
        n = 32
        barrier = threading.Barrier(n)
        results = [None] * n
        failures = []

        with EstimateService(cluster) as service:

            def request(i):
                try:
                    barrier.wait(10.0)
                    results[i] = service.estimate(wc_workflow, timeout=60.0)
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    failures.append(exc)

            threads = [
                threading.Thread(target=request, args=(i,)) for i in range(n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)

        assert not failures
        # One evaluation's worth of solve work served all 32 requests.
        assert _counter(registry, "boe.batch_points") == direct_points
        served = Counter(r["served"] for r in results)
        assert served["computed"] == 1
        assert sum(served.values()) == n
        assert set(served) <= {"computed", "coalesced", "cache"}
        # Every response is bit-identical to the direct library call.
        for payload in results:
            assert payload["ok"]
            assert payload["total_time_s"] == direct.total_time
        assert _counter(registry, "service.estimate_requests") == n
        assert (
            _counter(registry, "service.cache_hits")
            + _counter(registry, "service.coalesced")
            == n - 1
        )

    def test_repeat_request_is_a_cache_hit(self, cluster, wc_workflow, obs_sandbox):
        with EstimateService(cluster) as service:
            first = service.estimate(wc_workflow, timeout=60.0)
            second = service.estimate(wc_workflow, timeout=60.0)
        assert first["served"] == "computed"
        assert second["served"] == "cache"
        assert second["total_time_s"] == first["total_time_s"]

    def test_hash_collision_never_shares_an_entry(self, cluster, obs_sandbox):
        """Equal hashes do not make equal requests: two unequal workflows
        whose pinned hashes collide each get their own estimate."""
        flows = named_workflows(scale=SCALE)
        wc, ts = flows["wc"], flows["ts"]
        object.__setattr__(ts, "_hash_pin", hash(wc))
        assert hash(ts) == hash(wc) and ts != wc
        with EstimateService(cluster) as service:
            first = service.estimate(wc, timeout=60.0)
            second = service.estimate(ts, timeout=60.0)
        assert second["served"] == "computed"
        assert first["total_time_s"] == estimate_workflow(wc, cluster).total_time
        assert second["total_time_s"] == estimate_workflow(ts, cluster).total_time
        assert second["total_time_s"] != first["total_time_s"]

    def test_cluster_override_changes_the_key(self, cluster, wc_workflow, obs_sandbox):
        other = Cluster(node=PAPER_NODE, workers=4, name="4w")
        with EstimateService(cluster) as service:
            default = service.estimate(wc_workflow, timeout=60.0)
            overridden = service.estimate(wc_workflow, cluster=other, timeout=60.0)
        assert overridden["served"] == "computed"
        assert overridden["total_time_s"] != default["total_time_s"]
        assert overridden["total_time_s"] == estimate_workflow(
            wc_workflow, other
        ).total_time

    def test_lru_capacity_is_bounded(self, cluster, wc_workflow, obs_sandbox):
        with EstimateService(cluster, capacity=2) as service:
            for workers in (4, 6, 8, 10):
                service.estimate(
                    wc_workflow,
                    cluster=Cluster(
                        node=PAPER_NODE, workers=workers, name=f"{workers}w"
                    ),
                    timeout=60.0,
                )
            assert service.cache_size <= 2

    def test_closed_service_rejects_requests(self, cluster, wc_workflow):
        service = EstimateService(cluster)
        service.close()
        with pytest.raises(ServiceError):
            service.estimate(wc_workflow)


class TestHttpServer:
    @pytest.fixture
    def server(self, obs_sandbox):
        with serve_in_thread(scale=SCALE, processes=2, job_workers=2) as handle:
            yield handle

    def test_failed_bind_raises_at_once(self, server):
        """A taken port is the caller's OSError, not a 10 s start timeout."""
        port = int(server.url.rsplit(":", 1)[1])
        service = DagService(scale=SCALE, processes=1, job_workers=1)
        try:
            t0 = time.perf_counter()
            with pytest.raises(OSError):
                serve_in_thread(port=port, service=service)
            assert time.perf_counter() - t0 < 5.0
        finally:
            service.close()

    def test_health_workloads_and_estimate_parity(self, server, wc_workflow):
        client = ServiceClient(server.url)
        assert client.healthz()["ok"]
        assert "wc" in client.workloads()

        payload = client.estimate("wc")
        direct = estimate_workflow(wc_workflow, paper_cluster())
        assert payload["ok"]
        assert payload["total_time_s"] == direct.total_time
        assert client.estimate("wc")["served"] == "cache"

        metrics = client.metrics()
        assert _counter_from(metrics, "service.requests") >= 2
        assert _counter_from(metrics, "service.estimate_requests") >= 2
        spans = client.trace()
        assert any(span["name"] == "service.request" for span in spans)

    def test_sweep_job_matches_direct_estimates(self, server, wc_workflow):
        client = ServiceClient(server.url)
        payload = client.sweep("wc", [4, 8])
        rows = payload["results"]
        assert [row["workers"] for row in rows] == [4, 8]
        for row in rows:
            direct = estimate_workflow(
                wc_workflow,
                Cluster(node=PAPER_NODE, workers=row["workers"], name="x"),
            )
            assert row["ok"]
            assert row["total_time_s"] == direct.total_time
        assert payload["job"]["status"] == "succeeded"
        # The finished job released its worker context from the shared
        # pool: a long-running service must not accumulate them.
        assert not server.service.pool._shipments

    def test_ensemble_job_matches_direct_run(self, server, wc_workflow):
        client = ServiceClient(server.url)
        # /ensemble defaults to the CLI's skew and failures; zero both to
        # compare against the noiseless default SimulationConfig.
        payload = client.ensemble(
            "wc", replications=4, seed=7, skew=0, failure_prob=0
        )
        direct = EnsembleRunner(
            paper_cluster(),
            config=SimulationConfig(),
            ensemble=EnsembleConfig(
                replications=4,
                min_replications=4,
                base_seed=7,
                exemplars=1,
            ),
        ).run(wc_workflow)
        assert payload["replications"] == direct.replications
        assert payload["quantiles"] == {
            str(q): v for q, v in direct.quantiles.items()
        }
        assert payload["ci"] == list(direct.ci)
        # The "why is it slow" rows ride along with the distribution.
        assert payload["bottlenecks"]

    def test_unknown_workload_maps_to_service_error(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError, match="unknown workload"):
            client.estimate("SortBench-Q99")

    def test_deadline_maps_to_timeout_error(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(JobTimeoutError, match="deadline"):
            client.sweep("wc", [4, 6, 8], deadline_s=0.0001)

    def test_cancel_queued_job_over_http(self, obs_sandbox):
        gate = threading.Event()
        started = threading.Event()

        def block(cancel):
            started.set()
            gate.wait(10.0)
            return "released"

        service = DagService(scale=SCALE, processes=1, job_workers=1)
        try:
            with serve_in_thread(service=service) as handle:
                service.scheduler.submit(JobSpec(kind="warm", run=block))
                assert started.wait(5.0)
                client = ServiceClient(handle.url)
                queued = client.sweep("wc", [4], wait=False)
                assert queued["status"] == "queued"
                client.cancel(queued["id"])
                gate.set()
                record = _wait_terminal(client, queued["id"])
                assert record["status"] == "cancelled"
                assert any(
                    job["id"] == queued["id"] for job in client.jobs()
                )
        finally:
            service.close()


#: One malformed value per parsed parameter: (endpoint, params).
_MALFORMED = [
    ("/ensemble", {"replications": "many"}),
    ("/ensemble", {"seed": "x"}),
    ("/ensemble", {"exemplars": [1]}),
    ("/estimate", {"workers": "four"}),
    ("/estimate", {"variant": "p99"}),
    ("/estimate", {"timeout_s": "later"}),
    ("/sweep", {"priority": "high"}),
    ("/sweep", {"retries": "1.5"}),
    ("/sweep", {"backoff_s": "soon"}),
    ("/sweep", {"deadline_s": "tomorrow"}),
    ("/sweep", {"timeout_s": {}}),
    ("/estimate", {"workers": 1.9}),
    ("/sweep", {"workers": [True, 4]}),
    ("/ensemble", {"replications": 2.7}),
    ("/ensemble", {"wait": "maybe"}),
    ("/ensemble", {"timeout_s": "inf"}),
    ("/estimate", {"timeout_s": float("inf")}),
    ("/sweep", {"deadline_s": float("nan")}),
]

#: Well-formed values that nothing downstream would reject in time:
#: a negative seed fails inside numpy, without an exemplar there are no
#: bottleneck rows to attribute, and a negative backoff kills the job
#: thread at its first retry.
_OUT_OF_RANGE = [
    ("/ensemble", {"seed": -1}),
    ("/ensemble", {"exemplars": 0}),
    ("/sweep", {"backoff_s": -1}),
]


def _ids(rows):
    """``endpoint-param``, plus ``=value`` when the pair repeats."""
    ids = []
    for path, params in rows:
        [(key, value)] = params.items()
        base = f"{path}-{key}"
        ids.append(f"{base}={value!r}" if base in ids else base)
    return ids


class TestMalformedParameters:
    """A value that does not parse fails closed: a typed 400, no job."""

    @pytest.fixture
    def service(self, obs_sandbox):
        service = DagService(scale=SCALE, processes=1, job_workers=1)
        yield service
        service.close()

    @pytest.mark.parametrize("path,params", _MALFORMED, ids=_ids(_MALFORMED))
    def test_handle_returns_400(self, service, path, params):
        body = dict(params, workload="wc")
        if path == "/sweep":
            body.setdefault("workers", [4])
        status, payload = service.handle("POST", path, body)
        assert status == 400
        assert "malformed parameter" in payload["error"]
        assert repr(next(iter(params))) in payload["error"]
        assert not service.scheduler.jobs()

    @pytest.mark.parametrize("path,params", _OUT_OF_RANGE, ids=_ids(_OUT_OF_RANGE))
    def test_out_of_range_returns_400(self, service, path, params):
        status, payload = service.handle("POST", path, dict(params, workload="wc"))
        assert status == 400
        assert repr(next(iter(params))) in payload["error"]
        assert not service.scheduler.jobs()

    def test_wait_false_as_text_answers_202(self, service):
        status, payload = service.handle(
            "POST", "/sweep", {"workload": "wc", "workers": [4], "wait": "False"}
        )
        assert status == 202
        job = service.scheduler.get(payload["id"])
        job.wait(60.0)
        assert job.status == "succeeded"

    def test_http_returns_400(self, obs_sandbox):
        with serve_in_thread(scale=SCALE, processes=1, job_workers=1) as handle:
            url = urlsplit(handle.url)
            connection = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
            try:
                connection.request(
                    "POST",
                    "/ensemble",
                    body=json.dumps({"workload": "wc", "replications": "many"}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
            finally:
                connection.close()
        assert response.status == 400
        assert "malformed parameter 'replications'" in payload["error"]


class TestSweepWorkerSizes:
    """``/sweep`` reads its worker sizes as ``repro-dag sweep --workers``
    does: sorted and de-duplicated, with a typed 400 for bad input."""

    @pytest.fixture
    def service(self, obs_sandbox):
        service = DagService(scale=SCALE, processes=1, job_workers=1)
        yield service
        service.close()

    def _rows(self, service, workers):
        status, payload = service.handle(
            "POST", "/sweep", {"workload": "wc", "workers": workers}
        )
        assert status == 200, payload
        return payload["results"]

    @pytest.mark.parametrize("workers", ["8,4,8", [8, 4, 8]], ids=["csv", "list"])
    def test_unsorted_duplicates_give_the_sorted_unique_rows(self, service, workers):
        rows = self._rows(service, workers)
        assert [row["workers"] for row in rows] == [4, 8]
        assert rows == self._rows(service, "4,8")

    @pytest.mark.parametrize("workers", ["4,x", "", [0, 4], {"a": 1}])
    def test_bad_sizes_are_a_400(self, service, workers):
        status, payload = service.handle(
            "POST", "/sweep", {"workload": "wc", "workers": workers}
        )
        assert status == 400, payload
        assert "workers must be" in payload["error"]
        assert not service.scheduler.jobs()


class TestEstimateTimeout:
    """An estimate not ready within ``timeout_s`` is a typed, counted 504."""

    def test_handle_returns_504_and_counts_it(self, obs_sandbox):
        registry = MetricsRegistry(enabled=True)
        set_metrics(registry)
        with DagService(scale=SCALE, processes=1, job_workers=1) as service:
            status, payload = service.handle(
                "POST", "/estimate", {"workload": "tpch", "timeout_s": -1}
            )
        assert status == 504
        assert "timeout_s" in payload["error"]
        snap = registry.snapshot()
        assert snap["service.errors"]["value"] == 1
        assert snap["service.responses{endpoint=/estimate,status=504}"]["value"] == 1

    def test_job_still_running_after_timeout_is_504(self, obs_sandbox):
        gate = threading.Event()
        started = threading.Event()

        def block(cancel):
            started.set()
            gate.wait(10.0)

        with DagService(scale=SCALE, processes=1, job_workers=1) as service:
            service.scheduler.submit(JobSpec(kind="warm", run=block))
            assert started.wait(5.0)
            status, payload = service.handle(
                "POST", "/sweep", {"workload": "wc", "workers": [4], "timeout_s": 0.05}
            )
            gate.set()
        assert status == 504
        assert "still running" in payload["error"]

    def test_http_client_gets_timeout_error(self, obs_sandbox):
        with serve_in_thread(scale=SCALE, processes=1, job_workers=1) as handle:
            client = ServiceClient(handle.url)
            with pytest.raises(JobTimeoutError, match="timeout_s"):
                client.estimate("tpch", timeout_s=-1)
            metrics = client.metrics()
            slo = client.status()["slo"]["endpoints"]["/estimate"]
        assert _counter_from(metrics, "service.errors") == 1
        assert slo["errors"] == 1


class TestEnsembleAborts:
    """A replication whose job aborts is counted, not fatal; only an
    ensemble whose every replication aborts is an error, a 422 like any
    other model error."""

    def test_default_wc_request_counts_its_abort(self, obs_sandbox):
        """Base seed 42 aborts one of the 32 default ``wc`` replications,
        which used to fail the whole request."""
        with DagService(scale=SCALE, processes=1, job_workers=1) as service:
            status, payload = service.handle("POST", "/ensemble", {"workload": "wc"})
        assert status == 200, payload
        assert (payload["replications"], payload["aborted"]) == (32, 1)

    def test_every_replication_aborted_is_422(self, obs_sandbox):
        with DagService(scale=SCALE, processes=1, job_workers=1) as service:
            status, payload = service.handle(
                "POST", "/ensemble",
                {"workload": "wc", "failure_prob": 0.9, "replications": 2},
            )
        assert status == 422
        assert "all 2 replications aborted" in payload["error"]


def _counter_from(metrics, name):
    return metrics.get(name, {}).get("value", 0)


def _wait_terminal(client, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = client.job(job_id)
        if record["status"] in Job.TERMINAL:
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never settled")
