"""One operation layer under ``repro-dag`` and the service.

The same request typed on the command line and posted as JSON parses to
the same request object, defaults included, and :func:`run` on it gives
the service's answer bit for bit on every deterministic field.
"""

import pytest

from repro import cli
from repro.obs import MetricsRegistry, Tracer
from repro.obs.metrics import set_metrics
from repro.obs.tracer import set_tracer
from repro.operations import (
    EnsembleRequest,
    EstimateRequest,
    SweepRequest,
    parse,
    run,
)
from repro.service import DagService
from repro.workloads import named_workflows

SCALE = 0.02

#: (repro-dag argv, endpoint, JSON params) asking the same question.
SAME_REQUEST = [
    (["estimate", "wc"], "/estimate", {"workload": "wc"}),
    (
        ["estimate", "ts", "--variant", "normal", "--workers", "12"],
        "/estimate",
        {"workload": "ts", "variant": "normal", "workers": 12},
    ),
    (["sweep", "wc"], "/sweep", {"workload": "wc"}),
    (
        ["sweep", "wc", "--workers", "8,4,8"],
        "/sweep",
        {"workload": "wc", "workers": [8, 4, 8]},
    ),
    (["ensemble", "wc"], "/ensemble", {"workload": "wc"}),
    (
        ["ensemble", "wc", "--replications", "4", "--seed", "7", "--skew", "0",
         "--ci-tol", "0.1", "--workers", "10,12", "--paired"],
        "/ensemble",
        {"workload": "wc", "replications": 4, "seed": 7, "skew": 0,
         "ci_tol": 0.1, "workers": [10, 12], "paired": True},
    ),
]

_TYPES = {
    "/estimate": EstimateRequest,
    "/sweep": SweepRequest,
    "/ensemble": EnsembleRequest,
}


@pytest.fixture(scope="module")
def workflows():
    return named_workflows(SCALE)


@pytest.fixture(scope="module")
def service():
    old_tracer = set_tracer(Tracer(enabled=False))
    old_metrics = set_metrics(MetricsRegistry(enabled=False))
    with DagService(scale=SCALE, processes=1, job_workers=1) as service:
        yield service
    set_tracer(old_tracer)
    set_metrics(old_metrics)


@pytest.mark.parametrize(
    "argv,path,params",
    SAME_REQUEST,
    ids=[" ".join(argv) for argv, _, _ in SAME_REQUEST],
)
def test_cli_and_http_parse_to_equal_requests(workflows, argv, path, params):
    args = cli.build_parser().parse_args(argv + ["--scale", str(SCALE)])
    args.options = parse(cli._Options, vars(args))
    from_cli = cli._parse(args, args.request)
    from_http = parse(_TYPES[path], params, workflows)
    assert from_cli == from_http
    assert type(from_cli) is _TYPES[path]


def test_default_ensemble_is_the_cli_question(workflows):
    """``POST /ensemble {"workload": "wc"}`` runs what ``repro-dag
    ensemble wc`` runs: skewed, failure-injected, 32 replications."""
    request = parse(EnsembleRequest, {"workload": "wc"}, workflows)
    assert request.simulation.skew.sigma == 0.3
    assert request.simulation.failures.probability == 0.05
    assert (request.ensemble.replications, request.ensemble.min_replications) == (32, 8)
    assert request.workers[0].workers == 10


def test_estimate_run_equals_service_payload(service, workflows):
    params = {"workload": "tpch", "workers": 6}
    status, payload = service.handle("POST", "/estimate", params)
    assert status == 200
    direct = run(parse(EstimateRequest, params, workflows))
    assert direct["total_time_s"] == payload["total_time_s"]
    assert direct["states"] == payload["states"] == len(direct["state_rows"])


def test_sweep_run_equals_service_payload(service, workflows):
    params = {"workload": "weblog", "workers": "16,4,8"}
    status, payload = service.handle("POST", "/sweep", params)
    assert status == 200
    direct = run(parse(SweepRequest, params, workflows))
    assert direct["results"] == payload["results"]
    assert [row["workers"] for row in direct["results"]] == [4, 8, 16]


@pytest.mark.parametrize(
    "params",
    [{"replications": 4}, {"replications": 4, "workers": [8, 12], "paired": True}],
    ids=["single", "paired"],
)
def test_ensemble_run_equals_service_payload(service, workflows, params):
    params = dict(params, workload="wc")
    status, payload = service.handle("POST", "/ensemble", params)
    assert status == 200
    direct = run(parse(EnsembleRequest, params, workflows))
    keys = ("replications", "ci") + (
        ("mean_a", "mean_b", "mean_delta") if "paired" in params
        else ("quantiles", "makespan", "failed_attempts", "bottlenecks")
    )
    for key in keys:
        assert direct[key] == payload[key], key
