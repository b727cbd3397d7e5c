"""``POST /ensemble`` with only a workload answers for every workload in
the catalogue.

The default request runs the CLI's question (skew 0.3, failure
probability 0.05, 32 replications, base seed 42), so some replications
abort a job; the answer counts them instead of failing.
"""

from repro.obs import MetricsRegistry, Tracer
from repro.obs.metrics import set_metrics
from repro.obs.tracer import set_tracer
from repro.service import DagService
from repro.workloads import named_workflows

SCALE = 0.02


def test_default_request_answers_for_every_workload():
    old_tracer = set_tracer(Tracer(enabled=False))
    old_metrics = set_metrics(MetricsRegistry(enabled=False))
    try:
        with DagService(scale=SCALE, processes=2, job_workers=1) as service:
            for name in sorted(named_workflows(SCALE)):
                status, payload = service.handle(
                    "POST", "/ensemble", {"workload": name}
                )
                assert status == 200, (name, payload)
                assert payload["replications"] == 32, name
    finally:
        set_tracer(old_tracer)
        set_metrics(old_metrics)
