"""Tests for the fair job scheduler (priorities, deadlines, retries)."""

import threading
import time

import pytest

from repro.errors import JobCancelledError, JobTimeoutError, ServiceError
from repro.obs import MetricsRegistry
from repro.obs.metrics import get_metrics, set_metrics
from repro.service.scheduler import Job, JobScheduler, JobSpec, deadline_checker


@pytest.fixture
def armed_metrics():
    old = set_metrics(MetricsRegistry(enabled=True))
    yield get_metrics()
    set_metrics(old)


def _counter(registry, name):
    return registry.snapshot().get(name, {}).get("value", 0)


def _blocker():
    """A job that occupies the (single) worker until released."""
    gate = threading.Event()
    started = threading.Event()

    def run(cancel):
        started.set()
        gate.wait(5.0)
        return "released"

    return gate, started, run


class TestBasics:
    def test_submit_runs_and_returns_outcome(self):
        with JobScheduler(workers=1) as sched:
            job = sched.submit(JobSpec(kind="sweep", run=lambda cancel: 42))
            assert job.outcome(timeout=5.0) == 42
            assert job.status == "succeeded"
            assert job.attempts == 1
            assert job.id.startswith("sweep-")

    def test_unknown_job_raises(self):
        with JobScheduler(workers=1) as sched:
            with pytest.raises(ServiceError):
                sched.get("sweep-999")

    def test_outcome_before_completion_raises(self):
        gate, started, run = _blocker()
        with JobScheduler(workers=1) as sched:
            job = sched.submit(JobSpec(kind="sweep", run=run))
            started.wait(5.0)
            with pytest.raises(ServiceError, match="still running"):
                job.outcome(timeout=0.01)
            gate.set()
            assert job.outcome(timeout=5.0) == "released"

    def test_submit_after_close_rejected(self):
        sched = JobScheduler(workers=1)
        sched.close()
        with pytest.raises(ServiceError):
            sched.submit(JobSpec(kind="sweep", run=lambda cancel: 1))

    def test_describe_is_json_friendly(self):
        with JobScheduler(workers=1) as sched:
            job = sched.submit(
                JobSpec(kind="ensemble", run=lambda cancel: 1, label="weblog")
            )
            job.wait(5.0)
            record = job.describe()
        assert record["kind"] == "ensemble"
        assert record["label"] == "weblog"
        assert record["status"] == "succeeded"


class TestFairness:
    def test_priority_orders_execution(self):
        order = []
        gate, started, run = _blocker()
        with JobScheduler(workers=1) as sched:
            sched.submit(JobSpec(kind="warm", run=run))
            started.wait(5.0)  # the worker is now occupied
            low = sched.submit(
                JobSpec(kind="sweep", run=lambda c: order.append("low"), priority=5)
            )
            high = sched.submit(
                JobSpec(kind="sweep", run=lambda c: order.append("high"), priority=0)
            )
            gate.set()
            low.wait(5.0)
            high.wait(5.0)
        assert order == ["high", "low"]

    def test_kinds_round_robin_within_a_priority(self):
        """A flood of sweeps must not starve an equal-priority ensemble."""
        order = []
        gate, started, run = _blocker()
        with JobScheduler(workers=1) as sched:
            sched.submit(JobSpec(kind="warm", run=run))
            started.wait(5.0)
            jobs = [
                sched.submit(
                    JobSpec(kind="sweep", run=lambda c, i=i: order.append(f"s{i}"))
                )
                for i in range(3)
            ]
            jobs.append(
                sched.submit(JobSpec(kind="ensemble", run=lambda c: order.append("e")))
            )
            gate.set()
            for job in jobs:
                job.wait(5.0)
        # Round-robin serves the ensemble first or second, never last.
        assert order.index("e") <= 1


class TestDeadlines:
    def test_deadline_checker_raises_after_expiry(self):
        clock_value = [0.0]
        check = deadline_checker(1.0, clock=lambda: clock_value[0])
        assert check() is False
        clock_value[0] = 1.5
        with pytest.raises(JobTimeoutError, match="deadline"):
            check()

    def test_expired_job_times_out(self, armed_metrics):
        def run(cancel):
            for _ in range(100):
                time.sleep(0.01)
                cancel()  # raises JobTimeoutError past the deadline
            return "done"

        with JobScheduler(workers=1) as sched:
            job = sched.submit(
                JobSpec(kind="sweep", run=run, deadline_s=0.05, retries=3)
            )
            with pytest.raises(JobTimeoutError):
                job.outcome(timeout=5.0)
        assert job.status == "timeout"
        assert job.attempts == 1  # deadline expiry is an answer, not retried
        assert _counter(armed_metrics, "jobs.timeouts") == 1
        assert _counter(armed_metrics, "jobs.retries") == 0

    def test_queue_time_counts_against_the_deadline(self):
        gate, started, run = _blocker()
        with JobScheduler(workers=1) as sched:
            sched.submit(JobSpec(kind="warm", run=run))
            started.wait(5.0)
            doomed = sched.submit(
                JobSpec(kind="sweep", run=lambda c: "ran", deadline_s=0.02)
            )
            time.sleep(0.1)  # expires while queued
            gate.set()
            with pytest.raises(JobTimeoutError):
                doomed.outcome(timeout=5.0)


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, armed_metrics):
        ran = []
        gate, started, run = _blocker()
        with JobScheduler(workers=1) as sched:
            sched.submit(JobSpec(kind="warm", run=run))
            started.wait(5.0)
            job = sched.submit(JobSpec(kind="sweep", run=lambda c: ran.append(1)))
            sched.cancel(job.id)
            gate.set()
            with pytest.raises(JobCancelledError):
                job.outcome(timeout=5.0)
        assert job.status == "cancelled"
        assert ran == []
        assert _counter(armed_metrics, "jobs.cancelled") == 1

    def test_cancel_running_job_settles_at_next_poll(self):
        entered = threading.Event()

        def run(cancel):
            entered.set()
            for _ in range(500):
                time.sleep(0.01)
                if cancel():
                    raise JobCancelledError("job cancelled")
            return "done"

        with JobScheduler(workers=1) as sched:
            job = sched.submit(JobSpec(kind="sweep", run=run))
            entered.wait(5.0)
            sched.cancel(job.id)
            with pytest.raises(JobCancelledError):
                job.outcome(timeout=5.0)
        assert job.status == "cancelled"


class TestRetries:
    def test_transient_failures_retry_with_backoff(self, armed_metrics):
        attempts = []

        def flaky(cancel):
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "ok"

        with JobScheduler(workers=1) as sched:
            job = sched.submit(
                JobSpec(kind="sweep", run=flaky, retries=3, backoff_s=0.001)
            )
            assert job.outcome(timeout=5.0) == "ok"
        assert job.attempts == 3
        assert _counter(armed_metrics, "jobs.retries") == 2
        assert _counter(armed_metrics, "jobs.succeeded") == 1

    def test_failing_retry_path_settles_the_job_and_keeps_the_worker(self):
        """A JobSpec built in Python skips the service's parse-time check,
        so ``time.sleep`` meets the negative backoff on the retry path; the
        job fails and the one worker thread goes on to the next job."""

        def broken(cancel):
            raise RuntimeError("down")

        with JobScheduler(workers=1) as sched:
            doomed = sched.submit(
                JobSpec(kind="sweep", run=broken, retries=1, backoff_s=-1.0)
            )
            with pytest.raises(ServiceError, match="sleep length"):
                doomed.outcome(timeout=5.0)
            after = sched.submit(JobSpec(kind="sweep", run=lambda cancel: "ok"))
            assert after.outcome(timeout=5.0) == "ok"
        assert doomed.status == "failed"

    def test_retry_exhaustion_fails_with_last_error(self, armed_metrics):
        def broken(cancel):
            raise RuntimeError("always down")

        with JobScheduler(workers=1) as sched:
            job = sched.submit(
                JobSpec(kind="sweep", run=broken, retries=2, backoff_s=0.001)
            )
            with pytest.raises(ServiceError, match="always down"):
                job.outcome(timeout=5.0)
        assert job.status == "failed"
        assert job.attempts == 3
        assert _counter(armed_metrics, "jobs.failed") == 1
        assert _counter(armed_metrics, "jobs.retries") == 2


class TestHistory:
    def test_terminal_jobs_evicted_beyond_history(self):
        with JobScheduler(workers=1, history=2) as sched:
            early = [
                sched.submit(JobSpec(kind="sweep", run=lambda c: i))
                for i in range(3)
            ]
            for job in early:
                job.wait(5.0)
            late = sched.submit(JobSpec(kind="sweep", run=lambda c: "late"))
            late.wait(5.0)
            ids = {job.id for job in sched.jobs()}
        assert len(ids) <= 2
        assert late.id in ids
        assert early[0].id not in ids

    def test_running_jobs_survive_eviction(self):
        gate, started, run = _blocker()
        with JobScheduler(workers=1, history=1) as sched:
            blocker = sched.submit(JobSpec(kind="warm", run=run))
            started.wait(5.0)
            sched.submit(JobSpec(kind="sweep", run=lambda c: 1))
            # The oldest job is still running: eviction must not drop it.
            assert blocker.id in {job.id for job in sched.jobs()}
            gate.set()

    def test_long_running_job_does_not_pin_history(self):
        """Eviction skips a live job instead of stopping at it, so terminal
        history stays bounded behind one long-running job."""
        history = 4
        gate, started, run = _blocker()
        with JobScheduler(workers=2, history=history) as sched:
            blocker = sched.submit(JobSpec(kind="warm", run=run))
            started.wait(5.0)
            for i in range(history + 10):
                job = sched.submit(JobSpec(kind="sweep", run=lambda c: 1))
                assert job.wait(5.0)
            retained = sched.jobs()
            gate.set()
        terminal = [job for job in retained if job.status in Job.TERMINAL]
        assert len(terminal) <= history
        assert blocker.id in {job.id for job in retained}

    def test_terminal_states_are_the_contract(self):
        assert set(Job.TERMINAL) == {"succeeded", "failed", "cancelled", "timeout"}
