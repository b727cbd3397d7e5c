"""Estimator-path parity and loop diagnostics.

The batched estimator path is **bit-identical** to the cold serial one
across the whole Table I catalogue under all three variants: batching
changes how task-time queries reach the source, never their arithmetic.
The diagnostics tests pin what Algorithm 1 reports when its state budget
runs out, and the pickle tests pin that hash pins and structure memos never
travel between processes.
"""

from __future__ import annotations

import pickle

import pytest

import repro.core.estimator as estimator_module
from repro.core.boe import BOEModel
from repro.core.distributions import Variant
from repro.core.estimator import BOESource, DagEstimator
from repro.errors import EstimationError
from repro.workloads.catalog import TABLE1
from repro.workloads.tpch import tpch_query

VARIANTS = (Variant.MEAN, Variant.MEDIAN, Variant.NORMAL)


def _assert_bit_identical(actual, expected):
    """Exact equality — no tolerances — of everything the estimate reports."""
    assert actual.workflow_name == expected.workflow_name
    assert actual.total_time == expected.total_time
    assert actual.states == expected.states
    assert actual.stage_spans == expected.stage_spans


class TestCatalogParity:
    """The batched path vs the cold serial estimator, across the full
    workload catalogue and every variant."""

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
    @pytest.mark.parametrize("entry", TABLE1, ids=lambda e: e.name)
    def test_bit_identical_to_cold(self, cluster, entry, variant):
        workflow = entry.factory(1.0)
        source = BOESource(BOEModel(cluster))
        cold = DagEstimator(
            cluster, source, variant=variant, batch=False
        ).estimate(workflow)

        batched = DagEstimator(
            cluster, source, variant=variant, batch=True
        ).estimate(workflow)
        _assert_bit_identical(batched, cold)


class TestExhaustionDiagnostics:
    def test_exhaustion_names_the_running_set(self, cluster, monkeypatch):
        monkeypatch.setattr(estimator_module, "_MAX_ITERATIONS", 2)
        workflow = tpch_query(9)  # needs far more than 2 states
        source = BOESource(BOEModel(cluster))
        with pytest.raises(EstimationError) as err:
            DagEstimator(cluster, source).estimate(workflow)
        message = str(err.value)
        assert "did not converge" in message
        assert workflow.name in message
        # The last state's running set, with per-stage progress.
        assert "tasks left" in message
        assert "Delta=" in message
        assert "/map" in message or "/reduce" in message

    def test_zero_progress_workflow_reports_cleanly(self, cluster, monkeypatch):
        """A stage whose remaining work never drains (pathological source)
        must exhaust the bound with a diagnostic, not loop forever."""

        class _FrozenClock:
            """Yields enormous task times so completions stop advancing
            the workflow within any reasonable state budget."""

            def distribution(self, job, kind, delta, concurrent):
                from repro.core.distributions import TaskTimeDistribution

                return TaskTimeDistribution.point(1e308)

        monkeypatch.setattr(estimator_module, "_MAX_ITERATIONS", 3)
        workflow = tpch_query(9)
        with pytest.raises(EstimationError, match="still running"):
            DagEstimator(cluster, _FrozenClock()).estimate(workflow)


class TestHashPinsAndPickle:
    def test_workflow_pickle_strips_pins_and_memo(self):
        workflow = tpch_query(9)
        hash(workflow)
        workflow.job_map  # populate the structure memo
        clone = pickle.loads(pickle.dumps(workflow))
        assert "_hash_pin" not in clone.__dict__
        assert "_memo" not in clone.__dict__
        assert clone == workflow
        assert hash(clone) == hash(workflow)  # re-derived, not shipped

    def test_job_pickle_strips_pin(self):
        job = tpch_query(9).jobs[0]
        hash(job)
        assert "_hash_pin" in job.__dict__
        clone = pickle.loads(pickle.dumps(job))
        assert "_hash_pin" not in clone.__dict__
        assert clone == job
        assert hash(clone) == hash(job)  # re-derived, not shipped
