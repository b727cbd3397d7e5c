"""Tests for repro.dag.workflow — Definition 1."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import Workflow, single_job_workflow
from repro.errors import WorkflowError
from repro.mapreduce import MapReduceJob


def job(name: str, reducers: int = 5) -> MapReduceJob:
    return MapReduceJob(name=name, input_mb=1000.0, num_reducers=reducers)


def diamond() -> Workflow:
    return Workflow(
        name="diamond",
        jobs=(job("a"), job("b"), job("c"), job("d")),
        edges=frozenset({("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}),
    )


class TestConstruction:
    def test_single_job_workflow(self):
        wf = single_job_workflow(job("solo"))
        assert wf.roots() == ["solo"] and wf.sinks() == ["solo"]

    def test_duplicate_job_names_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow(name="w", jobs=(job("a"), job("a")))

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow(name="w", jobs=(job("a"),), edges=frozenset({("a", "ghost")}))

    def test_self_loop_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow(name="w", jobs=(job("a"),), edges=frozenset({("a", "a")}))

    def test_cycle_rejected(self):
        with pytest.raises(WorkflowError, match="cycle"):
            Workflow(
                name="w",
                jobs=(job("a"), job("b")),
                edges=frozenset({("a", "b"), ("b", "a")}),
            )

    def test_empty_workflow_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow(name="w", jobs=())


class TestStructure:
    def test_parents_and_children(self):
        wf = diamond()
        assert wf.parents("d") == {"b", "c"}
        assert wf.children("a") == {"b", "c"}
        assert wf.parents("a") == set()

    @pytest.mark.parametrize("query", ("job", "parents", "children"))
    def test_unknown_job_raises(self, query):
        """A misspelt name is an error for every per-job query, never an
        empty answer."""
        with pytest.raises(WorkflowError, match="no job 'typo'"):
            getattr(diamond(), query)("typo")

    def test_roots_and_sinks(self):
        wf = diamond()
        assert wf.roots() == ["a"]
        assert wf.sinks() == ["d"]

    def test_topological_order_is_valid(self):
        order = diamond().topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_topological_order_deterministic(self):
        # Ties broken by declaration order.
        assert diamond().topological_order() == ["a", "b", "c", "d"]

    def test_job_lookup(self):
        assert diamond().job("b").name == "b"
        with pytest.raises(WorkflowError):
            diamond().job("zzz")

    def test_num_stages_counts_map_and_reduce(self):
        wf = Workflow(name="w", jobs=(job("a"), job("b", reducers=0)))
        assert wf.num_stages == 3  # a: map+reduce, b: map only

    def test_total_input(self):
        assert diamond().total_input_mb == pytest.approx(4000.0)

    def test_describe(self):
        assert "4 jobs" in diamond().describe()


class TestWithJobs:
    """``with_jobs`` derives a same-names copy from the validated parent;
    any other change of names goes through the validating constructor."""

    def test_same_names_share_the_parent_structure(self):
        wf = diamond()
        jobs = (job("a"), job("b", reducers=9), job("c"), job("d"))
        derived = wf.with_jobs(jobs)
        assert derived == Workflow(name=wf.name, jobs=jobs, edges=wf.edges)
        assert derived.jobs == jobs and derived.job("b").num_reducers == 9
        assert derived._parent_sets() is wf._parent_sets()
        assert derived._child_sets() is wf._child_sets()
        assert derived.topological_order() == wf.topological_order()

    @pytest.mark.parametrize(
        "names",
        (("a", "b", "c", "e"), ("a", "b", "c", "c")),
        ids=("renamed", "duplicated"),
    )
    def test_renamed_or_duplicated_job_raises(self, names):
        with pytest.raises(WorkflowError):
            diamond().with_jobs(tuple(job(name) for name in names))

    def test_reordered_jobs_go_through_the_constructor(self):
        jobs = (job("a"), job("c"), job("b"), job("d"))
        derived = diamond().with_jobs(jobs)
        assert derived == Workflow(name="diamond", jobs=jobs, edges=diamond().edges)
        # Ties break by the new declaration order.
        assert derived.topological_order() == ["a", "c", "b", "d"]


@st.composite
def random_dag(draw):
    """Random DAG: edges only from lower to higher index (acyclic by
    construction)."""
    n = draw(st.integers(1, 8))
    jobs = tuple(job(f"j{i}") for i in range(n))
    edges = set()
    for b in range(1, n):
        for a in range(b):
            if draw(st.booleans()):
                edges.add((f"j{a}", f"j{b}"))
    return Workflow(name="rand", jobs=jobs, edges=frozenset(edges))


class TestProperties:
    @given(random_dag())
    @settings(max_examples=50, deadline=None)
    def test_topological_order_respects_every_edge(self, wf):
        order = wf.topological_order()
        position = {name: i for i, name in enumerate(order)}
        for parent, child in wf.edges:
            assert position[parent] < position[child]

    @given(random_dag())
    @settings(max_examples=50, deadline=None)
    def test_roots_have_no_parents_sinks_no_children(self, wf):
        for root in wf.roots():
            assert not wf.parents(root)
        for sink in wf.sinks():
            assert not wf.children(sink)

    @given(random_dag())
    @settings(max_examples=50, deadline=None)
    def test_parent_child_symmetry(self, wf):
        for j in wf.jobs:
            for child in wf.children(j.name):
                assert j.name in wf.parents(child)
