"""DAG workflow model (paper Definition 1).

A workflow is a set of jobs connected by precedence arcs: ``(a, b)`` means
job ``b`` may start only when job ``a`` has completed.  Jobs with no pending
parents run simultaneously, which is exactly what makes cost estimation hard
(preemptable resources are shared among them).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.errors import WorkflowError
from repro.mapreduce.job import MapReduceJob


@dataclass(frozen=True)
class Workflow:
    """A DAG workflow ``G_F(J, E)``.

    Attributes:
        name: workflow label used in reports (e.g. ``"WC-Q5"``).
        jobs: the jobs, keyed by unique name.
        edges: precedence arcs as (parent_name, child_name) pairs.
    """

    name: str
    jobs: Tuple[MapReduceJob, ...]
    edges: FrozenSet[Tuple[str, str]] = frozenset()

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowError("workflow name must be non-empty")
        if not self.jobs:
            raise WorkflowError(f"workflow {self.name!r} has no jobs")
        names = [j.name for j in self.jobs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise WorkflowError(f"duplicate job names in {self.name!r}: {dupes}")
        known = set(names)
        for parent, child in self.edges:
            if parent not in known or child not in known:
                raise WorkflowError(
                    f"edge ({parent!r}, {child!r}) references unknown job in {self.name!r}"
                )
            if parent == child:
                raise WorkflowError(f"self-loop on {parent!r} in {self.name!r}")
        # Reject cycles up-front (Definition 1 requires acyclicity).
        self.topological_order()

    # -- derived-structure memo -------------------------------------------------

    def _memoised(self, key: str, build: Callable[[], object]) -> object:
        """Build-once storage for derived structure (adjacency, job map).

        The workflow is frozen, so every derived view is immutable too;
        hot paths (the estimator's transition loop) query them per state
        and must not rebuild per call.  The memo lives outside the
        dataclass fields — ``__eq__``/``__hash__`` ignore it, and
        :meth:`__getstate__` strips it, so pickles stay lean and equality
        is untouched.
        """
        memo = self.__dict__.get("_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        value = memo.get(key)
        if value is None:
            value = build()
            memo[key] = value
        return value

    def __getstate__(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def with_jobs(self, jobs: Sequence[MapReduceJob]) -> "Workflow":
        """This workflow with its jobs replaced (same name, same edges).

        When ``jobs`` keeps every job name in the same order — a knob
        candidate, which re-configures jobs but never renames them — the
        copy is derived from this already-validated workflow: no second
        cycle check, and the parent and child maps are shared.  Any other
        change of names goes through the validating constructor.
        """
        jobs = tuple(jobs)
        if len(jobs) != len(self.jobs) or any(
            new.name != old.name for new, old in zip(jobs, self.jobs)
        ):
            return Workflow(name=self.name, jobs=jobs, edges=self.edges)
        derived = object.__new__(Workflow)
        derived.__dict__.update(
            name=self.name,
            jobs=jobs,
            edges=self.edges,
            _memo={"parents": self._parent_sets(), "children": self._child_sets()},
        )
        return derived

    # -- structure queries -----------------------------------------------------

    @property
    def job_map(self) -> Dict[str, MapReduceJob]:
        return self._memoised("job_map", lambda: {j.name: j for j in self.jobs})

    def job(self, name: str) -> MapReduceJob:
        try:
            return self.job_map[name]
        except KeyError:
            raise WorkflowError(f"no job {name!r} in workflow {self.name!r}") from None

    def _parent_sets(self) -> Dict[str, FrozenSet[str]]:
        def build() -> Dict[str, FrozenSet[str]]:
            collected: Dict[str, Set[str]] = {j.name: set() for j in self.jobs}
            for parent, child in self.edges:
                collected[child].add(parent)
            return {name: frozenset(v) for name, v in collected.items()}

        return self._memoised("parents", build)

    def _child_sets(self) -> Dict[str, FrozenSet[str]]:
        def build() -> Dict[str, FrozenSet[str]]:
            collected: Dict[str, Set[str]] = {j.name: set() for j in self.jobs}
            for parent, child in self.edges:
                collected[parent].add(child)
            return {name: frozenset(v) for name, v in collected.items()}

        return self._memoised("children", build)

    def parents(self, name: str) -> FrozenSet[str]:
        """Names of jobs that must complete before ``name`` starts."""
        sets = self._parent_sets()
        return sets[name] if name in sets else frozenset(
            p for p, c in self.edges if c == name
        )

    def children(self, name: str) -> FrozenSet[str]:
        """Names of jobs unlocked (partially) by ``name``'s completion."""
        sets = self._child_sets()
        return sets[name] if name in sets else frozenset(
            c for p, c in self.edges if p == name
        )

    def roots(self) -> List[str]:
        """Jobs with no parents — they all start at time zero."""
        have_parents = {c for _, c in self.edges}
        return [j.name for j in self.jobs if j.name not in have_parents]

    def sinks(self) -> List[str]:
        """Jobs with no children — the workflow ends when the last finishes."""
        have_children = {p for p, _ in self.edges}
        return [j.name for j in self.jobs if j.name not in have_children]

    def topological_order(self) -> List[str]:
        """Kahn topological order; raises :class:`WorkflowError` on a cycle.

        Ties are broken by job declaration order so the result is
        deterministic.
        """
        order_index = {j.name: i for i, j in enumerate(self.jobs)}
        indegree = {j.name: 0 for j in self.jobs}
        for _, child in self.edges:
            indegree[child] += 1
        ready = sorted(
            (n for n, d in indegree.items() if d == 0), key=order_index.__getitem__
        )
        out: List[str] = []
        while ready:
            node = ready.pop(0)
            out.append(node)
            for child in sorted(self.children(node), key=order_index.__getitem__):
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
            ready.sort(key=order_index.__getitem__)
        if len(out) != len(self.jobs):
            stuck = sorted(n for n, d in indegree.items() if d > 0)
            raise WorkflowError(f"cycle detected in {self.name!r} involving {stuck}")
        return out

    # -- aggregate stats -------------------------------------------------------

    @property
    def total_input_mb(self) -> float:
        return sum(j.input_mb for j in self.jobs)

    @property
    def num_stages(self) -> int:
        """Total schedulable stages across all jobs (map + reduce each)."""
        return sum(len(j.stages()) for j in self.jobs)

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self.jobs)} jobs, {len(self.edges)} edges, "
            f"{self.num_stages} stages, input {self.total_input_mb:.0f} MB"
        )


# Workflows are hashed constantly on the sweep hot path (candidate memo
# keys), and the generated dataclass hash walks every
# job recursively each time.  The instance is frozen, so the value can be
# computed once and pinned.  Installed after class creation because
# ``@dataclass(frozen=True)`` overwrites a ``__hash__`` defined in the class
# body; ``__getstate__`` strips the pin, so a pickled workflow never carries
# one process's (seed-randomised) hash into another.
_GENERATED_WORKFLOW_HASH = Workflow.__hash__


def _cached_workflow_hash(self: Workflow) -> int:
    value = self.__dict__.get("_hash_pin")
    if value is None:
        value = _GENERATED_WORKFLOW_HASH(self)
        object.__setattr__(self, "_hash_pin", value)
    return value


Workflow.__hash__ = _cached_workflow_hash  # type: ignore[method-assign]


def single_job_workflow(job: MapReduceJob, name: str = "") -> Workflow:
    """Wrap one job as a trivial workflow (used all over the evaluation)."""
    return Workflow(name=name or job.name, jobs=(job,), edges=frozenset())
