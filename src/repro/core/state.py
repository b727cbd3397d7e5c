"""Workflow states as seen by the estimator (paper §IV-A1, Fig. 5).

A *state* is a maximal interval during which the set of running (job, stage)
pairs — and therefore every job's degree of parallelism and the allocation of
preemptable resources — is fixed.  The estimator emits one
:class:`EstimatedState` per Algorithm 1 iteration; they concatenate into the
estimated execution plan, directly comparable with the simulator's
:class:`~repro.simulator.trace.StateTrace` sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import EstimationError
from repro.mapreduce.stage import StageKind


@dataclass(frozen=True)
class WorkflowProgress:
    """A mid-execution snapshot Algorithm 1 can resume estimation from.

    Used by the progress-estimation application (§I's ParaTimer-style use
    case): given what has already happened, estimate the *remaining* time.

    Attributes:
        completed_jobs: jobs whose final stage has finished.
        running: job name -> (current stage kind, remaining work in
            task-equivalents).  A fresh stage's remaining work equals its
            task count; in-flight partial progress subtracts fractionally.
    """

    completed_jobs: FrozenSet[str]
    running: Dict[str, Tuple[StageKind, float]]

    def __post_init__(self) -> None:
        for name, (kind, remaining) in self.running.items():
            if remaining < 0:
                raise EstimationError(
                    f"remaining work of {name!r} must be >= 0: {remaining}"
                )
        overlap = self.completed_jobs & set(self.running)
        if overlap:
            raise EstimationError(
                f"jobs cannot be both completed and running: {sorted(overlap)}"
            )


@dataclass(frozen=True)
class EstimatedState:
    """One state of the estimated execution plan.

    Attributes:
        index: 1-based state number.
        t_start, t_end: estimated boundaries (s).
        running: the (job name, stage kind) pairs active in the state.
        deltas: estimated degree of parallelism per job name.
        task_times: estimated per-task time per (job name, stage kind).
    """

    index: int
    t_start: float
    t_end: float
    running: FrozenSet[Tuple[str, StageKind]]
    deltas: Dict[str, float]
    task_times: Dict[Tuple[str, StageKind], float]

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class LazyStates(Sequence[EstimatedState]):
    """An estimated plan whose :class:`EstimatedState` objects are built on
    first read.

    Algorithm 1 keeps one compact record per state, and most callers (a
    sweep ranking candidates, the service counting states) never look
    inside; ``len`` answers from the records without building anything.
    Any other read builds the whole list once, with ``build(index,
    record)``, and serves it from then on.  A plan compares equal to a list
    of the same states, and pickles as one.
    """

    __slots__ = ("_records", "_build", "_states")

    def __init__(
        self, records: List[Any], build: Callable[[int, Any], EstimatedState]
    ):
        self._records: Optional[List[Any]] = records
        self._build: Optional[Callable[[int, Any], EstimatedState]] = build
        self._states: Optional[List[EstimatedState]] = None

    def _built(self) -> List[EstimatedState]:
        states = self._states
        if states is None:
            build = self._build
            states = self._states = [
                build(index, record) for index, record in enumerate(self._records, 1)
            ]
            self._records = self._build = None
        return states

    def __len__(self) -> int:
        if self._states is None:
            return len(self._records)
        return len(self._states)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self) -> Iterator[EstimatedState]:
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyStates):
            other = other._built()
        elif not isinstance(other, list):
            return NotImplemented
        return self._built() == other

    __hash__ = None  # type: ignore[assignment]  # a list is unhashable too

    def __repr__(self) -> str:
        return repr(self._built())

    def __reduce__(self):
        return (list, (self._built(),))


@dataclass
class DagEstimate:
    """Full output of the state-based workflow estimator.

    Attributes:
        workflow_name: which workflow was estimated.
        total_time: estimated end-to-end execution time ``t_dag``.
        states: the estimated execution plan, one entry per state.  The
            estimator hands over a :class:`LazyStates`, which builds the
            state objects on first read; :attr:`state_count` never does.
        stage_spans: estimated (start, end) per (job name, stage kind).
        variant: which per-task statistic was planned with.
        model_overhead_s: wall-clock cost of computing this estimate (the
            §V "execution time" metric — must stay well under a second).
    """

    workflow_name: str
    total_time: float
    states: Sequence[EstimatedState] = field(default_factory=list)
    stage_spans: Dict[Tuple[str, StageKind], Tuple[float, float]] = field(
        default_factory=dict
    )
    variant: str = "mean"
    model_overhead_s: float = 0.0

    @property
    def state_count(self) -> int:
        """How many states the plan has, without building them."""
        return len(self.states)

    def stage_duration(self, job: str, kind: StageKind) -> float:
        try:
            t0, t1 = self.stage_spans[(job, kind)]
        except KeyError:
            raise EstimationError(f"no estimated span for {job!r}/{kind}") from None
        return t1 - t0

    def job_span(self, job: str) -> Tuple[float, float]:
        spans = [v for (name, _), v in self.stage_spans.items() if name == job]
        if not spans:
            raise EstimationError(f"no estimated spans for job {job!r}")
        return min(t0 for t0, _ in spans), max(t1 for _, t1 in spans)

    def state_durations(self) -> List[float]:
        return [s.duration for s in self.states]
