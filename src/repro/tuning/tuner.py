"""Model-driven configuration tuning for DAG workflows.

The application the paper's conclusion announces: because one state-based
estimate costs milliseconds (§V-C), a search over configuration knobs is
cheap enough to run at submission time.  :class:`GreedyTuner` performs
coordinate descent over the knob grid — evaluate every candidate of one
knob with the estimator, keep the best, move to the next knob, repeat until
a full pass improves nothing.

Candidate evaluation goes through a :class:`~repro.sweep.SweepRunner`: each
knob's candidates form one batch, the runner's memoised BOE model re-prices
only the stage/parallelism combinations the knob actually perturbs, and a
parallel runner fans the batch over worker processes.  Estimates are
bit-identical to evaluating each candidate serially with a cold model — the
runner only changes *when* the arithmetic happens, never its result.

The tuner is deliberately *model-only*: it never touches the simulator.
Experiments then verify the tuned configuration against the simulated
ground truth (``benchmarks/bench_tuning.py``) — exactly the loop a real
self-tuning deployment would close against its cluster.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.core.boe import BOEModel
from repro.core.distributions import Variant
from repro.core.estimator import BOESource, TaskTimeSource
from repro.dag.workflow import Workflow
from repro.errors import EstimationError
from repro.obs.tracer import get_tracer
from repro.sweep import Candidate, SweepReport, SweepRunner

from repro.tuning.knobs import (
    Assignment,
    Knob,
    apply_assignment,
    apply_knob_value,
    current_value,
    default_space,
)

logger = logging.getLogger(__name__)


@dataclass
class TuningResult:
    """Outcome of one tuning run.

    Attributes:
        workflow_name: the tuned workflow.
        baseline_estimate_s: estimated makespan of the original config.
        tuned_estimate_s: estimated makespan under ``assignment``.
        assignment: chosen value per knob (only knobs that changed).
        evaluations: estimator calls *attempted* (baseline + every
            candidate, whether or not it produced an estimate or was
            pruned).
        infeasible: attempted candidates the estimator rejected.
        pruned: attempted candidates skipped by the analytic bound screen
            (their lower bound exceeded the incumbent's estimate, so they
            provably could not improve on it).
        wall_time_s: tuning cost (stays near-interactive by design).
        trajectory: (knob key, chosen value, estimate) per improvement.
        sweep: the runner's cumulative evaluation/cache telemetry.
    """

    workflow_name: str
    baseline_estimate_s: float
    tuned_estimate_s: float
    assignment: Assignment
    evaluations: int
    wall_time_s: float
    trajectory: List[Tuple[Tuple[str, str], object, float]] = field(
        default_factory=list
    )
    infeasible: int = 0
    pruned: int = 0
    sweep: Optional[SweepReport] = None

    @property
    def improvement(self) -> float:
        """Estimated speed-up factor of the tuned configuration."""
        if self.tuned_estimate_s <= 0:
            raise EstimationError("tuned estimate must be positive")
        return self.baseline_estimate_s / self.tuned_estimate_s


class GreedyTuner:
    """Coordinate-descent tuner driven by the state-based estimator.

    Args:
        cluster: target cluster.
        source: task-time source (defaults to a memoised BOE source).
        variant: estimator variant.
        max_passes: coordinate-descent passes over the knob list.
        processes: worker processes for candidate batches; 1 stays
            in-process (the cache alone carries small tuning runs).
        runner: a pre-configured shared :class:`~repro.sweep.SweepRunner`;
            overrides ``source``/``variant``/``processes``.
        prune: screen knob batches with analytic makespan bounds
            (:mod:`repro.core.bounds`) while the screen pays: candidates
            whose lower bound exceeds the incumbent's estimate are
            skipped before estimation.  Screening one batch costs about
            as much as estimating one candidate, so a batch pays exactly
            when it rejects at least one.  The first multi-candidate
            batch is always screened; later ones only while the screen
            has rejected at least as many candidates as the batches it
            has screened in this tune.  The gate counts, it never reads
            a clock, so which candidates are screened depends on the
            inputs alone.  Pruning is conservative — the chosen
            assignment and tuned estimate are bit-identical to
            ``prune=False`` — and silently inert for sources the bounds
            cannot cover (non-BOE stubs and wrappers).
    """

    def __init__(
        self,
        cluster: Cluster,
        source: Optional[TaskTimeSource] = None,
        variant: Variant = Variant.MEAN,
        max_passes: int = 3,
        processes: int = 1,
        runner: Optional[SweepRunner] = None,
        prune: bool = True,
    ):
        if max_passes < 1:
            raise EstimationError(f"max_passes must be >= 1: {max_passes}")
        self._cluster = cluster
        self._source = source or BOESource(BOEModel(cluster))
        self._variant = variant
        self._max_passes = max_passes
        self._prune = prune
        self._runner = runner or SweepRunner(
            cluster, source=self._source, variant=variant, processes=processes
        )

    @property
    def runner(self) -> SweepRunner:
        return self._runner

    def _estimate_baseline(self, workflow: Workflow) -> float:
        [result] = self._runner.evaluate([Candidate(workflow, label="baseline")])
        if not result.ok:
            raise EstimationError(
                f"baseline configuration of {workflow.name!r} is infeasible: "
                f"{result.error}"
            )
        return result.total_time_s

    def tune(
        self, workflow: Workflow, space: Optional[Sequence[Knob]] = None
    ) -> TuningResult:
        """Search the knob space; returns the best assignment found."""
        t0 = time.perf_counter()
        tracer = get_tracer()
        otr = tracer if tracer.enabled else None
        run_span = (
            otr.begin("tune.run", workflow=workflow.name)
            if otr is not None
            else None
        )
        knobs = list(space) if space is not None else default_space(
            workflow, self._cluster
        )
        # The workflow's actual configuration is the baseline for every
        # knob — grids are *not* trusted to list it first.
        baseline_value = {knob.key: current_value(workflow, knob) for knob in knobs}
        assignment: Assignment = {}
        evaluations = 1
        infeasible = 0
        pruned = 0
        screened = 0  # multi-candidate batches the bound screen has seen
        baseline = best = self._estimate_baseline(workflow)
        trajectory: List[Tuple[Tuple[str, str], object, float]] = []
        # The incumbent workflow (current assignment applied), maintained
        # incrementally: each improvement adopts the winning candidate's
        # *object*, so candidates — one-knob diffs built from it — share
        # every untouched job by identity, and with it each job's pinned
        # value hash.
        incumbent = workflow

        for pass_idx in range(self._max_passes):
            improved = False
            pass_span = (
                otr.begin("tune.pass", index=pass_idx + 1)
                if otr is not None
                else None
            )
            for knob in knobs:
                current_choice = assignment.get(knob.key, baseline_value[knob.key])
                candidates = [c for c in knob.choices if c != current_choice]
                knob_span = (
                    otr.begin(
                        "tune.knob",
                        knob=f"{knob.job}.{knob.field}",
                        candidates=len(candidates),
                    )
                    if otr is not None
                    else None
                )
                batch = [
                    Candidate(
                        apply_knob_value(incumbent, knob.key, candidate),
                        label=f"{knob.job}.{knob.field}={candidate}",
                    )
                    for candidate in candidates
                ]
                # A candidate only wins if it estimates below
                # ``best * (1 - 1e-6)`` (the improvement test below), so a
                # lower bound above that threshold proves it cannot win —
                # the bound screen changes which candidates are *estimated*,
                # never which one is chosen.  It screens while it pays:
                # at least one rejection per screened batch so far.
                screen = self._prune and len(batch) > 1 and pruned >= screened
                screened += screen
                results = self._runner.evaluate(
                    batch,
                    prune=screen,
                    incumbent_time_s=best * (1.0 - 1e-6),
                )
                best_choice = current_choice
                best_idx: Optional[int] = None
                for idx, (candidate, result) in enumerate(zip(candidates, results)):
                    evaluations += 1
                    if result.pruned:  # provably cannot beat the incumbent
                        pruned += 1
                        continue
                    if not result.ok:  # infeasible candidate (e.g. zero tasks)
                        infeasible += 1
                        continue
                    if result.total_time_s < best * (1.0 - 1e-6):
                        best = result.total_time_s
                        best_choice = candidate
                        best_idx = idx
                if best_idx is not None:
                    assignment[knob.key] = best_choice
                    incumbent = batch[best_idx].workflow
                    trajectory.append((knob.key, best_choice, best))
                    improved = True
                    logger.debug(
                        "tune %s: %s.%s -> %r (est %.3fs)",
                        workflow.name,
                        knob.job,
                        knob.field,
                        best_choice,
                        best,
                    )
                if otr is not None:
                    otr.finish(
                        knob_span,
                        chosen=str(best_choice),
                        changed=best_choice != current_choice,
                    )
            if otr is not None:
                otr.finish(pass_span, improved=improved)
            if not improved:
                break

        # Drop knobs that ended on the workflow's own value.
        assignment = {
            key: value
            for key, value in assignment.items()
            if value != baseline_value[key]
        }
        if otr is not None:
            otr.finish(
                run_span,
                evaluations=evaluations,
                baseline_s=baseline,
                tuned_s=best,
                knobs_changed=len(assignment),
                pruned=pruned,
                screened=screened,
            )
        return TuningResult(
            workflow_name=workflow.name,
            baseline_estimate_s=baseline,
            tuned_estimate_s=best,
            assignment=assignment,
            evaluations=evaluations,
            infeasible=infeasible,
            pruned=pruned,
            wall_time_s=time.perf_counter() - t0,
            trajectory=trajectory,
            sweep=self._runner.report,
        )


def tune_workflow(
    workflow: Workflow,
    cluster: Cluster,
    space: Optional[Sequence[Knob]] = None,
    processes: int = 1,
    prune: bool = True,
) -> Tuple[TuningResult, Workflow]:
    """Convenience: tune and return (result, re-configured workflow)."""
    result = GreedyTuner(cluster, processes=processes, prune=prune).tune(
        workflow, space
    )
    return result, apply_assignment(workflow, result.assignment)
