"""The operations ``repro-dag`` and the HTTP service share, declared once.

One frozen request dataclass per operation: estimate, simulate, sweep,
ensemble and tune.  Each field is declared once with :func:`arg` (parser,
default, choices, help); the CLI builds its options from the declarations
and the service reads its JSON params through the same :func:`parse`.
:func:`run` executes a request and returns the JSON-ready dict the CLI
prints and the service returns.

Parsing is strict: a value that does not parse is a
:class:`~repro.errors.ServiceError` naming the field (HTTP 400, CLI exit
code 2), and integer fields reject bools and non-integral floats.  Range
checks stay in ``Cluster``, ``SkewModel``, ``FailureModel`` and
``EnsembleConfig``, which are built at parse time, before any job is
submitted; a parser adds one only where nothing downstream checks.

The simulator, ensemble and sweep packages are imported on use, so
importing this module (and the service, which does) stays cheap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster, paper_cluster
from repro.core.distributions import Variant
from repro.errors import ReproError, ServiceError
from repro.mapreduce.task import SkewModel


def arg(
    default: Any = MISSING,
    parse: Callable[[Any], Any] = str,
    help: str = "",
    choices: Optional[Tuple[str, ...]] = None,
) -> Any:
    """Declare one request field; no ``default`` makes it required."""
    metadata = {"parse": parse, "help": help, "choices": choices}
    return field(default=default, metadata=metadata)


# -- parsers: a raw JSON or command-line value in, the typed value out ----------


def integer(raw: Any) -> int:
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError("not an integer")
    return int(raw)


def at_least(low: int) -> Callable[[Any], int]:
    """An :func:`integer` parser that rejects values below ``low``."""

    def parse(raw: Any) -> int:
        value = integer(raw)
        if value < low:
            raise ValueError(f"must be >= {low}")
        return value

    return parse


def number(raw: Any) -> float:
    """A finite float: ``inf`` and ``nan`` (which JSON and query strings
    can spell) mean nothing any field could use."""
    if isinstance(raw, bool):
        raise ValueError("not a number")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def pause(raw: Any) -> float:
    """A :func:`number` of seconds that ``time.sleep`` accepts."""
    value = number(raw)
    if value < 0.0:
        raise ValueError("must be >= 0")
    return value


_BOOLEANS = {"1": True, "true": True, "yes": True}
_BOOLEANS.update({"0": False, "false": False, "no": False})


def boolean(raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    value = _BOOLEANS.get(str(raw).strip().lower())
    if value is None:
        raise ValueError("not a boolean")
    return value


def cluster_size(raw: Any) -> Cluster:
    """A worker count, as a cluster of the paper's nodes."""
    return paper_cluster(integer(raw))


def cluster_sizes(raw: Any) -> Tuple[Cluster, ...]:
    """Comma-separated worker counts, or a list of them, in order."""
    if isinstance(raw, str):
        raw = [part for part in raw.split(",") if part.strip()]
    elif not isinstance(raw, (list, tuple)):
        raw = [raw]
    try:
        found = tuple(cluster_size(size) for size in raw)
    except (TypeError, ValueError, ReproError) as exc:
        raise ValueError(f"workers must be cluster sizes: {exc}") from None
    if not found:
        raise ValueError("workers must be at least one cluster size")
    return found


def ascending_sizes(raw: Any) -> Tuple[Cluster, ...]:
    """:func:`cluster_sizes`, sorted and de-duplicated."""
    by_size = {c.workers: c for c in cluster_sizes(raw)}
    return tuple(by_size[w] for w in sorted(by_size))


@functools.lru_cache(maxsize=None)
def _declared(declared: type) -> Tuple[Tuple[str, Callable, bool, Any], ...]:
    """``(name, parser, required, choices)`` of each field :func:`arg`
    declared, read once per class: the service parses every request."""
    return tuple(
        (f.name, f.metadata["parse"], f.default is MISSING, f.metadata["choices"])
        for f in fields(declared)
        if "parse" in f.metadata
    )


def read(
    params: Mapping[str, Any],
    name: str,
    parser: Callable[[Any], Any],
    default: Any = None,
    choices: Optional[Tuple[str, ...]] = None,
) -> Any:
    """``params[name]`` through ``parser``, or ``default`` when it is
    absent or ``None``; a value that does not parse is a ServiceError."""
    raw = params.get(name)
    if raw is None:
        return default
    try:
        if choices is not None and raw not in choices:
            raise ValueError(f"choose from {', '.join(choices)}")
        return parser(raw)
    except (TypeError, ValueError, ReproError) as exc:
        message = f"malformed parameter {name!r}: {raw!r} ({exc})"
        raise ServiceError(message) from None


def parse(
    declared: type,
    params: Mapping[str, Any],
    workflows: Optional[Mapping[str, Any]] = None,
    **given: Any,
) -> Any:
    """``params`` read into ``declared``: each field through :func:`read`,
    an absent one left to its default, and keys ``declared`` does not
    declare ignored.  A :class:`Request`'s workload is looked up in
    ``workflows``; ``given`` fills fields the caller sets itself."""
    values: Dict[str, Any] = {}
    for name, parser, required, choices in _declared(declared):
        if params.get(name) is not None:
            values[name] = read(params, name, parser, choices=choices)
        elif required:
            raise ServiceError(f"missing required parameter {name!r}")
    if issubclass(declared, Request):
        name = values["workload"]
        if name not in (workflows or {}):
            raise ServiceError(
                f"unknown workload {name!r}; `repro-dag list` or GET /workloads "
                "shows the choices"
            )
        values["workflow"] = workflows[name]
    return declared(**values, **given)


def run(request: "Request", pool=None, cancel=None) -> Dict[str, Any]:
    """Execute ``request``: the JSON-ready answer both front ends serve.

    ``pool`` is a borrowed :class:`~repro.service.pool.ResilientPool`
    (without one, each runner owns a serial pool); ``cancel`` is polled
    between chunks.
    """
    head = {"workload": request.workload, "workflow": request.workflow.describe()}
    return dict(head, **request._run(pool, cancel))


def _pick(source: Any, *names: str) -> Dict[str, Any]:
    return {name: getattr(source, name) for name in names}


def _states(states: Sequence[Any]) -> Dict[str, Any]:
    """A state count and one ``[index, start, end, running]`` row per state."""
    rows = []
    for s in states:
        running = ", ".join(sorted(f"{j}/{k.value}" for j, k in s.running))
        rows.append([s.index, s.t_start, s.t_end, running])
    return {"states": len(rows), "state_rows": rows}


@dataclass(frozen=True)
class Request:
    """What every operation runs on: one named workload.  A request's
    ``workers`` field holds its worker counts as paper-node clusters."""

    workload: str = arg(help="named workload (see `list`)")
    #: The catalogue's workflow for ``workload``, resolved by :func:`parse`.
    workflow: Any = field(default=None, repr=False)


@dataclass(frozen=True)
class EstimateRequest(Request):
    """A BOE + Algorithm 1 estimate on one cluster."""

    variant: Variant = arg(
        Variant.MEAN, Variant, "estimator variant (default mean)",
        choices=tuple(v.value for v in Variant),
    )
    workers: Cluster = arg(paper_cluster(), cluster_size, "cluster size (default 10)")

    def _run(self, pool, cancel) -> Dict[str, Any]:
        from repro.core.estimator import estimate_workflow

        estimate = estimate_workflow(self.workflow, self.workers, variant=self.variant)
        return dict(
            _states(estimate.states),
            total_time_s=estimate.total_time,
            variant=estimate.variant,
            overhead_ms=estimate.model_overhead_s * 1000.0,
        )


@dataclass(frozen=True)
class SimulateRequest(Request):
    """One ground-truth simulation on the paper's cluster."""

    skew: float = arg(0.2, number, "lognormal skew sigma (default 0.2)")

    def simulate(self):
        """One simulation on the paper's cluster."""
        from repro.simulator.engine import SimulationConfig, simulate

        config = SimulationConfig(skew=SkewModel(sigma=self.skew))
        return simulate(self.workflow, paper_cluster(), config)

    def _run(self, pool, cancel) -> Dict[str, Any]:
        result = self.simulate()
        return dict(
            _states(result.states), makespan_s=result.makespan, tasks=len(result.tasks)
        )


@dataclass(frozen=True)
class SweepRequest(Request):
    """Estimates over several cluster sizes, smallest first."""

    workers: Tuple[Cluster, ...] = arg(
        ascending_sizes("4,6,8,10,14,20,28"), ascending_sizes,
        "comma-separated cluster sizes (default 4,6,8,10,14,20,28)",
    )

    def _run(self, pool, cancel) -> Dict[str, Any]:
        from repro.sweep.runner import Candidate, SweepRunner

        candidates = [
            Candidate(self.workflow, cluster=c, label=f"{c.workers} workers")
            for c in self.workers
        ]
        with SweepRunner(self.workers[0], pool=pool) as runner:
            results = runner.evaluate(candidates, cancel=cancel)
        rows = [
            dict(workers=c.workers, **_pick(r, "ok", "total_time_s", "states", "error"))
            for c, r in zip(self.workers, results)
        ]
        return {
            "results": rows,
            # Wall time, kept apart so the rows stay deterministic.
            "overhead_ms": [r.overhead_s * 1000.0 for r in results],
            "report": runner.report.describe(),
            "pool_used": runner.report.pool_used,
        }


@dataclass(frozen=True)
class EnsembleRequest(Request):
    """Monte Carlo replications of the simulator on one cluster size, or
    with ``paired`` a common-random-number comparison of two."""

    replications: int = arg(32, integer, "max replications to run (default 32)")
    min_replications: int = arg(
        8, integer, "replications before early stopping may trigger (default 8)"
    )
    target_quantile: float = arg(
        0.95, number, "quantile whose CI drives early stopping (default 0.95)"
    )
    ci_tol: Optional[float] = arg(
        None, number,
        "stop once the target CI half-width is within this fraction of the "
        "estimate (default: run full budget)",
    )
    seed: int = arg(42, at_least(0), "base seed; replication i derives from (seed, i)")
    skew: float = arg(0.3, number, "lognormal skew sigma (default 0.3)")
    failure_prob: float = arg(
        0.05, number, "per-attempt failure probability (default 0.05)"
    )
    # EnsembleConfig allows 0, but the answer attributes the first
    # exemplar's bottlenecks, so one is always kept.
    exemplars: int = arg(
        1, at_least(1), "full traces to keep for drill-down (default 1)"
    )
    workers: Tuple[Cluster, ...] = arg(
        (paper_cluster(),), cluster_sizes,
        "cluster size (default 10), or two sizes A,B when paired",
    )
    paired: bool = arg(
        False, boolean, "compare two cluster sizes under common random numbers"
    )

    #: The simulation and ensemble configs the fields above describe,
    #: built once at parse time so their own range checks fire before
    #: any job is submitted.
    simulation: Any = field(init=False, repr=False, compare=False)
    ensemble: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.workers) != (2 if self.paired else 1):
            raise ServiceError(
                "paired compares exactly two cluster sizes; pass workers A,B"
                if self.paired
                else "ensemble runs one cluster size (or two when paired)"
            )
        from repro.ensemble.engine import EnsembleConfig
        from repro.simulator import FailureModel, SimulationConfig

        simulation = SimulationConfig(
            skew=SkewModel(sigma=self.skew),
            failures=FailureModel(probability=self.failure_prob),
        )
        # A borrowed pool supersedes the config's process count.
        ensemble = EnsembleConfig(
            replications=self.replications,
            min_replications=min(self.min_replications, self.replications),
            base_seed=self.seed,
            target_quantile=self.target_quantile,
            ci_tol=self.ci_tol,
            exemplars=self.exemplars,
        )
        object.__setattr__(self, "simulation", simulation)
        object.__setattr__(self, "ensemble", ensemble)

    def _run(self, pool, cancel) -> Dict[str, Any]:
        if self.paired:
            from repro.ensemble.compare import compare_paired

            a, b = self.workers
            comparison = compare_paired(
                self.workflow, self.workflow, a, cluster_b=b,
                config=self.simulation, ensemble=self.ensemble,
                labels=(f"{a.workers} workers", f"{b.workers} workers"),
                pool=pool, cancel=cancel,
            )
            picked = _pick(
                comparison, "label_a", "label_b", "replications", "mean_a", "mean_b",
                "mean_delta", "paired_halfwidth", "unpaired_halfwidth",
                "variance_reduction", "aborted", "pool_used",
            )
            return dict(picked, ci=list(comparison.ci), summary=comparison.describe())
        from repro.ensemble.engine import EnsembleRunner
        from repro.obs.attribution import attribute_bottlenecks

        (cluster,) = self.workers
        result = EnsembleRunner(
            cluster, config=self.simulation, ensemble=self.ensemble, pool=pool
        ).run(self.workflow, cancel=cancel)
        picked = _pick(
            result, "replications", "max_replications", "early_stopped", "base_seed",
            "makespan", "target_quantile", "ci_halfwidth", "ci_rel_halfwidth",
            "failed_attempts", "aborted", "pool_used",
        )
        return dict(
            picked,
            workers=cluster.workers,
            quantiles={str(q): v for q, v in result.quantiles.items()},
            ci=list(result.ci),
            summary=result.describe(),
            # The "why is it slow" rows ride along with the "how slow".
            bottlenecks=(
                attribute_bottlenecks(self.workflow, cluster, result.exemplars[0])
                .to_rows()
                if result.exemplars  # none when the exemplar runs aborted
                else []
            ),
        )


@dataclass(frozen=True)
class TuneRequest(Request):
    """Model-driven configuration tuning on the paper's cluster."""

    verify: bool = arg(False, boolean, "also verify the tuned config on the simulator")
    no_prune: bool = arg(
        False, boolean,
        "disable the analytic bound screen and estimate every candidate "
        "(the exact, slower sweep)",
    )

    def _run(self, pool, cancel) -> Dict[str, Any]:
        from repro.sweep.runner import SweepRunner
        from repro.tuning import GreedyTuner, apply_assignment

        cluster = paper_cluster()
        with SweepRunner(cluster, pool=pool) as runner:
            tuner = GreedyTuner(cluster, runner=runner, prune=not self.no_prune)
            result = tuner.tune(self.workflow)
        payload = dict(
            _pick(
                result, "baseline_estimate_s", "tuned_estimate_s", "improvement",
                "evaluations", "infeasible", "pruned",
            ),
            wall_time_ms=result.wall_time_s * 1000.0,
            sweep=result.sweep.describe() if result.sweep is not None else None,
            assignment=[
                [job, name, str(value)]
                for (job, name), value in sorted(result.assignment.items())
            ],
        )
        if self.verify and result.assignment:
            from repro.simulator.engine import simulate

            tuned = apply_assignment(self.workflow, result.assignment)
            payload["verified_s"] = [
                simulate(self.workflow, cluster).makespan,
                simulate(tuned, cluster).makespan,
            ]
        return payload
