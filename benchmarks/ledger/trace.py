"""Per-layer attribution for the ledger's traced pass.

The benchmark records its own spans: wrappers installed around the program's
layer entry points (:data:`ENTRY_POINTS`) open spans on a *private*
:class:`repro.obs.tracer.Tracer`, so the program's own ``trace_span`` hooks
stay off.  A module-level function is replaced in every ``repro`` module
that imported it, a method on its class.  A wrapper only records in the
process that installed it: forked pool workers inherit the wrappers but run
the original code, so work inside pool workers is attributed from the
program's counters (``engine.phase_time{phase}``, ``sim.node_solves``,
``pool.*``), which the runners ship home to the metrics registry.

:func:`fold` turns the spans into exclusive self time per layer: a span's
duration minus the part of it its child spans cover.  The benchmark's root
span around each timed operation folds into ``other``, the time no wrapped
layer claimed.  Spans stay in memory and are written as one Chrome/Perfetto
JSON file per workload when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import multiprocessing
import os
import resource
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import get_metrics, snapshot_delta
from repro.obs.tracer import Span, Tracer

from benchmarks.ledger.stats import quantile

#: Name of the benchmark's root span around one timed operation.
ROOT = "other"

#: (defining module, attribute, layer, hook) per wrapped entry point; the
#: hook names the ``_before_*`` / ``_after_*`` methods that count its work.
ENTRY_POINTS = (
    ("repro.core.estimator", "DagEstimator.estimate", "core.estimator", "estimate"),
    ("repro.core.boe", "BOEModel.solve_batch", "core.boe", "solve_batch"),
    ("repro.core.estimator", "BOESource.distribution_batch", "core.boe", None),
    ("repro.core.bounds", "BoundsModel.bounds_batch", "core.bounds", "bounds_batch"),
    ("repro.sweep.runner", "SweepRunner.evaluate", "sweep.runner", "evaluate"),
    ("repro.tuning.tuner", "GreedyTuner.tune", "tuning.tuner", "tune"),
    ("repro.simulator.engine", "simulate", "simulator", None),
    ("repro.simulator.sharing", "solve_max_min_classes", "simulator.sharing", "solve"),
    ("repro.scheduler.yarn", "YarnPlacer.assign_queues_arrays", "scheduler.yarn", "grant"),
    ("repro.ensemble.engine", "run_ensemble", "ensemble.engine", "ensemble"),
    ("repro.service.server", "DagService.handle", "service.server", "handle"),
    ("repro.service.estimates", "EstimateService.estimate", "service.estimates", "serve"),
    ("repro.service.scheduler", "JobScheduler.submit", "service.scheduler", "submit"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in ENTRY_POINTS))

#: Every per-layer metric the traced pass reports, with its unit.  Counts
#: and seconds are per timed operation ("/op"); ratios and means are not.
PER_LAYER = (
    ("core.boe.calls", "count/op"),
    ("core.boe.self_s", "s/op"),
    ("core.boe.cache_hit_ratio", "ratio"),
    ("core.estimator.calls", "count/op"),
    ("core.estimator.self_s", "s/op"),
    ("core.estimator.states", "count"),
    ("core.incremental.prefix_reuse", "ratio"),
    ("core.incremental.resumes", "count/op"),
    ("core.bounds.self_s", "s/op"),
    ("core.bounds.screened", "count/op"),
    ("core.bounds.prune_ratio", "ratio"),
    ("sweep.runner.self_s", "s/op"),
    ("sweep.runner.candidates", "count/op"),
    ("sweep.runner.memo_hit_ratio", "ratio"),
    ("tuning.tuner.self_s", "s/op"),
    ("tuning.tuner.evaluations", "count/op"),
    ("simulator.self_s", "s/op"),
    ("simulator.events", "count/op"),
    ("simulator.node_solves", "count/op"),
    ("simulator.cohort_mean", "count"),
    ("simulator.phase_s.pop", "s/op"),
    ("simulator.phase_s.solve", "s/op"),
    ("simulator.phase_s.launch", "s/op"),
    ("simulator.phase_s.bookkeep", "s/op"),
    ("simulator.sharing.calls", "count/op"),
    ("simulator.sharing.self_s", "s/op"),
    ("scheduler.yarn.grants", "count/op"),
    ("scheduler.yarn.self_s", "s/op"),
    ("ensemble.engine.self_s", "s/op"),
    ("ensemble.engine.replications", "count/op"),
    ("service.pool.chunks", "count/op"),
    ("service.pool.busy_frac", "ratio"),
    ("service.pool.serial_fallbacks", "count/op"),
    ("service.pool.shm_bytes", "bytes/op"),
    ("service.server.self_s", "s/op"),
    ("service.server.errors", "count/op"),
    ("service.estimates.self_s", "s/op"),
    ("service.estimates.hit_ratio", "ratio"),
    ("service.estimates.coalesced_ratio", "ratio"),
    ("service.estimates.batch_mean", "count"),
    ("service.estimates.compute_s", "s/op"),
    ("service.scheduler.self_s", "s/op"),
    ("service.scheduler.queue_wait_p50_ms", "ms"),
    ("service.scheduler.run_s", "s"),
    ("service.scheduler.jobs", "count/op"),
    ("gen.lag_p99_ms.low", "ms"),
    ("gen.lag_p99_ms.high", "ms"),
    ("gen.latency_p50_ms.low", "ms"),
    ("gen.latency_p90_ms.low", "ms"),
    ("gen.latency_p90_ms.high", "ms"),
    ("gen.sweep_p50_ms.high", "ms"),
    ("other.self_s", "s/op"),
    ("host.probe_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
)

#: Largest share by which the folded self times may miss the traced wall.
FOLD_TOLERANCE = 0.02


def children_cpu_s() -> float:
    """CPU seconds of this process's children: reaped ones from
    ``RUSAGE_CHILDREN``, live ones (pool workers) from ``/proc``."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = usage.ru_utime + usage.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick  # utime, stime
    return total


def _covered(children: List[Span], parent: Span) -> float:
    """Length of the union of ``children``'s intervals within ``parent``."""
    total = 0.0
    end = parent.t_start
    for start, stop in sorted((c.t_start, c.t_end) for c in children):
        start = max(start, end)
        stop = min(stop, parent.t_end)
        if stop > start:
            total += stop - start
            end = stop
    return total


def fold(spans: List[Span]) -> Tuple[Dict[str, float], float]:
    """Self seconds per span name (= layer), and the traced wall: the
    summed duration of root spans, whose parent was not recorded.

    The self times sum to the traced wall exactly when every child lies
    inside its parent and no two siblings overlap; a difference means a
    span was counted twice.
    """
    by_id = {s.span_id: s for s in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id in by_id:
            children[span.parent_id].append(span)
    self_s: Dict[str, float] = defaultdict(float)
    wall = 0.0
    for span in spans:
        self_s[span.name] += span.wall_s - _covered(children[span.span_id], span)
        if span.parent_id not in by_id:
            wall += span.wall_s
    return dict(self_s), wall


class LayerTrace:
    """Span wrappers, per-call counts and the per-layer report of one
    traced run."""

    def __init__(self) -> None:
        self.tracer = Tracer(enabled=True, max_spans=5_000_000)
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self.counts: Dict[str, float] = defaultdict(float)
        self.queue_waits: List[float] = []

    def root(self) -> Span:
        """The span around one timed operation (folds into ``other``)."""
        return self.tracer.span(ROOT)

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer, hook in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                setattr(owner, method, self._wrap(getattr(owner, method), layer, hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, layer, hook)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

    def _wrap(self, fn: Callable, layer: str, hook: Optional[str]) -> Callable:
        tracer = self.tracer
        pid = self._pid
        before = getattr(self, f"_before_{hook}", None)
        after = getattr(self, f"_after_{hook}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            state = None
            if before is not None:
                args, state = before(args)
            span = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(span)
            if after is not None:
                after(args, result, span, state)
            return result

        return traced

    def _add(self, **amounts: float) -> None:
        with self._lock:
            for name, amount in amounts.items():
                self.counts[name] += amount

    # -- per-call counts -----------------------------------------------------

    def _after_estimate(self, args, result, span, state) -> None:
        self._add(estimator_calls=1, estimator_states=len(result.states))

    def _before_solve_batch(self, args):
        stats = args[0].cache_stats
        return args, (stats.hits, stats.misses)

    def _after_solve_batch(self, args, result, span, state) -> None:
        stats = args[0].cache_stats
        self._add(boe_calls=1, boe_hits=stats.hits - state[0], boe_misses=stats.misses - state[1])

    def _after_bounds_batch(self, args, result, span, state) -> None:
        self._add(bounds_screened=len(args[1]))

    @staticmethod
    def _runner_state(runner) -> List[float]:
        report = runner.report
        memo = getattr(getattr(runner, "_context", None), "_memo_stats", None)
        return [
            report.candidates, report.pruned, report.reuse.hits,
            report.reuse.states_reused, report.reuse.states_computed,
            getattr(memo, "hits", 0), getattr(memo, "misses", 0),
        ]

    def _before_evaluate(self, args):
        return args, self._runner_state(args[0])

    def _after_evaluate(self, args, result, span, state) -> None:
        delta = [b - a for a, b in zip(state, self._runner_state(args[0]))]
        self._add(**dict(zip(
            ("candidates", "pruned", "resumes", "states_reused", "states_computed",
             "memo_hits", "memo_misses"),
            delta,
        )))
        if threading.current_thread().name == "estimate-service":
            self._add(service_compute_s=span.wall_s)

    def _after_tune(self, args, result, span, state) -> None:
        self._add(evaluations=result.evaluations)

    def _after_solve(self, args, result, span, state) -> None:
        self._add(sharing_calls=1)

    def _after_grant(self, args, result, span, state) -> None:
        self._add(grants=len(result[1]))

    def _after_ensemble(self, args, result, span, state) -> None:
        self._add(replications=result.replications)

    def _after_handle(self, args, result, span, state) -> None:
        self._add(server_errors=result[0] >= 400)

    def _after_serve(self, args, result, span, state) -> None:
        self._add(**{f"served_{result['served']}": 1})

    def _before_submit(self, args):
        """Swap the job's work for a copy that records its queue wait and
        runs inside a ``service.scheduler`` span on the job thread."""
        scheduler, spec = args
        submitted = time.perf_counter()
        work = spec.run

        def run(cancel):
            started = time.perf_counter()
            with self._lock:
                self.queue_waits.append(started - submitted)
            span = self.tracer.begin("service.scheduler")
            try:
                return work(cancel)
            finally:
                self.tracer.finish(span)
                self._add(jobs=1, job_run_s=time.perf_counter() - started)

        return (scheduler, dataclasses.replace(spec, run=run)), None

    # -- the run ---------------------------------------------------------------

    def start(self) -> None:
        """Forget set-up spans and counts; mark the counters the report
        takes its deltas from."""
        self.tracer.clear()
        self.counts.clear()
        self.queue_waits.clear()
        self._metrics0 = get_metrics().snapshot()
        self._cpu0 = children_cpu_s()
        self._t0 = time.perf_counter()

    def report(self, ops: int, processes: int) -> Tuple[Dict[str, float], List[str]]:
        """Per-layer metrics since :meth:`start`, and fold problems."""
        wall = time.perf_counter() - self._t0
        busy = (children_cpu_s() - self._cpu0) / (processes * wall) if processes else 0.0
        delta = snapshot_delta(get_metrics().snapshot(), self._metrics0)
        self_s, traced_wall = fold(self.tracer.snapshot())
        problems = []
        folded = sum(self_s.values())
        if abs(folded - traced_wall) > FOLD_TOLERANCE * traced_wall:
            problems.append(f"folded self times {folded:.4f}s != traced wall {traced_wall:.4f}s")
        c = self.counts
        per = 1.0 / max(1, ops)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def counter(family: str, **labels: str) -> float:
            return sum(
                image.get("value", 0)
                for key, image in delta.items()
                if key.split("{")[0] == family
                and all(image.get("labels", {}).get(k) == v for k, v in labels.items())
            )

        def histogram(key: str, field: str) -> float:
            return float(delta.get(key, {}).get(field) or 0.0)

        served = {k: c[f"served_{k}"] for k in ("cache", "coalesced", "computed")}
        requests = sum(served.values())
        metrics = {f"{layer}.self_s": self_s.get(layer, 0.0) * per for layer in LAYERS}
        metrics.update({
            "core.boe.calls": c["boe_calls"] * per,
            "core.boe.cache_hit_ratio": ratio(c["boe_hits"], c["boe_hits"] + c["boe_misses"]),
            "core.estimator.calls": c["estimator_calls"] * per,
            "core.estimator.states": ratio(c["estimator_states"], c["estimator_calls"]),
            "core.incremental.prefix_reuse": ratio(
                c["states_reused"], c["states_reused"] + c["states_computed"]
            ),
            "core.incremental.resumes": c["resumes"] * per,
            "core.bounds.screened": c["bounds_screened"] * per,
            "core.bounds.prune_ratio": ratio(c["pruned"], c["bounds_screened"]),
            "sweep.runner.candidates": c["candidates"] * per,
            "sweep.runner.memo_hit_ratio": ratio(c["memo_hits"], c["memo_hits"] + c["memo_misses"]),
            "tuning.tuner.evaluations": c["evaluations"] * per,
            "simulator.events": counter("sim.events") * per,
            "simulator.node_solves": counter("sim.node_solves") * per,
            "simulator.cohort_mean": ratio(
                histogram("engine.cohort_size", "sum"), histogram("engine.cohort_size", "count")
            ),
            "simulator.sharing.calls": c["sharing_calls"] * per,
            "scheduler.yarn.grants": c["grants"] * per,
            "ensemble.engine.replications": c["replications"] * per,
            "service.pool.chunks": counter("pool.chunks", path="pooled") * per,
            "service.pool.busy_frac": busy,
            "service.pool.serial_fallbacks": (
                counter("pool.chunks", path="serial") + counter("pool.serial_fallback")
            ) * per,
            "service.pool.shm_bytes": counter("pool.shm_bytes") * per,
            "service.server.errors": c["server_errors"] * per,
            "service.estimates.hit_ratio": ratio(served["cache"], requests),
            "service.estimates.coalesced_ratio": ratio(served["coalesced"], requests),
            "service.estimates.batch_mean": ratio(served["computed"], counter("service.batches")),
            "service.estimates.compute_s": c["service_compute_s"] * per,
            "service.scheduler.queue_wait_p50_ms": 1e3 * quantile(self.queue_waits, 0.5),
            "service.scheduler.run_s": ratio(c["job_run_s"], c["jobs"]),
            "service.scheduler.jobs": c["jobs"] * per,
            "other.self_s": self_s.get(ROOT, 0.0) * per,
        })
        for phase in ("pop", "solve", "launch", "bookkeep"):
            metrics[f"simulator.phase_s.{phase}"] = (
                histogram(f"engine.phase_time{{phase={phase}}}", "sum") * per
            )
        return metrics, problems

    def export(self, path: Path, workload: str) -> None:
        """Write the run's spans as one Chrome/Perfetto trace file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        events = self.tracer.to_events(pid=1, process_name=f"ledger {workload}")
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
