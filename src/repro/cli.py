"""Command-line interface: ``repro-dag``.

Sub-commands mirror the library's main entry points:

* ``repro-dag estimate`` — estimate a named workload's execution plan;
* ``repro-dag simulate`` — run the ground-truth simulator on it;
* ``repro-dag compare``  — both, with the accuracy the paper reports;
* ``repro-dag timeline`` — ASCII Gantt + resource utilisation of a run;
* ``repro-dag trace``    — simulate, export a Perfetto/Chrome trace and
  print the per-state bottleneck attribution report;
* ``repro-dag tune``     — model-driven configuration auto-tuning;
* ``repro-dag sweep``    — batched what-if sweep over cluster sizes;
* ``repro-dag ensemble`` — Monte Carlo replication ensemble of the
  simulator: makespan quantiles with confidence intervals, adaptive early
  stopping, and ``--paired`` common-random-number comparisons of two
  cluster sizes;
* ``repro-dag fig4 | fig6 | table1 | table2 | table3 | overhead`` — print
  the corresponding reproduced table/figure;
* ``repro-dag serve``    — run the asyncio HTTP/JSON prediction service
  (estimate / sweep / ensemble / metrics / trace endpoints, one shared
  crash-tolerant process pool — see ``docs/service.md``);
* ``repro-dag call``     — one request against a running service
  (``--format table|prom`` renders metrics payloads; ``call trace <id>``
  fetches one request's flame);
* ``repro-dag top``      — live per-endpoint SLO view (``GET /status``)
  of a running service;
* ``repro-dag list``     — show the available named workloads.

Named workloads are the Table III identifiers (``WC-Q5``, ``TS-Q21``,
``WC-TS3R``, ...), plus ``weblog`` (the Fig. 1 DAG), ``tpch`` (the TPC-H Q5
join tree) and the Table I micro benchmarks (``wc``, ``ts``, ``ts2r``,
``ts3r``).

Observability: every sub-command accepts ``--log-level`` (stdlib logging to
stderr) and ``--metrics`` (print the process metrics registry after the
command); ``REPRO_TRACE=1`` arms the span tracer for any invocation.  See
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional

from repro.analysis.accuracy import accuracy
from repro.analysis.tables import percentage, render_series, render_table
from repro.cluster.cluster import Cluster, paper_cluster
from repro.core.distributions import Variant
from repro.core.estimator import estimate_workflow
from repro.dag.workflow import Workflow
from repro.errors import ReproError
from repro.mapreduce.task import SkewModel
from repro.units import format_seconds


def _named_workflows(scale: float) -> Dict[str, Workflow]:
    from repro.workloads import named_workflows

    return named_workflows(scale)


def _resolve(name: str, scale: float) -> Workflow:
    workflows = _named_workflows(scale)
    if name not in workflows:
        raise ReproError(
            f"unknown workload {name!r}; run `repro-dag list` for choices"
        )
    return workflows[name]


def _simulate(workflow: Workflow, cluster: Cluster, skew: float):
    """One simulation at skew ``skew``.  The simulator is imported here, so
    the commands that never simulate (``estimate`` first) do not load it."""
    from repro.simulator.engine import SimulationConfig, simulate

    return simulate(workflow, cluster, SimulationConfig(skew=SkewModel(sigma=skew)))


def _cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(_named_workflows(args.scale)):
        print(name)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    cluster = paper_cluster()
    workflow = _resolve(args.workload, args.scale)
    estimate = estimate_workflow(workflow, cluster, variant=Variant(args.variant))
    print(f"workflow : {workflow.describe()}")
    print(f"estimate : {format_seconds(estimate.total_time)} "
          f"({estimate.total_time:.1f} s, variant={estimate.variant})")
    print(f"overhead : {estimate.model_overhead_s * 1000:.1f} ms")
    rows = [
        [
            s.index,
            f"{s.t_start:.1f}",
            f"{s.t_end:.1f}",
            ", ".join(sorted(f"{j}/{k.value}" for j, k in s.running)),
        ]
        for s in estimate.states
    ]
    print(render_table(["state", "start", "end", "running"], rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cluster = paper_cluster()
    workflow = _resolve(args.workload, args.scale)
    result = _simulate(workflow, cluster, args.skew)
    print(f"workflow : {workflow.describe()}")
    print(f"makespan : {format_seconds(result.makespan)} ({result.makespan:.1f} s)")
    print(f"tasks    : {len(result.tasks)}, states: {len(result.states)}")
    rows = [
        [
            s.index,
            f"{s.t_start:.1f}",
            f"{s.t_end:.1f}",
            ", ".join(sorted(f"{j}/{k.value}" for j, k in s.running)),
        ]
        for s in result.states
    ]
    print(render_table(["state", "start", "end", "running"], rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cluster = paper_cluster()
    workflow = _resolve(args.workload, args.scale)
    result = _simulate(workflow, cluster, args.skew)
    estimate = estimate_workflow(workflow, cluster, variant=Variant(args.variant))
    acc = accuracy(estimate.total_time, result.makespan)
    print(f"workflow  : {workflow.describe()}")
    print(f"simulated : {result.makespan:.1f} s")
    print(f"estimated : {estimate.total_time:.1f} s ({estimate.variant})")
    print(f"accuracy  : {percentage(acc)}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import render_gantt, render_utilisation

    cluster = paper_cluster()
    workflow = _resolve(args.workload, args.scale)
    result = _simulate(workflow, cluster, args.skew)
    print(f"workflow : {workflow.describe()}")
    print(f"makespan : {result.makespan:.1f}s\n")
    print(render_gantt(result, width=args.width))
    print("\nresource utilisation (0-9 tenths, * = saturated):")
    print(render_utilisation(result, workflow.job_map, cluster, buckets=args.width))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        attribute_bottlenecks,
        enable_tracing,
        get_metrics,
        get_tracer,
        to_chrome_trace,
        write_trace,
    )

    # Arm both surfaces before any instrumented object is built — hooks
    # resolve at construction time.
    enable_tracing()
    get_metrics().enable()
    cluster = paper_cluster()
    workflow = _resolve(args.workload, args.scale)
    result = _simulate(workflow, cluster, args.skew)
    report = attribute_bottlenecks(workflow, cluster, result)
    payload = to_chrome_trace(
        result,
        tracer=get_tracer(),
        metrics=get_metrics().snapshot(),
        attribution=report.to_rows(),
    )
    write_trace(args.out, payload)
    print(f"workflow : {workflow.describe()}")
    print(f"makespan : {format_seconds(result.makespan)} ({result.makespan:.1f} s), "
          f"tasks: {len(result.tasks)}, states: {len(result.states)}")
    print(f"trace    : {args.out} ({len(payload['traceEvents'])} events) — "
          "load it at https://ui.perfetto.dev or chrome://tracing")
    print()
    print(report.render())
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tuning import tune_workflow

    cluster = paper_cluster()
    workflow = _resolve(args.workload, args.scale)
    result, tuned = tune_workflow(
        workflow,
        cluster,
        processes=args.processes,
        prune=not args.no_prune,
    )
    print(f"workflow          : {workflow.describe()}")
    print(f"baseline estimate : {result.baseline_estimate_s:.1f}s")
    print(f"tuned estimate    : {result.tuned_estimate_s:.1f}s "
          f"({result.improvement:.2f}x, {result.evaluations} evaluations, "
          f"{result.infeasible} infeasible, {result.pruned} pruned, "
          f"{result.wall_time_s * 1000:.0f} ms)")
    if result.sweep is not None:
        print(f"sweep             : {result.sweep.describe()}")
    if not result.assignment:
        print("no change recommended — the configuration is already good")
        return 0
    print("recommended changes:")
    for (job, fieldname), value in sorted(result.assignment.items()):
        print(f"  {job}: {fieldname} -> {value}")
    if args.verify:
        from repro.simulator.engine import simulate

        before = simulate(workflow, cluster).makespan
        after = simulate(tuned, cluster).makespan
        print(f"verified on simulator: {before:.1f}s -> {after:.1f}s "
              f"({before / after:.2f}x)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    print(f"repro-dag service on http://{args.host}:{args.port} "
          f"(scale {args.scale}, {args.processes} pool processes, "
          f"{args.job_workers} job workers) — Ctrl-C to stop")
    serve(
        host=args.host,
        port=args.port,
        scale=args.scale,
        processes=args.processes,
        job_workers=args.job_workers,
    )
    return 0


def _cmd_call(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient

    if args.data is not None:
        try:
            params = json.loads(args.data)
        except json.JSONDecodeError as exc:
            raise ReproError(f"--data must be a JSON object: {exc}")
        if not isinstance(params, dict):
            raise ReproError("--data must be a JSON object")
    else:
        params = {}
    path = "/" + args.path.lstrip("/")
    if args.arg is not None:
        # `repro-dag call trace <id>` / `call jobs <id>` convenience.
        path = path.rstrip("/") + "/" + args.arg
    method = args.method or ("POST" if args.data is not None else "GET")
    client = ServiceClient(args.url)
    payload = client.request(method.upper(), path, params)
    if args.format == "table":
        from repro.obs import render_snapshot

        if "metrics" not in payload:
            raise ReproError(
                "--format table renders a metrics payload; call /metrics"
            )
        rendered = render_snapshot(payload["metrics"])
    elif args.format == "prom":
        from repro.obs import to_prometheus

        if "text" in payload:  # server already rendered (?format=prom)
            rendered = str(payload["text"]).rstrip("\n")
        elif "metrics" in payload:
            rendered = to_prometheus(payload["metrics"]).rstrip("\n")
        else:
            raise ReproError(
                "--format prom renders a metrics payload; call /metrics"
            )
    elif "text" in payload and "content_type" in payload:
        # A text response (e.g. /metrics?format=prom) passes through raw.
        rendered = str(payload["text"]).rstrip("\n")
    else:
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {args.out}")
    else:
        print(rendered)
    if client.last_trace_id:
        print(f"trace id : {client.last_trace_id}", file=sys.stderr)
    return 0


def _render_status(status: Dict) -> str:
    slo = status.get("slo", {})
    pool = status.get("pool", {})
    rows = [
        [
            endpoint,
            stats["count"],
            stats["errors"],
            percentage(stats["error_rate"]) if stats["count"] else "-",
            f"{stats['p50'] * 1000:.1f}",
            f"{stats['p95'] * 1000:.1f}",
            f"{stats['p99'] * 1000:.1f}",
            f"{stats['max'] * 1000:.1f}",
        ]
        for endpoint, stats in sorted(slo.get("endpoints", {}).items())
    ]
    header = (
        f"uptime {status.get('uptime_s', 0.0):.0f}s — "
        f"window {slo.get('window_s', 0.0):.0f}s — "
        f"pool: {pool.get('processes', '?')} processes"
        f"{' BROKEN' if pool.get('broken') else ''}"
    )
    if not rows:
        return header + "\nno requests in the window yet"
    return header + "\n" + render_table(
        ["endpoint", "n", "err", "err%", "p50 ms", "p95 ms", "p99 ms", "max ms"],
        rows,
        title="service SLO (sliding window)",
    )


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    iterations = 1 if args.once else args.iterations
    polls = 0
    while True:
        print(_render_status(client.status()))
        polls += 1
        if iterations and polls >= iterations:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0
        print()


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.experiments.fig4 import run_fig4

    rows = run_fig4()
    print(
        render_table(
            ["parallelism", "duration (s)", "bottleneck", "p_disk", "p_net", "p_cpu"],
            [
                [
                    r.delta,
                    f"{r.duration_s:.0f}",
                    r.bottleneck.value,
                    f"{r.utilisation.get('disk', 0):.2f}",
                    f"{r.utilisation.get('network', 0):.2f}",
                    f"{r.utilisation.get('cpu', 0):.2f}",
                ]
                for r in rows
            ],
            title="Fig. 4 — BOE worked example",
        )
    )
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments.fig6 import run_fig6

    panels = run_fig6(args.workload_micro)
    for label, panel in panels.items():
        series = {
            "measured": [f"{p.measured_s:.1f}" for p in panel.points],
            "BOE": [f"{p.boe_s:.1f}" for p in panel.points],
            "baseline": [f"{p.baseline_s:.1f}" for p in panel.points],
        }
        print(
            render_series(
                "delta/node",
                [p.delta_per_node for p in panel.points],
                series,
                title=(
                    f"Fig. 6 {args.workload_micro.upper()} {label}: "
                    f"BOE acc {percentage(panel.boe_mean_accuracy)}, "
                    f"baseline {percentage(panel.baseline_mean_accuracy)}"
                ),
            )
        )
        print()
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import run_table1

    rows = run_table1()
    print(
        render_table(
            ["workload", "C", "R", "expected", "identified", "match"],
            [
                [
                    r.name,
                    "Y" if r.compressed else "N",
                    ",".join(str(x) for x in r.replicas),
                    ",".join(x.value for x in r.expected) or "-",
                    ",".join(x.value for x in r.identified),
                    "yes" if r.matches else "NO",
                ]
                for r in rows
            ],
            title="Table I — workloads and identified bottlenecks",
        )
    )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.table2 import average_accuracy, run_table2

    cells = run_table2()
    print(
        render_table(
            ["DAG", "state", "job", "stage", "measured", "BOE", "acc", "BOE-refined", "acc"],
            [
                [
                    c.dag,
                    f"s{c.state_index}",
                    c.job,
                    c.kind.value,
                    f"{c.measured_s:.1f}",
                    f"{c.plain_s:.1f}",
                    percentage(c.plain_accuracy),
                    f"{c.refined_s:.1f}",
                    percentage(c.refined_accuracy),
                ]
                for c in cells
            ],
            title="Table II — task-level accuracy for parallel jobs",
        )
    )
    for dag in ("WC+TS", "WC+TS3R"):
        print(
            f"{dag}: avg plain {percentage(average_accuracy(cells, dag, refined=False))}, "
            f"avg refined {percentage(average_accuracy(cells, dag))}"
        )
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments.table3 import (
        VARIANTS,
        VARIANT_LABELS,
        run_table3,
        summarise_variant,
    )

    names = args.names.split(",") if args.names else None
    rows = run_table3(names=names, scale=args.scale)
    print(
        render_table(
            ["workflow", "simulated", *(VARIANT_LABELS[v] for v in VARIANTS)],
            [
                [
                    r.workflow,
                    f"{r.simulated_s:.1f}",
                    *(percentage(r.accuracy(v)) for v in VARIANTS),
                ]
                for r in rows
            ],
            title="Table III — DAG estimation accuracy",
        )
    )
    for v in VARIANTS:
        s = summarise_variant(rows, v)
        print(
            f"{VARIANT_LABELS[v]}: mean {percentage(s['mean'])}, "
            f"median {percentage(s['median'])}, min {percentage(s['min'])}"
        )
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.experiments.overhead import run_overhead
    from repro.sweep import SweepRunner

    names = [n for n in args.names.split(",") if n] or None
    runner = SweepRunner(paper_cluster(), processes=args.processes)
    rows = run_overhead(scale=args.scale, names=names, runner=runner)
    worst = max(rows, key=lambda r: r.overhead_s)
    print(
        render_table(
            ["workflow", "jobs", "states", "overhead (ms)"],
            [
                [r.workflow, r.jobs, r.states, f"{r.overhead_s * 1000:.1f}"]
                for r in sorted(rows, key=lambda r: -r.overhead_s)[:10]
            ],
            title="Estimation overhead (10 most expensive workflows)",
        )
    )
    print(f"max overhead: {worst.overhead_s * 1000:.1f} ms ({worst.workflow}) — "
          f"paper requires < 1 s")
    print(f"sweep: {runner.report.describe()}")
    return 0


def _deadline_check(seconds: Optional[float]):
    """Build the cooperative deadline check for ``--deadline`` (or None).

    The runners poll it between chunks; past the deadline it raises
    :class:`~repro.errors.JobTimeoutError` — a :class:`ReproError`, so the
    standard exit-code-2 mapping applies.
    """
    if seconds is None:
        return None
    from repro.service.scheduler import deadline_checker

    return deadline_checker(seconds)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.cluster.node import PAPER_NODE
    from repro.sweep import Candidate, SweepRunner

    workflow = _resolve(args.workload, args.scale)
    try:
        sizes = sorted({int(w) for w in args.workers.split(",") if w.strip()})
    except ValueError as exc:
        raise ReproError(f"--workers must be comma-separated integers: {exc}")
    if not sizes:
        raise ReproError("--workers needs at least one cluster size")
    clusters = {
        workers: Cluster(node=PAPER_NODE, workers=workers, name=f"{workers}w")
        for workers in sizes
    }
    runner = SweepRunner(clusters[sizes[0]], processes=args.processes)
    results = runner.evaluate(
        [
            Candidate(workflow, cluster=cluster, label=f"{workers} workers")
            for workers, cluster in clusters.items()
        ],
        cancel=_deadline_check(args.deadline),
    )
    print(f"workflow : {workflow.describe()}\n")
    rows = []
    for workers, result in zip(sizes, results):
        rows.append(
            [
                workers,
                f"{result.total_time_s:.1f}" if result.ok else "infeasible",
                result.states,
                f"{result.overhead_s * 1000:.1f}",
            ]
        )
    print(render_table(["workers", "estimate (s)", "states", "overhead (ms)"],
                       rows, title="What-if cluster-size sweep"))
    print(f"sweep: {runner.report.describe()}")
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    from repro.cluster.node import PAPER_NODE
    from repro.ensemble import EnsembleConfig, EnsembleRunner, compare_paired
    from repro.simulator import FailureModel, SimulationConfig

    workflow = _resolve(args.workload, args.scale)
    config = SimulationConfig(
        skew=SkewModel(sigma=args.skew),
        failures=FailureModel(probability=args.failure_prob),
    )
    ensemble = EnsembleConfig(
        replications=args.replications,
        min_replications=min(args.min_replications, args.replications),
        base_seed=args.seed,
        target_quantile=args.target_quantile,
        ci_tol=args.ci_tol,
        exemplars=args.exemplars,
        processes=args.processes,
    )
    try:
        sizes = [int(w) for w in args.workers.split(",") if w.strip()]
    except ValueError as exc:
        raise ReproError(f"--workers must be comma-separated integers: {exc}")

    print(f"workflow : {workflow.describe()}")
    if args.paired:
        if len(sizes) != 2:
            raise ReproError(
                "--paired compares exactly two cluster sizes; pass "
                "--workers A,B"
            )
        clusters = [
            Cluster(node=PAPER_NODE, workers=w, name=f"{w}w") for w in sizes
        ]
        comparison = compare_paired(
            workflow,
            workflow,
            clusters[0],
            cluster_b=clusters[1],
            config=config,
            ensemble=ensemble,
            labels=(f"{sizes[0]} workers", f"{sizes[1]} workers"),
        )
        print(f"baseline : {comparison.mean_a:.1f}s mean ({comparison.label_a})")
        print(f"what-if  : {comparison.mean_b:.1f}s mean ({comparison.label_b})")
        print(f"delta    : {comparison.describe()}")
        print(
            f"unpaired : ±{comparison.unpaired_halfwidth:.1f}s CI half-width "
            f"(paired ±{comparison.paired_halfwidth:.1f}s, "
            f"{comparison.variance_reduction:.1f}x tighter)"
        )
        return 0

    if len(sizes) != 1:
        raise ReproError("ensemble runs one cluster size (or two with --paired)")
    cluster = (
        paper_cluster()
        if sizes == [paper_cluster().workers]
        else Cluster(node=PAPER_NODE, workers=sizes[0], name=f"{sizes[0]}w")
    )
    result = EnsembleRunner(cluster, config=config, ensemble=ensemble).run(
        workflow, cancel=_deadline_check(args.deadline)
    )
    stopped = (
        f"early stop at CI tol {args.ci_tol:.1%}"
        if result.early_stopped
        else "full budget"
    )
    makespan = result.makespan
    print(f"cluster  : {cluster.workers} workers")
    print(
        f"runs     : {result.replications} of max {result.max_replications} "
        f"({stopped}), base seed {result.base_seed}"
    )
    print(
        f"makespan : mean {makespan['mean']:.1f}s ± {makespan['std']:.1f}s "
        f"[min {makespan['min']:.1f}, max {makespan['max']:.1f}]"
    )
    print(
        "quantiles: "
        + "  ".join(
            f"P{q * 100:g} {v:.1f}s" for q, v in sorted(result.quantiles.items())
        )
    )
    print(
        f"target   : P{result.target_quantile * 100:g} CI "
        f"[{result.ci[0]:.1f}, {result.ci[1]:.1f}]s "
        f"(half-width {result.ci_halfwidth:.1f}s, "
        f"{result.ci_rel_halfwidth:.1%} of estimate)"
    )
    print(
        f"failures : mean {result.failed_attempts['mean']:.1f} "
        f"killed attempts/run"
    )
    print(f"ensemble : {result.describe()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dag",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, workload: bool = True) -> None:
        p.add_argument("--scale", type=float, default=0.05,
                       help="input-volume scale vs the paper (default 0.05)")
        p.add_argument("--log-level", default=None,
                       help="stdlib logging level for repro.* loggers "
                            "(debug/info/warning/...)")
        p.add_argument("--metrics", action="store_true",
                       help="print the metrics registry after the command")
        if workload:
            p.add_argument("workload", help="named workload (see `list`)")

    p = sub.add_parser("list", help="list named workloads")
    common(p, workload=False)
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("estimate", help="estimate a workflow (BOE + Algorithm 1)")
    common(p)
    p.add_argument("--variant", choices=[v.value for v in Variant], default="mean")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="run the ground-truth simulator")
    common(p)
    p.add_argument("--skew", type=float, default=0.2, help="lognormal skew sigma")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="simulate + estimate + accuracy")
    common(p)
    p.add_argument("--variant", choices=[v.value for v in Variant], default="mean")
    p.add_argument("--skew", type=float, default=0.2)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("timeline", help="ASCII Gantt + utilisation of a run")
    common(p)
    p.add_argument("--skew", type=float, default=0.2)
    p.add_argument("--width", type=int, default=72)
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser(
        "trace",
        help="simulate, write a Perfetto/Chrome trace, print bottleneck "
             "attribution",
    )
    common(p)
    p.add_argument("--out", default="trace.json",
                   help="output path for the trace-event JSON "
                        "(default trace.json)")
    p.add_argument("--skew", type=float, default=0.2,
                   help="lognormal skew sigma")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("tune", help="auto-tune a workload's configuration")
    common(p)
    p.add_argument("--verify", action="store_true",
                   help="also verify the tuned config on the simulator")
    p.add_argument("--processes", type=int, default=1,
                   help="worker processes for candidate batches (default 1)")
    p.add_argument("--no-prune", action="store_true",
                   help="disable the analytic bound screen and estimate "
                        "every candidate (the exact, slower sweep)")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "sweep", help="what-if sweep of a workload over cluster sizes"
    )
    common(p)
    p.add_argument("--workers", default="4,6,8,10,14,20,28",
                   help="comma-separated cluster sizes to evaluate")
    p.add_argument("--processes", type=int, default=1,
                   help="worker processes for the sweep batch (default 1)")
    p.add_argument("--deadline", type=float, default=None,
                   help="cooperative deadline in seconds; exceeding it "
                        "exits with code 2")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "ensemble",
        help="Monte Carlo replication ensemble: makespan quantiles + CIs",
    )
    common(p)
    p.add_argument("--replications", type=int, default=32,
                   help="max replications to run (default 32)")
    p.add_argument("--min-replications", type=int, default=8,
                   help="replications before early stopping may trigger "
                        "(default 8)")
    p.add_argument("--target-quantile", type=float, default=0.95,
                   help="quantile whose CI drives early stopping "
                        "(default 0.95)")
    p.add_argument("--ci-tol", type=float, default=None,
                   help="stop once the target CI half-width is within this "
                        "fraction of the estimate (default: run full budget)")
    p.add_argument("--seed", type=int, default=42,
                   help="base seed; replication i derives from (seed, i)")
    p.add_argument("--skew", type=float, default=0.3,
                   help="lognormal skew sigma (default 0.3)")
    p.add_argument("--failure-prob", type=float, default=0.05,
                   help="per-attempt failure probability (default 0.05)")
    p.add_argument("--exemplars", type=int, default=1,
                   help="full traces to keep for drill-down (default 1)")
    p.add_argument("--processes", type=int, default=1,
                   help="worker processes for replications (default 1)")
    p.add_argument("--workers", default=str(paper_cluster().workers),
                   help="cluster size, or two sizes A,B with --paired")
    p.add_argument("--paired", action="store_true",
                   help="compare two cluster sizes under common random "
                        "numbers (needs --workers A,B)")
    p.add_argument("--deadline", type=float, default=None,
                   help="cooperative deadline in seconds (single-size runs); "
                        "exceeding it exits with code 2")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser(
        "serve", help="run the HTTP/JSON prediction service (docs/service.md)"
    )
    common(p, workload=False)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8349)
    p.add_argument("--processes", type=int, default=2,
                   help="shared-pool worker processes (default 2)")
    p.add_argument("--job-workers", type=int, default=2,
                   help="concurrent sweep/ensemble jobs (default 2)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("call", help="one request against a running service")
    p.add_argument("path", help="endpoint path, e.g. /healthz or /estimate")
    p.add_argument("arg", nargs="?", default=None,
                   help="optional path suffix: `call trace <id>` fetches "
                        "one request's flame, `call jobs <id>` one job")
    p.add_argument("--url", default="http://127.0.0.1:8349",
                   help="service base URL (default http://127.0.0.1:8349)")
    p.add_argument("--data", default=None,
                   help="JSON object of request parameters")
    p.add_argument("--method", default=None,
                   help="HTTP method (default: POST with --data, else GET)")
    p.add_argument("--format", choices=["json", "table", "prom"],
                   default="json",
                   help="render metrics payloads as a table or Prometheus "
                        "text instead of JSON")
    p.add_argument("--out", default=None,
                   help="write the response to a file instead of stdout "
                        "(e.g. a /trace/<id> flame for Perfetto)")
    p.set_defaults(func=_cmd_call)

    p = sub.add_parser(
        "top", help="live per-endpoint SLO view of a running service"
    )
    p.add_argument("--url", default="http://127.0.0.1:8349",
                   help="service base URL (default http://127.0.0.1:8349)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop after N polls (default 0 = run until Ctrl-C)")
    p.add_argument("--once", action="store_true",
                   help="poll GET /status once and exit")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("fig4", help="reproduce the Fig. 4 worked example")
    p.set_defaults(func=_cmd_fig4)

    p = sub.add_parser("fig6", help="reproduce a Fig. 6 sweep")
    p.add_argument("workload_micro", choices=["wc", "ts"])
    p.set_defaults(func=_cmd_fig6)

    p = sub.add_parser("table1", help="reproduce Table I")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="reproduce Table II")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("table3", help="reproduce Table III (or a subset)")
    p.add_argument("--names", default="", help="comma-separated workflow subset")
    p.add_argument("--scale", type=float, default=0.05)
    p.set_defaults(func=_cmd_table3)

    p = sub.add_parser("overhead", help="reproduce the estimation-cost result")
    p.add_argument("--names", default="", help="comma-separated workflow subset")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--processes", type=int, default=1,
                   help="worker processes for the grid batch (default 1)")
    p.set_defaults(func=_cmd_overhead)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log_level", None):
        from repro.obs import configure_logging

        try:
            configure_logging(args.log_level)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    want_metrics = bool(getattr(args, "metrics", False))
    if want_metrics:
        from repro.obs import get_metrics

        # Arm before the command constructs any instrumented object.
        get_metrics().enable()
    try:
        rc = args.func(args)
        if want_metrics and rc == 0:
            from repro.obs import get_metrics, render_snapshot

            print("\nmetrics:")
            print(render_snapshot(get_metrics().snapshot()))
        return rc
    except ReproError as exc:
        # The whole package error hierarchy roots at ReproError, so no
        # simulation/estimation/specification failure escapes as a raw
        # traceback.  Exit code 2 distinguishes "the tool rejected the
        # request" from 1, which subcommands use for "ran fine, but the
        # checked property does not hold" (e.g. a failed comparison).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/`head` closed the pipe; exit quietly like a
        # well-behaved Unix tool.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
