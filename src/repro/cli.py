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

``estimate``, ``simulate``, ``sweep``, ``ensemble`` and ``tune`` are the
operations the HTTP service shares: their options come from the request
declarations in :mod:`repro.operations`, and each prints the dict
:func:`repro.operations.run` returns.  ``compare``, ``timeline`` and
``trace`` reuse the simulate request.

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
from dataclasses import MISSING, dataclass, fields
from typing import Any, Dict, Optional

from repro.analysis.accuracy import accuracy
from repro.analysis.tables import percentage, render_table
from repro.cluster.cluster import paper_cluster
from repro.errors import ReproError
from repro.operations import (
    EnsembleRequest,
    EstimateRequest,
    SimulateRequest,
    SweepRequest,
    TuneRequest,
    arg,
    at_least,
    boolean,
    integer,
    number,
    parse,
    run,
)
from repro.units import format_seconds


@dataclass(frozen=True)
class _Options:
    """The CLI's own fields: how to run a request, not what it asks."""

    scale: float = arg(0.05, number, "input-volume scale vs the paper (default 0.05)")
    processes: int = arg(1, at_least(1), "worker processes for the batch (default 1)")
    deadline: Optional[float] = arg(
        None, number,
        "cooperative deadline in seconds; exceeding it exits with code 2",
    )


@dataclass(frozen=True)
class _Serve:
    """``repro-dag serve``'s fields: where to listen, how much to run."""

    host: str = arg("127.0.0.1", str, "address to bind (default 127.0.0.1)")
    port: int = arg(8349, integer, "port to bind (default 8349)")
    processes: int = arg(2, at_least(1), "shared-pool worker processes (default 2)")
    job_workers: int = arg(2, at_least(1), "concurrent sweep/ensemble jobs (default 2)")


def _add_fields(parser: argparse.ArgumentParser, declared: type, *names: str) -> None:
    """Options for ``declared``'s fields (only ``names``, when given).

    Values stay raw strings, and absent options stay absent, so
    :func:`~repro.operations.parse` reads them exactly as it reads the
    service's JSON params.
    """
    for f in fields(declared):
        meta = f.metadata
        if "parse" not in meta or (names and f.name not in names):
            continue
        if f.default is MISSING:
            parser.add_argument(f.name, help=meta["help"])
            continue
        flag = "--" + f.name.replace("_", "-")
        if meta["parse"] is boolean:
            parser.add_argument(flag, action="store_true",
                                default=argparse.SUPPRESS, help=meta["help"])
        else:
            parser.add_argument(flag, default=argparse.SUPPRESS,
                                choices=meta["choices"], help=meta["help"])


def _parse(args: argparse.Namespace, declared: type) -> Any:
    """``args`` read into ``declared`` over the workloads at ``--scale``."""
    from repro.workloads import named_workflows

    return parse(declared, vars(args), named_workflows(args.options.scale))


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.workloads import named_workflows

    for name in sorted(named_workflows(args.options.scale)):
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """One shared operation: parse, run, print the returned dict.

    A ``--deadline`` check raises :class:`~repro.errors.JobTimeoutError`
    between chunks, so it exits with code 2 like any other rejection.
    """
    options = args.options
    request = _parse(args, args.request)
    pool = cancel = None
    if options.processes > 1:
        from repro.service.pool import ResilientPool

        pool = ResilientPool(options.processes, label=args.command)
    if options.deadline is not None:
        from repro.service.scheduler import deadline_checker

        cancel = deadline_checker(options.deadline)
    try:
        payload = run(request, pool=pool, cancel=cancel)
    finally:
        if pool is not None:
            pool.close()
    args.show(request, payload)
    return 0


def _show_states(payload: Dict[str, Any]) -> None:
    rows = [
        [index, f"{start:.1f}", f"{end:.1f}", running]
        for index, start, end, running in payload["state_rows"]
    ]
    print(render_table(["state", "start", "end", "running"], rows))


def _show_estimate(request: EstimateRequest, payload: Dict[str, Any]) -> None:
    total = payload["total_time_s"]
    print(f"workflow : {payload['workflow']}")
    print(f"estimate : {format_seconds(total)} "
          f"({total:.1f} s, variant={payload['variant']})")
    print(f"overhead : {payload['overhead_ms']:.1f} ms")
    _show_states(payload)


def _show_simulate(request: SimulateRequest, payload: Dict[str, Any]) -> None:
    makespan = payload["makespan_s"]
    print(f"workflow : {payload['workflow']}")
    print(f"makespan : {format_seconds(makespan)} ({makespan:.1f} s)")
    print(f"tasks    : {payload['tasks']}, states: {payload['states']}")
    _show_states(payload)


def _cmd_compare(args: argparse.Namespace) -> int:
    simulated = run(_parse(args, SimulateRequest))
    estimated = run(_parse(args, EstimateRequest))
    print(f"workflow  : {simulated['workflow']}")
    print(f"simulated : {simulated['makespan_s']:.1f} s")
    print(f"estimated : {estimated['total_time_s']:.1f} s ({estimated['variant']})")
    print(f"accuracy  : "
          f"{percentage(accuracy(estimated['total_time_s'], simulated['makespan_s']))}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import render_gantt, render_utilisation

    request = _parse(args, SimulateRequest)
    result = request.simulate()
    print(f"workflow : {request.workflow.describe()}")
    print(f"makespan : {result.makespan:.1f}s\n")
    print(render_gantt(result, width=args.width))
    print("\nresource utilisation (0-9 tenths, * = saturated):")
    print(render_utilisation(result, request.workflow.job_map, paper_cluster(),
                             buckets=args.width))
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
    request = _parse(args, SimulateRequest)
    result = request.simulate()
    report = attribute_bottlenecks(request.workflow, paper_cluster(), result)
    payload = to_chrome_trace(
        result,
        tracer=get_tracer(),
        metrics=get_metrics().snapshot(),
        attribution=report.to_rows(),
    )
    write_trace(args.out, payload)
    print(f"workflow : {request.workflow.describe()}")
    print(f"makespan : {format_seconds(result.makespan)} ({result.makespan:.1f} s), "
          f"tasks: {len(result.tasks)}, states: {len(result.states)}")
    print(f"trace    : {args.out} ({len(payload['traceEvents'])} events) — "
          "load it at https://ui.perfetto.dev or chrome://tracing")
    print()
    print(report.render())
    return 0


def _show_tune(request: TuneRequest, payload: Dict[str, Any]) -> None:
    print(f"workflow          : {payload['workflow']}")
    print(f"baseline estimate : {payload['baseline_estimate_s']:.1f}s")
    print(f"tuned estimate    : {payload['tuned_estimate_s']:.1f}s "
          f"({payload['improvement']:.2f}x, {payload['evaluations']} evaluations, "
          f"{payload['infeasible']} infeasible, {payload['pruned']} pruned, "
          f"{payload['wall_time_ms']:.0f} ms)")
    if payload["sweep"] is not None:
        print(f"sweep             : {payload['sweep']}")
    if not payload["assignment"]:
        print("no change recommended — the configuration is already good")
        return
    print("recommended changes:")
    for job, fieldname, value in payload["assignment"]:
        print(f"  {job}: {fieldname} -> {value}")
    if "verified_s" in payload:
        before, after = payload["verified_s"]
        print(f"verified on simulator: {before:.1f}s -> {after:.1f}s "
              f"({before / after:.2f}x)")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    scale = args.options.scale
    served = parse(_Serve, vars(args))
    print(f"repro-dag service on http://{served.host}:{served.port} "
          f"(scale {scale}, {served.processes} pool processes, "
          f"{served.job_workers} job workers) — Ctrl-C to stop")
    serve(served.host, served.port, scale=scale, processes=served.processes,
          job_workers=served.job_workers)
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
    from repro.experiments.fig4 import render, run_fig4

    print(render(run_fig4()))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments.fig6 import render, run_fig6

    print(render(run_fig6(args.workload_micro)))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import render, run_table1

    print(render(run_table1()))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.table2 import render, run_table2

    print(render(run_table2()))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments.table3 import render, run_table3

    names = args.names.split(",") if args.names else None
    print(render(run_table3(names=names, scale=args.options.scale)))
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.experiments.overhead import render, run_overhead
    from repro.sweep import SweepRunner

    names = [n for n in args.names.split(",") if n] or None
    options = args.options
    with SweepRunner(paper_cluster(), processes=options.processes) as runner:
        rows = run_overhead(scale=options.scale, names=names, runner=runner)
    print(render(rows, runner.report))
    return 0


def _show_sweep(request: SweepRequest, payload: Dict[str, Any]) -> None:
    print(f"workflow : {payload['workflow']}\n")
    rows = [
        [
            row["workers"],
            f"{row['total_time_s']:.1f}" if row["ok"] else "infeasible",
            row["states"],
            f"{overhead_ms:.1f}",
        ]
        for row, overhead_ms in zip(payload["results"], payload["overhead_ms"])
    ]
    print(render_table(["workers", "estimate (s)", "states", "overhead (ms)"],
                       rows, title="What-if cluster-size sweep"))
    print(f"sweep: {payload['report']}")


def _show_ensemble(request: EnsembleRequest, p: Dict[str, Any]) -> None:
    print(f"workflow : {p['workflow']}")
    if request.paired:
        print(f"baseline : {p['mean_a']:.1f}s mean ({p['label_a']})")
        print(f"what-if  : {p['mean_b']:.1f}s mean ({p['label_b']})")
        print(f"delta    : {p['summary']}")
        print(f"unpaired : ±{p['unpaired_halfwidth']:.1f}s CI half-width "
              f"(paired ±{p['paired_halfwidth']:.1f}s, "
              f"{p['variance_reduction']:.1f}x tighter)")
        return
    stopped = (
        f"early stop at CI tol {request.ci_tol:.1%}"
        if p["early_stopped"]
        else "full budget"
    )
    makespan = p["makespan"]
    quantiles = sorted((float(q), v) for q, v in p["quantiles"].items())
    print(f"cluster  : {p['workers']} workers")
    aborted = f", {p['aborted']} aborted" if p["aborted"] else ""
    print(f"runs     : {p['replications']} of max {p['max_replications']} "
          f"({stopped}), base seed {p['base_seed']}{aborted}")
    print(f"makespan : mean {makespan['mean']:.1f}s ± {makespan['std']:.1f}s "
          f"[min {makespan['min']:.1f}, max {makespan['max']:.1f}]")
    print("quantiles: " + "  ".join(f"P{q * 100:g} {v:.1f}s" for q, v in quantiles))
    print(f"target   : P{p['target_quantile'] * 100:g} CI "
          f"[{p['ci'][0]:.1f}, {p['ci'][1]:.1f}]s "
          f"(half-width {p['ci_halfwidth']:.1f}s, "
          f"{p['ci_rel_halfwidth']:.1%} of estimate)")
    print(f"failures : mean {p['failed_attempts']['mean']:.1f} killed attempts/run")
    print(f"ensemble : {p['summary']}")


#: The shared operations: request type, help, CLI-only fields, printer.
_OPERATIONS = {
    "estimate": (EstimateRequest, "estimate a workflow (BOE + Algorithm 1)",
                 (), _show_estimate),
    "simulate": (SimulateRequest, "run the ground-truth simulator",
                 (), _show_simulate),
    "tune": (TuneRequest, "auto-tune a workload's configuration",
             ("processes",), _show_tune),
    "sweep": (SweepRequest, "what-if sweep of a workload over cluster sizes",
              ("processes", "deadline"), _show_sweep),
    "ensemble": (EnsembleRequest,
                 "Monte Carlo replication ensemble: makespan quantiles + CIs",
                 ("processes", "deadline"), _show_ensemble),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dag",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *options: str) -> None:
        p.add_argument("--log-level", default=None,
                       help="stdlib logging level for repro.* loggers "
                            "(debug/info/warning/...)")
        p.add_argument("--metrics", action="store_true",
                       help="print the metrics registry after the command")
        _add_fields(p, _Options, "scale", *options)

    p = sub.add_parser("list", help="list named workloads")
    common(p)
    p.set_defaults(func=_cmd_list)

    for command, (request, text, options, show) in _OPERATIONS.items():
        p = sub.add_parser(command, help=text)
        _add_fields(p, request)
        common(p, *options)
        p.set_defaults(func=_cmd_run, request=request, show=show)

    p = sub.add_parser("compare", help="simulate + estimate + accuracy")
    _add_fields(p, SimulateRequest)
    _add_fields(p, EstimateRequest, "variant")
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("timeline", help="ASCII Gantt + utilisation of a run")
    _add_fields(p, SimulateRequest)
    common(p)
    p.add_argument("--width", type=int, default=72)
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser(
        "trace",
        help="simulate, write a Perfetto/Chrome trace, print bottleneck "
             "attribution",
    )
    _add_fields(p, SimulateRequest)
    common(p)
    p.add_argument("--out", default="trace.json",
                   help="output path for the trace-event JSON "
                        "(default trace.json)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "serve", help="run the HTTP/JSON prediction service (docs/service.md)"
    )
    common(p)
    _add_fields(p, _Serve)
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
    _add_fields(p, _Options, "scale")
    p.set_defaults(func=_cmd_table3)

    p = sub.add_parser("overhead", help="reproduce the estimation-cost result")
    p.add_argument("--names", default="", help="comma-separated workflow subset")
    _add_fields(p, _Options, "scale", "processes")
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
        args.options = parse(_Options, vars(args))
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
