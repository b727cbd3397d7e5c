"""Performance ledger: six seeded workloads, end-to-end and per-layer metrics.

One workload, as the benchmark contract runs it (the last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``)::

    python3 benchmarks/ledger/run.py --workload estimate-cold --seed 0 --seconds 12 --trace 0

Every workload with a table, from the repository root::

    PYTHONPATH=src python -m benchmarks.ledger [--trace] [--quick]
    PYTHONPATH=src python -m benchmarks.ledger --runs 5 --out ledger.json
    PYTHONPATH=src python -m benchmarks.ledger --compare BASE.json NEW.json
    PYTHONPATH=src python -m benchmarks.ledger --write-expected

Each measurement runs in a fresh child process of this script, so this
process never imports the program.  ``--trace 0`` reports the end-to-end
metrics of a timed run (the program's tracer and metrics registry off) plus
the median set-up time of three fresh set-ups; ``--trace 1`` reports the
per-layer metrics of a traced run, and its slowdown against an untraced
twin as the tracing overhead.  Times are scaled to a reference host speed
by a speed probe (see :mod:`benchmarks.ledger.workloads`).  Workloads,
metrics, units, directions and bounds are listed in ``BENCHMARK.json`` at
the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
# Run as a script, this directory heads sys.path, where ``trace.py`` would
# shadow the standard library's module of that name.
if sys.path and Path(sys.path[0]).resolve() == HERE:
    sys.path.pop(0)
for _path in (str(ROOT), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.ledger.stats import band_mean, compare_rows, quantile, summary  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
OUT_DIR = HERE / "out"
WORKLOADS = (
    "estimate-cold", "tune-prunable", "tune-dense",
    "sim-uniform", "ensemble-noisy", "service-mix",
)
#: Fresh set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Whole-command budget: children are killed past it.
BUDGET_S = 170.0
#: Service-mix numbers taken from the untraced run and reported as ``gen.*``.
GEN_FROM_TIMED = (
    "lag_p99_ms.low", "lag_p99_ms.high", "latency_p50_ms.low",
    "latency_p90_ms.low", "latency_p90_ms.high", "sweep_p50_ms.high",
)
QUICK_SECONDS = 1.0


class LedgerError(RuntimeError):
    """A child failed or ran out of time; no result can be printed."""


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


# -- child side ------------------------------------------------------------------


def _peak_rss_mb() -> float:
    """This process's peak RSS plus its largest (pool worker) child's."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def child_main(args: argparse.Namespace) -> int:
    """Set up one workload, then stop (``setup``), measure it (``timed``)
    or measure it under the span wrappers (``traced``); prints one JSON
    line."""
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise LedgerError(f"repro imported from {repro.__file__}, not from {SRC}")
    from repro.obs import get_metrics, get_tracer

    from benchmarks.ledger.trace import LayerTrace
    from benchmarks.ledger.workloads import REF_PROBE_S, probe
    from benchmarks.ledger.workloads import WORKLOADS as CLASSES

    workload = CLASSES[args.workload](args.seed)
    traced = args.child == "traced"
    get_tracer().disable()
    # Counters bind when objects are built, so arm them before set-up.
    if traced and workload.counters:
        get_metrics().enable()
    else:
        get_metrics().disable()
    layer: Optional[LayerTrace] = None
    if traced:
        layer = LayerTrace()
        layer.install()

    result: Dict[str, object] = {}
    problems: List[str] = []
    try:
        workload.setup()
        setup_s = time.time() - args.t0
        # At reference speed, like every timing (see workloads.probe); the
        # process's first probe runs cold and reads up to 3x slow.
        probe()
        result["setup_s"] = setup_s * REF_PROBE_S / probe()
        if args.child == "setup":
            print(json.dumps(result))
            return 0
        if layer is not None:
            layer.start()
            workload.op_span = layer.root
        workload.measure(args.seconds)
        if layer is not None:
            result["layers"], problems = layer.report(workload.attempted, workload.processes)
            layer.export(OUT_DIR / f"trace-{args.workload}.json", args.workload)
    finally:
        workload.close()
    result["peak_rss_mb"] = _peak_rss_mb()
    expected = {} if args.digest else json.loads(EXPECTED.read_text()).get(args.workload, {})
    problems += workload.errors[:5] + workload.check(expected)
    if args.digest:
        result["digest"] = workload.digest()
    result.update(
        latencies=workload.latencies,
        windows=workload.windows,
        probe_ms=1e3 * statistics.median(workload.probes),
        attempted=workload.attempted,
        failed=workload.failed,
        problems=problems,
        extra=workload.extra,
    )
    print(json.dumps(result))
    return 0


# -- parent side -----------------------------------------------------------------


class Runner:
    """Launches children within the whole command's time budget."""

    def __init__(self, budget_s: float = BUDGET_S):
        self.deadline = time.monotonic() + budget_s

    def child(self, role: str, workload: str, seed: int, seconds: float,
              digest: bool = False) -> dict:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--child", role,
            "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        ]
        if digest:
            cmd.append("--digest")
        cmd += ["--t0", repr(time.time())]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise LedgerError("time budget exhausted")
        # A session of its own, so the child's pool workers can be stopped
        # with it whatever way it ends.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise LedgerError(f"{workload} {role} run exceeded the time budget") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        if proc.returncode != 0:
            raise LedgerError(f"{workload} {role} run exited with code {proc.returncode}")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise LedgerError(f"{workload} {role} run printed no result")
        return json.loads(lines[-1])


def end_to_end(timed: dict, setups: Sequence[float]) -> Dict[str, float]:
    windows = [work / secs for work, secs in timed["windows"] if secs > 0]
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1e3 * quantile(timed["latencies"], 0.5),
        "op_p90_ms": 1e3 * band_mean(timed["latencies"]),
        "work_per_s": statistics.median(windows) if windows else 0.0,
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def per_layer(timed: dict, traced: dict) -> Dict[str, float]:
    from_timed = quantile(timed["latencies"], 0.5)
    metrics = dict(traced["layers"])
    metrics["host.probe_ms"] = timed["probe_ms"]
    metrics["trace_overhead_frac"] = (
        quantile(traced["latencies"], 0.5) / from_timed - 1.0 if from_timed else 0.0
    )
    for key in GEN_FROM_TIMED:
        metrics[f"gen.{key}"] = timed["extra"].get(key, 0.0)
    return metrics


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool,
            quick: bool, end_to_end_too: bool = False) -> dict:
    """One ledger run of ``workload``: its verdict and metrics.

    ``trace=False`` gives the end-to-end metrics; ``trace=True`` the
    per-layer ones, and also the end-to-end ones with ``end_to_end_too``.
    """
    setups: List[float] = []
    if not trace or end_to_end_too:
        for _ in range(0 if quick else SETUP_SAMPLES - 1):
            setups.append(runner.child("setup", workload, seed, seconds)["setup_s"])
    timed = runner.child("timed", workload, seed, seconds)
    setups.append(timed["setup_s"])
    runs = [timed]
    metrics: Dict[str, float] = {}
    if not trace or end_to_end_too:
        metrics.update(end_to_end(timed, setups))
    if trace:
        traced = runner.child("traced", workload, seed, seconds)
        runs.append(traced)
        metrics.update(per_layer(timed, traced))
    problems = [p for run in runs for p in run["problems"]]
    failed = sum(run["failed"] for run in runs)
    return {
        "correct": not problems and failed == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "ops": len(timed["latencies"]),
        "probe_ms": timed["probe_ms"],
        "extra": timed["extra"],
    }


def _describe(workload: str, seed: int, result: dict, units: Dict[str, str]) -> str:
    head = (
        f"{workload} seed={seed}: {result['ops']} timed ops, "
        f"{result['attempted']} attempted, {result['failed']} failed, "
        f"speed probe {result['probe_ms']:.3f} ms"
    )
    if "accuracy_pct" in result["extra"]:
        head += f", accuracy_pct={result['extra']['accuracy_pct']:.4f}"
    lines = [head]
    lines += [f"  {name} = {value:.6g} {units.get(name, '')}" for name, value in result["metrics"].items()]
    lines += [f"  PROBLEM {p}" for p in result["problems"]]
    return "\n".join(lines)


def _metric_specs(spec: dict, trace: bool, end_to_end_too: bool = False) -> List[dict]:
    specs = list(spec["per_layer"]) if trace else []
    if not trace or end_to_end_too:
        specs = list(spec["end_to_end"]) + specs
    return specs


def _emit_metrics(result: dict, specs: List[dict]) -> dict:
    """The result's metrics in contract form, each with its unit."""
    missing = [s["name"] for s in specs if s["name"] not in result["metrics"]]
    if missing:
        raise LedgerError(f"metrics not measured: {missing}")
    return {
        s["name"]: {"value": result["metrics"][s["name"]], "unit": s["unit"]} for s in specs
    }


def run_one(args: argparse.Namespace, spec: dict) -> int:
    runner = Runner()
    result = measure(runner, args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    specs = _metric_specs(spec, bool(args.trace))
    units = {s["name"]: s["unit"] for s in specs}
    print(_describe(args.workload, args.seed, result, units))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _emit_metrics(result, specs),
    }))
    return 0 if result["correct"] else 1


def provenance() -> dict:
    """Machine and toolchain a ledger file was measured on."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import _bench_utils

    return {
        "git_rev": _bench_utils._git_rev(),
        "python": platform.python_version(),
        "numpy": _bench_utils._numpy_version(),
        "cpus": os.cpu_count(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _table(header: List[str], rows: List[List[str]]) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return "\n".join(fmt.format(*map(str, r)) for r in [header] + rows)


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, ``--runs`` times: tables, a final JSON line, and a
    ledger file with ``--out``."""
    trace = bool(args.trace)
    specs = _metric_specs(spec, trace, end_to_end_too=True)
    units = {s["name"]: s["unit"] for s in specs}
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for index in range(args.runs):
        for name in names:
            result = measure(Runner(), name, args.seed, args.seconds, trace,
                             args.quick, end_to_end_too=True)
            print(_describe(name, args.seed, result, units), flush=True)
            runs[name].append(result)
    e2e = [s["name"] for s in spec["end_to_end"]]
    rows = []
    for name in names:
        cells = []
        for metric in e2e:
            s = summary([r["metrics"][metric] for r in runs[name]])
            cells.append(f"{s['median']:.4g}" + (f" ±{s['spread']:.0%}" if args.runs > 1 else ""))
        rows.append([name] + cells)
    print()
    print(_table(["workload"] + [f"{m} ({units[m]})" for m in e2e], rows))
    if trace:
        layer_rows = [
            [s["name"], s["unit"]] + [f"{runs[n][-1]['metrics'][s['name']]:.4g}" for n in names]
            for s in spec["per_layer"]
        ]
        print()
        print(_table(["per-layer metric", "unit"] + names, layer_rows))
    if args.out:
        ledger = {
            "provenance": provenance(),
            "seed": args.seed,
            "seconds": args.seconds,
            "runs": args.runs,
            "end_to_end": spec["end_to_end"],
            "workloads": {
                name: {
                    "runs": {m: [r["metrics"][m] for r in runs[name]] for m in e2e},
                    "summary": {m: summary([r["metrics"][m] for r in runs[name]]) for m in e2e},
                    "correct": all(r["correct"] for r in runs[name]),
                }
                for name in names
            },
        }
        Path(args.out).write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    ok = all(r["correct"] for results in runs.values() for r in results)
    print(json.dumps({
        "correct": ok,
        "workloads": {
            name: {
                "correct": results[-1]["correct"],
                "attempted": results[-1]["attempted"],
                "failed": results[-1]["failed"],
                "metrics": _emit_metrics(results[-1], specs),
            }
            for name, results in runs.items()
        },
    }))
    return 0 if ok else 1


def compare(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    for key in ("cpus", "repro_env"):
        if base["provenance"].get(key) != new["provenance"].get(key):
            print(
                f"refusing to compare: provenance {key!r} differs "
                f"({base['provenance'].get(key)!r} vs {new['provenance'].get(key)!r})",
                file=sys.stderr,
            )
            return 2
    rows = compare_rows(base, new, base["end_to_end"])
    header = ["workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
              "delta", "bound", "verdict"]
    print(_table(header, rows))
    return 0


def write_expected() -> int:
    """Pin seed 0 and 1 outputs (checked against the in-run oracles)."""
    expected: Dict[str, dict] = {}
    for name in WORKLOADS:
        entry: Dict[str, object] = {"seeds": {}}
        for seed in (0, 1):
            result = Runner().child("timed", name, seed, QUICK_SECONDS, digest=True)
            if result["problems"] or result["failed"]:
                raise LedgerError(f"{name} seed {seed}: {result['problems']}")
            entry["seeds"][str(seed)] = result["digest"]
            if "accuracy_pct" in result["extra"]:
                entry["accuracy_pct"] = result["extra"]["accuracy_pct"]
        expected[name] = entry
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv: Optional[Sequence[str]], spec_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec_seconds)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help=f"cut every schedule to {QUICK_SECONDS:g} s, one set-up sample")
    parser.add_argument("--runs", type=int, default=1, help="repeat every workload")
    parser.add_argument("--out", help="write the runs as a ledger file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--child", choices=("setup", "timed", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--digest", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = QUICK_SECONDS
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, float(spec["run_seconds"]))
    try:
        if args.child:
            return child_main(args)
        # Unwind on SIGTERM too, so the running child is stopped with us.
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        if args.compare:
            return compare(*args.compare)
        if args.write_expected:
            return write_expected()
        if args.workload and args.runs == 1 and not args.out:
            return run_one(args, spec)
        return run_all(args, spec)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
