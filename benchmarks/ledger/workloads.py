"""The ledger's six workloads: seeded inputs, the timed operation, output checks.

Each workload builds its inputs from ``--seed`` only, hands the program
nothing but those inputs, and times one *operation*: the user-visible unit
of work (one estimate, one tune, one simulation, one ensemble, one service
request).  The classes share one shape:

* :meth:`Workload.setup`: input generation, service start and one untimed
  warm-up operation (the ``setup_s`` window ends here);
* :meth:`Workload.measure`: the timed loop for a given number of seconds.
  Loops over several inputs stop only at round boundaries, so every input
  is equally represented whatever the seed or the machine speed;
* :meth:`Workload.check`: every operation's output against a reference,
  which is the pinned digest (``expected.json``) for seeds 0 and 1 and an
  in-run oracle for any other seed;
* :meth:`Workload.digest`: the outputs in the form ``expected.json`` pins.

Operations return JSON-shaped values (floats as ``float.hex`` strings) so a
pinned digest compares bit-exactly after a JSON round trip.  Program calls
go through module attributes (``repro.simulate``, ...) so the traced pass's
span wrappers see them.

Timings are reported at *reference speed*.  The host's speed drifts by up to
1.7x for seconds at a time (other tenants share its cores), so the timed
loop runs a fixed speed :func:`probe` at least every :data:`PROBE_EVERY_S`
and scales each stretch of operations by ``REF_PROBE_S / probe time``,
averaged over the probes either side of it.  The probe does not call the
program, so a change to the program moves scaled times as much as raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import threading
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.cluster import Cluster
from repro.cluster.node import PAPER_NODE
from repro.core.parallelism import clear_parallelism_memo
from repro.mapreduce import StageKind
from repro.mapreduce.config import NO_COMPRESSION, SNAPPY_TEXT
from repro.service.server import DagService
from repro.tuning import Knob
from repro.units import gb
from repro.workloads import hybrid, micro_workflow, named_workflows

from benchmarks.ledger.stats import quantile

now = time.perf_counter

#: Seconds :func:`probe` takes on the reference host: the 2-vCPU VM the
#: baseline was measured on, in its fast step.  Scaled times are times on it.
REF_PROBE_S = 3.4e-3
#: Longest stretch of timed operations between two probes.
PROBE_EVERY_S = 0.25
_PROBE_ARRAY = np.random.default_rng(0).random(500_000)


def probe() -> float:
    """Seconds a fixed mix of interpreter loop, small numpy calls and a
    4 MB array pass takes now: the median of three tries, times three."""
    tries = []
    for _ in range(3):
        t0 = now()
        total = 0
        for i in range(7_000):
            total += i * i
        a = np.arange(200.0)
        for _ in range(50):
            a = np.sqrt(a + 1.0)
        _PROBE_ARRAY.sum()
        (_PROBE_ARRAY * 1.5).max()
        tries.append(now() - t0)
    return 3 * sorted(tries)[1]


def hexf(value: float) -> str:
    """Bit-exact, JSON-safe spelling of a float."""
    return float(value).hex()


class Workload:
    """Shared state, timing loop and checks; subclasses define one workload.

    A subclass sets :attr:`outputs` to ``(item, output)`` pairs in
    :meth:`measure` and implements :meth:`key` (an item's name in
    ``expected.json``) and :meth:`oracle` (the in-run reference output).
    """

    name = ""
    #: Pool worker processes the workload's program calls run (0 = none).
    processes = 0
    #: Arm the program's metrics registry in the traced pass, for a split
    #: that needs counters from the simulator or from pool workers.  It
    #: stays off elsewhere: with the registry on, the bound screen also
    #: computes upper bounds (telemetry), which changes the work measured.
    counters = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.cluster = repro.paper_cluster()
        #: Seconds per timed operation, at reference speed.
        self.latencies: List[float] = []
        #: (work units, seconds at reference speed) per measurement window:
        #: a round of operations, or the service's closed loop.
        self.windows: List[Tuple[float, float]] = []
        #: Seconds of every speed probe taken while measuring.
        self.probes: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.outputs: List[Tuple[Any, Any]] = []
        #: Workload-specific numbers for the report (accuracy, phases).
        self.extra: Dict[str, float] = {}
        #: Errors raised by operations, each already counted as failed.
        self.errors: List[str] = []
        #: Opened around every timed operation; the traced pass swaps in
        #: its root span.
        self.op_span: Callable[[], Any] = contextlib.nullcontext

    # -- interface -------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def key(self, item: Any) -> str:
        return str(item)

    def oracle(self, item: Any) -> Any:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def digest(self) -> Dict[str, Any]:
        """First observed output per item, keyed for ``expected.json``."""
        out: Dict[str, Any] = {}
        for item, value in self.outputs:
            if value is not None:
                out.setdefault(self.key(item), value)
        return out

    def pinned(self, expected: dict) -> Optional[dict]:
        """This seed's digest in the workload's ``expected.json`` entry."""
        return expected.get("seeds", {}).get(str(self.seed))

    def check(self, expected: dict) -> List[str]:
        """Compare every output with its reference; mismatching operations
        count as failed.  Returns the problems found (a few, not all)."""
        pinned = self.pinned(expected)
        reference: Dict[Any, Any] = {}
        problems: List[str] = []
        for item, value in self.outputs:
            if value is None:  # raised: already counted as failed
                continue
            if item not in reference:
                reference[item] = (
                    pinned.get(self.key(item)) if pinned is not None else self.oracle(item)
                )
            if value != reference[item]:
                self.failed += 1
                if len(problems) < 5:
                    problems.append(f"{self.key(item)}: {value} != reference {reference[item]}")
        return problems

    # -- helpers ---------------------------------------------------------------

    def _timed(self, op: Callable[[], Any]) -> Any:
        """One timed operation; an error counts as a failed op, yields None."""
        self.attempted += 1
        t0 = now()
        try:
            with self.op_span():
                out = op()
        except Exception as exc:  # noqa: BLE001 - any error is a failed op
            self.failed += 1
            self.errors.append(repr(exc))
            out = None
        self.latencies.append(now() - t0)
        return out

    def _probe(self) -> float:
        self.probes.append(probe())
        return self.probes[-1]

    def _scale(self, before: float) -> float:
        """Probe again: the factor that takes times measured since the
        ``before`` probe to reference speed."""
        return 2 * REF_PROBE_S / (before + self._probe())

    def _rounds(self, seconds: float, round_items: Callable[[], List[Any]],
                op: Callable[[Any], Any], work: Callable[[Any], float]) -> None:
        """Whole rounds of ``op`` until ``seconds`` have passed, one
        measurement window per round, with a speed probe between operations
        at least every :data:`PROBE_EVERY_S`."""
        deadline = now() + seconds
        before = self._probe()
        probed_at = now()
        stretch = 0  # first latency not yet scaled
        rounds = []
        while True:
            items = round_items()
            first = len(self.latencies)
            finished = False
            for index, item in enumerate(items):
                self.outputs.append((item, self._timed(lambda: op(item))))
                finished = index == len(items) - 1 and now() >= deadline
                if finished or now() - probed_at >= PROBE_EVERY_S:
                    factor = self._scale(before)
                    self.latencies[stretch:] = [x * factor for x in self.latencies[stretch:]]
                    before, probed_at, stretch = self.probes[-1], now(), len(self.latencies)
            done = sum(work(out) for _, out in self.outputs[-len(items):] if out is not None)
            rounds.append((done, first, len(self.latencies)))
            if finished:
                break
        self.windows += [(done, sum(self.latencies[a:b])) for done, a, b in rounds]


# -- estimation ----------------------------------------------------------------


class EstimateCold(Workload):
    """Cold BOE + Algorithm 1 estimates over TPC-H and the Table III DAGs."""

    name = "estimate-cold"

    def setup(self) -> None:
        self.table3 = repro.table3_workflows(0.05)
        self.inputs = [repro.tpch_query(q, gb(80)) for q in range(1, 23)]
        self.inputs += list(self.table3.values())
        self._estimate(0)

    def _estimate(self, index: int) -> str:
        clear_parallelism_memo()
        # estimate_workflow builds a fresh BOEModel per call.
        return hexf(repro.estimate_workflow(self.inputs[index], self.cluster).total_time)

    def measure(self, seconds: float) -> None:
        def round_items() -> List[int]:
            order = list(range(len(self.inputs)))
            self.rng.shuffle(order)
            return order

        self._rounds(seconds, round_items, self._estimate, lambda out: 1.0)

    def key(self, item: int) -> str:
        return self.inputs[item].name

    def oracle(self, item: int) -> str:
        """The uncached, unbatched serial estimator path."""
        source = repro.BOESource(repro.BOEModel(self.cluster, cache=False))
        estimator = repro.DagEstimator(self.cluster, source, batch=False)
        return hexf(estimator.estimate(self.inputs[item]).total_time)

    def check(self, expected: dict) -> List[str]:
        """Also pins the reproduced accuracy, which no seed changes."""
        problems = super().check(expected)
        accuracy = self.extra["accuracy_pct"] = self.accuracy_pct()
        want = expected.get("accuracy_pct")
        if want is not None and accuracy != want:
            self.failed += 1
            problems.append(f"accuracy_pct {accuracy!r} != pinned {want!r}")
        return problems

    def accuracy_pct(self) -> float:
        """100 - mean |estimate - simulated| / simulated over Table III
        (default engine)."""
        estimates = self.digest()
        errors = []
        for name, workflow in self.table3.items():
            simulated = repro.simulate(workflow, self.cluster).makespan
            estimate = float.fromhex(estimates[name])
            errors.append(abs(estimate - simulated) / simulated)
        return 100.0 - 100.0 * sum(errors) / len(errors)


# -- tuning --------------------------------------------------------------------


def q21_knob_grid(rng: random.Random):
    """The TPC-H Q21 capacity-planning grid (magnitude-spanning what-ifs on
    the dominant lineitem scan), each knob's values in seeded order."""
    workflow = repro.tpch_query(21)
    job = "q21-scan-lineitem"
    lineitem = workflow.job(job)
    compression = NO_COMPRESSION if lineitem.config.compression.enabled else SNAPPY_TEXT
    grid = [
        ("num_reducers", [lineitem.num_reducers, 1, 2, 3, 4, 8, 2560, 5120, 10240]),
        ("split_mb", [lineitem.config.split_mb, 0.5, 1.0, 2.0, 4.0, 8.0,
                      1024.0, 2048.0, 4096.0, 8192.0]),
        ("map_memory_mb", [lineitem.config.map_container.memory_mb, 500.0, 8000.0,
                           16000.0, 32000.0, 64000.0, 128000.0]),
        ("compression", [lineitem.config.compression, compression]),
    ]
    space = []
    for field, values in grid:
        rng.shuffle(values)
        space.append(Knob(job, field, tuple(values)))
    return workflow, space


class _Tuning(Workload):
    """Greedy tuning runs; ``inputs`` maps an item to (workflow, space)."""

    def _tune(self, item: Any, prune: bool = True) -> List[Any]:
        clear_parallelism_memo()
        workflow, space = self.inputs[item]
        result = repro.GreedyTuner(self.cluster, prune=prune).tune(workflow, space)
        assignment = sorted(
            f"{job}.{field}={value!r}" for (job, field), value in result.assignment.items()
        )
        return [assignment, hexf(result.tuned_estimate_s)]

    def measure(self, seconds: float) -> None:
        def round_items() -> List[Any]:
            items = list(self.inputs)
            self.rng.shuffle(items)
            return items

        self._rounds(seconds, round_items, self._tune, lambda out: 1.0)

    def oracle(self, item: Any) -> List[Any]:
        """The exhaustive (unpruned) sweep of the same space."""
        return self._tune(item, prune=False)


class TunePrunable(_Tuning):
    name = "tune-prunable"

    def setup(self) -> None:
        self.inputs = {"q21": q21_knob_grid(self.rng)}
        self._tune("q21")


class TuneDense(_Tuning):
    name = "tune-dense"
    SIZES_GB = (25, 50, 75, 100)

    def setup(self) -> None:
        self.inputs = {size: (repro.weblog_dag(gb(size)), None) for size in self.SIZES_GB}
        self._tune(self.SIZES_GB[0])

    def key(self, item: int) -> str:
        return f"{item}GB"


# -- simulation ----------------------------------------------------------------


class SimUniform(Workload):
    """Columnar simulations of the WC+TS hybrid at ~94k-101k tasks."""

    name = "sim-uniform"
    counters = True
    #: Worker counts of one round, ~29 tasks landing on each worker.  Two
    #: are odd: the YARN placer's bulk grant path serves even counts only,
    #: so a round exercises both the bulk path (the median) and the
    #: per-grant path (the tail).  The seed orders each round.
    WORKERS = (3200, 3261, 3320, 3381, 3440)

    def setup(self) -> None:
        self.config = repro.SimulationConfig(engine="columnar")
        self.inputs = {}
        for workers in self.WORKERS:
            size = gb(1.875 * workers)
            workflow = hybrid("WC+TS", micro_workflow("wc", size), micro_workflow("ts", size))
            self.inputs[workers] = (workflow, Cluster(node=PAPER_NODE, workers=workers))
        self._simulate(self.WORKERS[0])

    def _simulate(self, workers: int) -> List[Any]:
        workflow, cluster = self.inputs[workers]
        result = repro.simulate(workflow, cluster, self.config)
        return [hexf(result.makespan), result.task_count]

    def measure(self, seconds: float) -> None:
        def round_items() -> List[int]:
            items = list(self.WORKERS)
            self.rng.shuffle(items)
            return items

        self._rounds(seconds, round_items, self._simulate, lambda out: out[1])

    def key(self, item: int) -> str:
        return f"{item}w"

    def oracle(self, item: int) -> List[Any]:
        """Determinism against the first run of the same input, and the
        task count the workflow declares."""
        makespan = next(out for i, out in self.outputs if i == item and out is not None)[0]
        workflow, _ = self.inputs[item]
        tasks = sum(
            job.num_tasks(kind)
            for job in workflow.jobs
            for kind in (StageKind.MAP, StageKind.REDUCE)
        )
        return [makespan, tasks]


class EnsembleNoisy(Workload):
    """Skewed, failure-prone weblog ensembles on the program's own pool."""

    name = "ensemble-noisy"
    counters = True
    processes = 2
    REPLICATIONS = 8

    def setup(self) -> None:
        self.workflow = repro.weblog_dag(gb(5))
        self.config = repro.SimulationConfig(
            skew=repro.SkewModel(sigma=0.3),
            failures=repro.FailureModel(probability=0.05),
        )
        self.ensemble = repro.EnsembleConfig(
            replications=self.REPLICATIONS,
            min_replications=self.REPLICATIONS,
            base_seed=self.seed,
            processes=self.processes,
        )
        repro.run_ensemble(
            self.workflow, self.cluster, self.config,
            replace(self.ensemble, replications=1, min_replications=1, processes=1),
        )

    def _run(self, item: int, processes: Optional[int] = None) -> List[Any]:
        ensemble = replace(self.ensemble, processes=processes or self.processes)
        result = repro.run_ensemble(self.workflow, self.cluster, self.config, ensemble)
        return [
            result.replications,
            {str(q): hexf(v) for q, v in sorted(result.quantiles.items())},
            [hexf(result.ci[0]), hexf(result.ci[1])],
            [hexf(s) for s in result.samples],
        ]

    def measure(self, seconds: float) -> None:
        self._rounds(seconds, lambda: [0], self._run, lambda out: out[0])

    def key(self, item: int) -> str:
        return f"base_seed={self.seed}"

    def oracle(self, item: int) -> List[Any]:
        """The serial ensemble: aggregates must not depend on the process
        count."""
        return self._run(item, processes=1)


# -- service -------------------------------------------------------------------


class ServiceMix(Workload):
    """In-process DagService under estimate + sweep traffic.

    Phases: an open loop at ``LOW_RPS`` then ``HIGH_RPS`` (Poisson arrivals
    split over two sender threads, latency timed from each request's due
    time), then a closed loop of two clients.  The timed operations are the
    high phase's ``/estimate`` requests; the closed loop's completions per
    second, per slice, are the saturation throughput.
    """

    name = "service-mix"
    counters = True
    processes = 2
    SCALE = 0.05
    WORKERS = range(8, 65)
    ZIPF_S = 1.1
    SWEEP_SHARE = 0.1
    SWEEP_WORKERS = "8,16,32,64"
    LOW_RPS = 30.0
    HIGH_RPS = 100.0
    CLIENTS = 2
    WARM_REQUESTS = 400
    #: Shares of the measured seconds: low, high, closed loop.
    PHASES = (0.3, 0.3, 0.4)
    #: Every phase runs in slices this long, with a speed probe between
    #: them; each closed-loop slice is one measurement window.
    SLICE_S = 0.6
    SAMPLE_KEYS = 64
    SAMPLE_SWEEPS = 8

    def setup(self) -> None:
        self.catalogue = named_workflows(self.SCALE)
        keys = [(name, w) for name in sorted(self.catalogue) for w in self.WORKERS]
        # The popularity rank is part of the workload, not of the seed: a
        # seeded rank would decide which DAGs are hot and move the cost of
        # a miss from seed to seed.  The seed draws the traffic.
        random.Random(self.name).shuffle(keys)
        self.keys = keys
        self._cum: List[float] = []
        total = 0.0
        for rank in range(len(keys)):
            total += 1.0 / (rank + 1) ** self.ZIPF_S
            self._cum.append(total)
        self.service = DagService(scale=self.SCALE, processes=self.processes, job_workers=2)
        self.served: Dict[Tuple[str, int], set] = {}
        self.sweeps: List[dict] = []
        self._lock = threading.Lock()
        self._closed_loop(requests=self.WARM_REQUESTS, record=False)

    def close(self) -> None:
        self.service.close()

    # -- traffic -----------------------------------------------------------------

    def _draw(self, rng: random.Random) -> Tuple[str, dict]:
        name, workers = self.keys[bisect.bisect_left(self._cum, rng.random() * self._cum[-1])]
        if rng.random() < self.SWEEP_SHARE:
            return "/sweep", {"workload": name, "workers": self.SWEEP_WORKERS}
        return "/estimate", {"workload": name, "workers": workers}

    def _count(self, failed: bool) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += failed

    def _request(self, path: str, params: dict, record: bool = True) -> Tuple[int, dict]:
        """One request through ``DagService.handle``; records the outcome."""
        try:
            with self.op_span():
                status, payload = self.service.handle("POST", path, params)
        except Exception as exc:  # noqa: BLE001 - any error is a failed request
            self.errors.append(repr(exc))
            status, payload = 500, {}
        if not record:
            return status, payload
        if status == 200:
            with self._lock:
                if path == "/estimate":
                    key = (params["workload"], params["workers"])
                    self.served.setdefault(key, set()).add(payload["total_time_s"])
                else:
                    self.sweeps.append(payload)
        if status != 202:  # an accepted async sweep is counted when it settles
            self._count(status != 200)
        return status, payload

    def _run_threads(self, target: Callable[[int], None]) -> None:
        threads = [
            threading.Thread(target=target, args=(i,), name=f"ledger-client-{i}")
            for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _closed_loop(self, requests: Optional[int] = None, seconds: Optional[float] = None,
                     record: bool = True) -> None:
        """Clients that each wait for a reply, for a request count or a
        duration; a recorded call is one measurement window."""
        tickets = iter(range(requests)) if requests is not None else None
        done = [0] * self.CLIENTS
        before = self._probe() if record else 0.0
        window = len(self.windows) if record else -1
        t0 = now()

        def client(index: int) -> None:
            rng = random.Random(f"{self.seed}:closed:{index}:{window}")
            while True:
                if tickets is not None and next(tickets, None) is None:
                    return
                if seconds is not None and now() - t0 >= seconds:
                    return
                self._request(*self._draw(rng), record=record)
                done[index] += 1

        self._run_threads(client)
        if record:
            elapsed = now() - t0
            self.windows.append((float(sum(done)), elapsed * self._scale(before)))

    def _open_loop(self, rate: float, seconds: float, label: str) -> None:
        """Poisson arrivals at ``rate`` for ``seconds``, in slices of
        :attr:`SLICE_S` with a speed probe between them."""
        rng = random.Random(f"{self.seed}:open:{label}")
        estimate_latency: List[float] = []
        sweep_latency: List[float] = []
        lag: List[float] = []
        for _ in range(max(1, round(seconds / self.SLICE_S))):
            estimates, sweeps, lags = self._open_slice(rng, rate, self.SLICE_S)
            estimate_latency += estimates
            sweep_latency += sweeps
            lag += lags
        if label == "high":
            self.latencies.extend(estimate_latency)
        self.extra[f"latency_p50_ms.{label}"] = 1e3 * quantile(estimate_latency, 0.5)
        self.extra[f"latency_p90_ms.{label}"] = 1e3 * quantile(estimate_latency, 0.9)
        self.extra[f"sweep_p50_ms.{label}"] = 1e3 * quantile(sweep_latency, 0.5)
        self.extra[f"lag_p99_ms.{label}"] = 1e3 * quantile(lag, 0.99)

    def _open_slice(self, rng: random.Random, rate: float,
                    seconds: float) -> Tuple[List[float], List[float], List[float]]:
        """One slice of an open loop: ``/estimate`` and ``/sweep`` latencies
        and the generator's lag.  ``/sweep`` is submitted with ``wait=False``
        so a sender never blocks on a job; its latency runs from the due
        time to the job's finish.  Latencies are scaled to reference speed,
        the lag is not."""
        arrivals = []
        t = rng.expovariate(rate)
        while t < seconds:
            arrivals.append((t,) + self._draw(rng))
            t += rng.expovariate(rate)
        latency: List[List[float]] = [[] for _ in range(self.CLIENTS)]
        lag: List[List[float]] = [[] for _ in range(self.CLIENTS)]
        jobs: List[List[Tuple[Any, float]]] = [[] for _ in range(self.CLIENTS)]
        before = self._probe()
        t0 = now()
        wall_offset = time.time() - t0

        def sender(index: int) -> None:
            for due, path, params in arrivals[index :: self.CLIENTS]:
                due += t0
                if due > now():
                    time.sleep(due - now())
                lag[index].append(now() - due)
                if path == "/sweep":
                    status, payload = self._request(path, dict(params, wait=False))
                    if status == 202:
                        jobs[index].append((self.service.scheduler.get(payload["id"]), wall_offset + due))
                    continue
                self._request(path, params)
                latency[index].append(now() - due)

        self._run_threads(sender)
        sweep_latency = []
        for job, due_wall in (entry for per in jobs for entry in per):
            job.wait(120.0)
            ok = job.status == "succeeded"
            self._count(not ok)
            if ok:
                sweep_latency.append(job.finished_at - due_wall)
                self.sweeps.append(job.result)
        factor = self._scale(before)
        return (
            [x * factor for per in latency for x in per],
            [x * factor for x in sweep_latency],
            [x for per in lag for x in per],
        )

    def measure(self, seconds: float) -> None:
        low, high, closed = (share * seconds for share in self.PHASES)
        self._open_loop(self.LOW_RPS, low, "low")
        self._open_loop(self.HIGH_RPS, high, "high")
        for _ in range(max(1, round(closed / self.SLICE_S))):
            self._closed_loop(seconds=self.SLICE_S)

    # -- checks --------------------------------------------------------------------

    def _direct(self, name: str, workers: int) -> str:
        cluster = Cluster(node=PAPER_NODE, workers=workers, name=f"{workers}w")
        return hexf(repro.estimate_workflow(self.catalogue[name], cluster).total_time)

    def digest(self) -> Dict[str, Any]:
        """The served estimates of the 64 most popular keys."""
        top = {}
        for name, workers in self.keys[: self.SAMPLE_KEYS]:
            totals = self.served.get((name, workers))
            top[f"{name}@{workers}"] = hexf(next(iter(totals))) if totals else self._direct(name, workers)
        return top

    def check(self, expected: dict) -> List[str]:
        """Each key served one value; a 64-key sample and a few sweeps
        equal direct ``estimate_workflow`` calls; the top keys equal the
        pinned digest when there is one."""
        problems: List[str] = []
        observed = sorted(self.served)
        sample = random.Random(self.seed).sample(observed, min(self.SAMPLE_KEYS, len(observed)))
        cases = [(key, self.served[key]) for key in observed if len(self.served[key]) != 1]
        cases += [(key, self.served[key]) for key in sample]
        for payload in self.sweeps[: self.SAMPLE_SWEEPS]:
            cases += [
                ((payload["workload"], row["workers"]), {row["total_time_s"]})
                for row in payload["results"]
            ]
        for (name, workers), totals in cases:
            want = self._direct(name, workers)
            if {hexf(t) for t in totals} != {want}:
                self.failed += 1
                problems.append(f"{name}@{workers}: served {sorted(totals)} != direct {want}")
        pinned = self.pinned(expected)
        if pinned is not None and pinned != self.digest():
            self.failed += 1
            problems.append("top-key estimates differ from the pinned digest")
        return problems[:5]


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (EstimateCold, TunePrunable, TuneDense, SimUniform, EnsembleNoisy, ServiceMix)
}
