"""Sweep-layer bench — batched, cached, parallel what-if evaluation.

The paper's applications (auto-tuning, capacity planning, co-location
what-ifs) all reduce to many estimator evaluations over closely related
candidates.  This bench measures the two mechanisms ``repro.sweep`` adds
over the historical serial-and-cold path:

* **Caching.**  The coordinate-descent tuning sweep over the Fig. 1 weblog
  DAG is run twice — through the memoised runner (task-time cache inside
  the BOE model + candidate memo in the runner) and through the uncached
  reference path — asserting bit-identical estimates, a wall-clock speedup
  floor and a cache hit-rate floor.  The two paths run in
  ``TUNE_PAIRS`` alternating pairs and the floor applies to the median
  per-pair speedup.  The refined BOE model (Eq. 4
  partial-usage fixed point) is used: it is the expensive configuration,
  exactly where a sweep needs the cache.
* **Parallelism.**  A ~200-candidate configuration grid is evaluated with
  a serial and a process-pool runner, asserting identical results in
  identical order always, and a pool speedup floor when the machine
  actually has cores to parallelise over.  The pool is spawned and warmed
  before the timed sweep: its spawn time is reported on its own
  (``pool_spawn_s``), and the floor applies to the warm wall time, the
  cost a long-lived pool (the service's) pays per sweep.
* **Bound-guided pruning.**  The TPC-H Q21 capacity-planning knob grid —
  magnitude-spanning choices on the dominant lineitem scan — is tuned
  twice, exhaustively and with the analytic bound screen
  (:mod:`repro.core.bounds`), asserting a bit-identical winner and tuned
  value, a prune-rate floor and an end-to-end speedup floor on the median
  of ``TUNE_PAIRS`` alternating exact/pruned pairs.  This scenario is
  CPU-count independent (both runs are serial), so the floor holds on
  single-core CI boxes too.

Every scenario emits one ``BENCH`` JSON line so the performance trajectory
is tracked from PR to PR.  Run the CI-sized subset with ``-k smoke``.
"""

import json
import os
import statistics
import time
from dataclasses import replace

import pytest

from _bench_utils import emit, emit_json
from repro.analysis import render_table
from repro.cluster import paper_cluster
from repro.core.boe import BOEModel
from repro.core.estimator import BOESource
from repro.core.parallelism import clear_parallelism_memo
from repro.dag import single_job_workflow
from repro.mapreduce.config import NO_COMPRESSION, SNAPPY_TEXT
from repro.service.pool import ResilientPool
from repro.sweep import Candidate, SweepRunner, default_processes
from repro.tuning import GreedyTuner, Knob
from repro.workloads import terasort, weblog_dag
from repro.workloads.tpch import tpch_query

#: Floors for the cached coordinate-descent tuning sweep (vs uncached serial).
TUNE_MIN_SPEEDUP = 3.0
TUNE_MIN_HIT_RATE = 0.5
#: Pool speedup floor, only asserted when there are cores to win on.
POOL_MIN_SPEEDUP = 1.2
#: Floors for the bound-guided pruning scenario on the Q21 knob grid:
#: at least this share of candidates skipped, at least this end-to-end
#: tuner speedup over the exhaustive sweep — with the winner bit-identical.
PRUNE_MIN_RATE = 0.30
PRUNE_MIN_SPEEDUP = 2.0
#: Alternating pairs of the tuning (cached/uncached) and pruning
#: (exact/pruned) scenarios.  Both speedup floors read the median
#: per-pair speedup, so one slow run on a busy machine cannot move them
#: either way.
TUNE_PAIRS = 5

GRID_REDUCERS = range(2, 42, 2)
GRID_SPLITS = (32.0, 64.0, 128.0, 256.0)
SMOKE_GRID_REDUCERS = range(2, 18, 2)
SMOKE_GRID_SPLITS = (64.0, 128.0)


def _tune_once(cached: bool):
    """One tuning run of the weblog DAG with the refined BOE model."""
    cluster = paper_cluster()
    clear_parallelism_memo()
    source = BOESource(BOEModel(cluster, refine=True, cache=cached))
    runner = SweepRunner(cluster, source=source, memo=cached)
    tuner = GreedyTuner(cluster, source=source, runner=runner)
    t0 = time.perf_counter()
    result = tuner.tune(weblog_dag())
    wall = time.perf_counter() - t0
    return wall, result, runner.report


def _run_tuning_scenario() -> dict:
    cached_walls, cold_walls = [], []
    for _ in range(TUNE_PAIRS):
        wall, cached_result, report = _tune_once(cached=True)
        cached_walls.append(wall)
        wall, cold_result, _ = _tune_once(cached=False)
        cold_walls.append(wall)
    speedups = [cold / cached for cold, cached in zip(cold_walls, cached_walls)]

    # Bit-identical parity with the uncached serial reference path.
    assert cached_result.baseline_estimate_s == cold_result.baseline_estimate_s
    assert cached_result.tuned_estimate_s == cold_result.tuned_estimate_s
    assert cached_result.assignment == cold_result.assignment
    assert cached_result.evaluations == cold_result.evaluations

    row = {
        "bench": "sweep_tuning",
        "workflow": "weblog",
        "evaluations": cached_result.evaluations,
        "cold_wall_s": round(statistics.median(cold_walls), 4),
        "cached_wall_s": round(statistics.median(cached_walls), 4),
        "speedup": round(statistics.median(speedups), 2),
        "speedup_range": [round(min(speedups), 2), round(max(speedups), 2)],
        "hit_rate": round(report.cache.hit_rate, 3),
        "tuned_estimate_s": round(cached_result.tuned_estimate_s, 6),
    }
    print("BENCH " + json.dumps(row))
    return row


def _grid(reducers, splits):
    """Distinct TeraSort configurations — a typical what-if grid."""
    base = terasort()
    candidates = []
    for r in reducers:
        for split in splits:
            job = replace(base, num_reducers=r).with_config(split_mb=split)
            candidates.append(
                Candidate(single_job_workflow(job), label=f"r{r}/s{split:g}")
            )
    return candidates


def _run_grid_scenario(reducers, splits) -> dict:
    cluster = paper_cluster()
    candidates = _grid(reducers, splits)

    clear_parallelism_memo()
    with SweepRunner(cluster) as serial:
        t0 = time.perf_counter()
        serial_results = serial.evaluate(candidates)
        serial_s = time.perf_counter() - t0

    processes = max(2, default_processes())
    clear_parallelism_memo()
    with ResilientPool(processes, label="sweep") as pool:
        # Spawn every worker and round-trip one trivial task each, so the
        # timed sweep below runs on a warm pool.
        t0 = time.perf_counter()
        list(pool.run_chunks(abs, range(2 * processes)))
        spawn_s = time.perf_counter() - t0
        with SweepRunner(cluster, pool=pool) as pooled:
            t0 = time.perf_counter()
            pooled_results = pooled.evaluate(candidates)
            pooled_s = time.perf_counter() - t0
            pool_used = pooled.report.pool_used

    # Determinism: same results, same order, regardless of worker scheduling.
    assert [r.index for r in pooled_results] == [r.index for r in serial_results]
    assert [r.total_time_s for r in pooled_results] == [
        r.total_time_s for r in serial_results
    ]
    assert all(r.ok for r in serial_results)

    row = {
        "bench": "sweep_grid",
        "candidates": len(candidates),
        "serial_wall_s": round(serial_s, 4),
        "pool_spawn_s": round(spawn_s, 4),
        "pool_wall_s": round(pooled_s, 4),
        "pool_speedup": round(serial_s / pooled_s, 2),
        "processes": processes,
        "pool_used": pool_used,
        "cpus": os.cpu_count() or 1,
    }
    print("BENCH " + json.dumps(row))
    return row


def _q21_knob_grid():
    """The Q21 capacity-planning grid: magnitude-spanning what-ifs on the
    dominant lineitem scan (reducer count, split size, mapper memory,
    compression).  Most extremes are analytically hopeless — exactly the
    candidates the bound screen exists to reject without estimating."""
    workflow = tpch_query(21)
    job = "q21-scan-lineitem"
    lineitem = workflow.job(job)
    compression = (
        NO_COMPRESSION if lineitem.config.compression.enabled else SNAPPY_TEXT
    )
    space = [
        Knob(job, "num_reducers",
             (lineitem.num_reducers, 1, 2, 3, 4, 8, 2560, 5120, 10240)),
        Knob(job, "split_mb",
             (lineitem.config.split_mb, 0.5, 1.0, 2.0, 4.0, 8.0,
              1024.0, 2048.0, 4096.0, 8192.0)),
        Knob(job, "map_memory_mb",
             (lineitem.config.map_container.memory_mb, 500.0, 8000.0,
              16000.0, 32000.0, 64000.0, 128000.0)),
        Knob(job, "compression", (lineitem.config.compression, compression)),
    ]
    return workflow, space


def _run_prune_scenario() -> dict:
    cluster = paper_cluster()
    workflow, space = _q21_knob_grid()
    walls = {False: [], True: []}
    results = {}
    for _ in range(TUNE_PAIRS):
        for prune in (False, True):
            clear_parallelism_memo()
            tuner = GreedyTuner(cluster, prune=prune)
            t0 = time.perf_counter()
            results[prune] = tuner.tune(workflow, space)
            walls[prune].append(time.perf_counter() - t0)
    exact, pruned = results[False], results[True]
    speedups = [e / p for e, p in zip(walls[False], walls[True])]

    # Conservativeness contract: the screened sweep picks the bit-identical
    # winner at the bit-identical tuned value.
    assert pruned.assignment == exact.assignment
    assert pruned.tuned_estimate_s == exact.tuned_estimate_s
    assert pruned.baseline_estimate_s == exact.baseline_estimate_s
    assert exact.pruned == 0

    candidates = max(1, pruned.evaluations - 1)  # minus the baseline
    row = {
        "bench": "sweep_prune",
        "workflow": "TPC-H Q21",
        "candidates": candidates,
        "exact_wall_s": round(statistics.median(walls[False]), 4),
        "pruned_wall_s": round(statistics.median(walls[True]), 4),
        "speedup": round(statistics.median(speedups), 2),
        "speedup_range": [round(min(speedups), 2), round(max(speedups), 2)],
        "pruned": pruned.pruned,
        "prune_rate": round(pruned.pruned / candidates, 3),
        "tuned_estimate_s": round(pruned.tuned_estimate_s, 6),
    }
    print("BENCH " + json.dumps(row))
    return row


def _render(tuning: dict, grid: dict, prune: dict) -> str:
    return render_table(
        ["scenario", "evaluations", "reference (s)", "sweep (s)", "speedup", "note"],
        [
            [
                "tuning (cached)",
                tuning["evaluations"],
                f"{tuning['cold_wall_s']:.3f}",
                f"{tuning['cached_wall_s']:.3f}",
                f"{tuning['speedup']:.1f}x",
                f"hit rate {tuning['hit_rate']:.0%}",
            ],
            [
                "grid (pooled)",
                grid["candidates"],
                f"{grid['serial_wall_s']:.3f}",
                f"{grid['pool_wall_s']:.3f}",
                f"{grid['pool_speedup']:.1f}x",
                f"{grid['processes']} warm procs ({grid['pool_spawn_s']:.3f} s "
                f"spawn), {grid['cpus']} cpus",
            ],
            [
                "Q21 grid (pruned)",
                prune["candidates"],
                f"{prune['exact_wall_s']:.3f}",
                f"{prune['pruned_wall_s']:.3f}",
                f"{prune['speedup']:.1f}x",
                f"{prune['prune_rate']:.0%} pruned, same winner",
            ],
        ],
        title="What-if sweep layer: cached + parallel + pruned vs exact reference",
    )


def _assert_floors(tuning: dict, grid: dict, prune: dict) -> None:
    """Check every floor, then fail once listing all the missed ones, so a
    missed floor in one scenario never hides another scenario's reading."""
    assert grid["pool_used"], grid
    floors = [
        ("tuning speedup", tuning["speedup"], TUNE_MIN_SPEEDUP),
        ("tuning hit rate", tuning["hit_rate"], TUNE_MIN_HIT_RATE),
        ("prune rate", prune["prune_rate"], PRUNE_MIN_RATE),
        ("prune speedup", prune["speedup"], PRUNE_MIN_SPEEDUP),
    ]
    if grid["cpus"] >= 2:
        # On a single-core box the pool is pure overhead; the determinism
        # assertions above still exercised it.
        floors.append(("pool speedup", grid["pool_speedup"], POOL_MIN_SPEEDUP))
    missed = [
        f"{name} {value} < {floor}"
        for name, value, floor in floors
        if not value >= floor
    ]
    assert not missed, "missed floors: " + "; ".join(missed)


def test_sweep_smoke():
    """CI-sized subset: full tuning scenario plus a small pooled grid.
    Run with ``-k smoke``."""
    tuning = _run_tuning_scenario()
    grid = _run_grid_scenario(SMOKE_GRID_REDUCERS, SMOKE_GRID_SPLITS)
    prune = _run_prune_scenario()
    emit(_render(tuning, grid, prune))
    emit_json(
        "sweep",
        {"mode": "smoke", "tuning": tuning, "grid": grid, "prune": prune},
    )
    _assert_floors(tuning, grid, prune)


def test_sweep_full(benchmark):
    tuning = _run_tuning_scenario()
    grid = _run_grid_scenario(GRID_REDUCERS, GRID_SPLITS)
    prune = _run_prune_scenario()
    emit(_render(tuning, grid, prune))
    emit_json(
        "sweep",
        {"mode": "full", "tuning": tuning, "grid": grid, "prune": prune},
    )
    _assert_floors(tuning, grid, prune)
    # pytest-benchmark tracks the cached tuning sweep's absolute cost.
    benchmark(lambda: _tune_once(cached=True))
