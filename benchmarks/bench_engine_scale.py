"""Engine scaling bench — fast event loop vs the historical reference loop.

The simulator is the reproduction's ground truth, so its cost bounds every
large-cluster sweep and capacity-planning search built on top of it.  The
historical loop rescans all active flows on every event (~O(tasks²) per
run); the fast loop keeps per-event work proportional to the flows an event
actually affects (completion-time heap + lazily materialised progress +
equivalence-class sharing).  This bench sweeps the worker count for the
WC+TS hybrid — the same workload family as ``bench_scaling.py`` — runs both
engines at every size, verifies the traces agree, and emits one ``BENCH``
JSON line per size so the performance trajectory is tracked from PR to PR.

Trace-parity contract (also enforced, harder, by
``tests/simulator/test_engine_parity.py``): identical placements, attempt
counts and sub-stage structure; makespan within 1e-9 s; per-task sub-stage
instants within the reference solver's deterministic ~1e-10-relative
convergence noise.
"""

import json
import os
import statistics
import time

import numpy as np
import pytest

from _bench_utils import emit, emit_json, peak_rss_mb
from repro.analysis import render_table
from repro.cluster import Cluster
from repro.cluster.node import PAPER_NODE
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.simulator import ColumnarSimulator, SimulationConfig, simulate
from repro.units import gb
from repro.workloads import hybrid, micro_workflow

#: Worker counts of the full sweep; the largest runs ~9.5k tasks.
SIZES = (8, 32, 80, 160, 320)
#: Cheap prefix used by the CI smoke job.
SMOKE_SIZES = (8, 32)

#: Makespan agreement between the engines, in seconds (absolute).
MAKESPAN_TOL = 1e-9
#: Per-instant agreement for task/sub-stage timings, relative to makespan.
TIMING_RTOL = 1e-9

#: Required wall-clock advantage of the fast engine at the largest size.
MIN_SPEEDUP_AT_SCALE = 4.0

#: Columnar sweep worker counts: ~10k and ~100k tasks (~29 tasks/worker).
COLUMNAR_SIZES = (340, 3320)
#: ~1M tasks.  Local-only: set ``REPRO_BENCH_1M=1`` to include it — the
#: object engine would need the better part of an hour at this size, so the
#: point is columnar-only (no cross-engine makespan check).
MILLION_WORKERS = 33200
MILLION_ENV = "REPRO_BENCH_1M"

#: Required wall-clock advantage of the columnar engine over the fast
#: object engine at the 100k-task point (acceptance bar of the columnar
#: core; measured ~14x on a quiet 8-core box).
MIN_COLUMNAR_SPEEDUP = 10.0
#: CPU-gated absolute floor for the CI smoke job: columnar throughput at
#: 100k tasks.  The floor leaves wide slack for noisy shared runners and
#: is only asserted when the runner has >= 4 CPUs (below that the
#: object-engine comparison itself gets starved).
MIN_COLUMNAR_TASKS_PER_S = 20_000.0
#: Soft target after the cohort-batching rewrite: ~575k tasks/s at 100k
#: and ~345k tasks/s at 1M on a quiet 8-core box (numpy only, no compiled code).
#: Reported, not asserted — shared runners are too noisy for a hard bar
#: this high, but the smoke log flags when a run lands below it.
TARGET_COLUMNAR_TASKS_PER_S = 300_000.0
#: CPU-gated ceiling on the scheduler's per-grant launch bookkeeping for a
#: symmetric wave (see ``test_launch_bookkeeping_sublinear``).  The bulk
#: grant path serves whole layers at ~0.1 us/grant; the historical scalar
#: loop costs ~4 us/grant, so the ceiling catches a regression to per-grant
#: Python bookkeeping while leaving >10x slack for slow runners.
MAX_BULK_US_PER_GRANT = 1.5
#: Re-shares of at most this many dirty nodes count as small (see
#: ``test_reshare_cost_flat_in_cluster_size``).
SMALL_RESHARE_NODES = 8
#: CPU-gated ceiling on a small re-share's median at 3,261 workers over its
#: median at 65.  Measured 1.2-1.3x with the node index and 3.0-3.4x with a
#: gather that scans the whole window (2-vCPU VM, four runs each).
MAX_RESHARE_GROWTH = 2.0


def _workload(workers: int):
    """WC+TS hybrid sized so ~30 tasks land on each worker (~9.5k at 320)."""
    size = gb(1.875 * workers)
    return hybrid(
        "WC+TS", micro_workflow("wc", size), micro_workflow("ts", size)
    )


def _assert_traces_match(ref, fast, workers: int):
    tol = TIMING_RTOL * max(1.0, ref.makespan)
    assert abs(ref.makespan - fast.makespan) <= MAKESPAN_TOL, workers
    assert len(ref.tasks) == len(fast.tasks), workers
    ref_by_key = {(t.job, t.kind, t.index): t for t in ref.tasks}
    for ft in fast.tasks:
        rt = ref_by_key[(ft.job, ft.kind, ft.index)]
        assert rt.node == ft.node, (workers, ft.job, ft.index)
        assert abs(rt.t_start - ft.t_start) <= tol
        assert abs(rt.t_end - ft.t_end) <= tol
        assert [s.name for s in rt.substages] == [s.name for s in ft.substages]
        for rs, fs in zip(rt.substages, ft.substages):
            assert abs(rs.t_start - fs.t_start) <= tol
            assert abs(rs.t_end - fs.t_end) <= tol


def _run_size(workers: int) -> dict:
    t0 = time.perf_counter()
    ref = simulate(
        _workload(workers),
        Cluster(node=PAPER_NODE, workers=workers),
        SimulationConfig(engine="reference"),
    )
    ref_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = simulate(
        _workload(workers),
        Cluster(node=PAPER_NODE, workers=workers),
        SimulationConfig(engine="fast"),
    )
    fast_s = time.perf_counter() - t0

    _assert_traces_match(ref, fast, workers)
    row = {
        "bench": "engine_scale",
        "workers": workers,
        "tasks": len(ref.tasks),
        "makespan_s": round(ref.makespan, 6),
        "ref_wall_s": round(ref_s, 4),
        "fast_wall_s": round(fast_s, 4),
        "speedup": round(ref_s / fast_s, 2),
        "dmakespan_s": abs(ref.makespan - fast.makespan),
    }
    print("BENCH " + json.dumps(row))
    return row


def _render(rows) -> str:
    return render_table(
        ["workers", "tasks", "reference (s)", "fast (s)", "speedup"],
        [
            [
                r["workers"],
                r["tasks"],
                f"{r['ref_wall_s']:.3f}",
                f"{r['fast_wall_s']:.3f}",
                f"{r['speedup']:.1f}x",
            ]
            for r in rows
        ],
        title="Engine scaling: fast vs reference event loop (WC+TS hybrid)",
    )


#: Hot-loop phases the columnar engine times into ``engine.phase_time``.
COLUMNAR_PHASES = ("pop", "solve", "launch", "bookkeep")


def _columnar_phase_seconds(workers: int) -> dict:
    """Per-phase wall seconds of one extra columnar run with metrics armed.

    The run is untimed: the phase timers read the clock inside the loop,
    so the timed run above stays uninstrumented.
    """
    registry = MetricsRegistry(enabled=True)
    previous = set_metrics(registry)
    try:
        simulate(
            _workload(workers),
            Cluster(node=PAPER_NODE, workers=workers),
            SimulationConfig(engine="columnar"),
        )
    finally:
        set_metrics(previous)
    snap = registry.snapshot()
    return {
        f"phase_{phase}_s": round(
            snap[f"engine.phase_time{{phase={phase}}}"]["sum"], 4
        )
        for phase in COLUMNAR_PHASES
    }


def _run_columnar_size(workers: int, with_fast: bool = True) -> dict:
    """One columnar scaling point; optionally timed against the fast engine.

    Trace-level parity is pinned by ``tests/simulator/test_columnar_parity.py``;
    here only the makespan is cross-checked so the 100k point stays cheap.
    The row also carries the per-phase split of one instrumented run, so a
    CI log shows where the columnar time goes.
    """
    cluster = Cluster(node=PAPER_NODE, workers=workers)
    t0 = time.perf_counter()
    col = simulate(
        _workload(workers), cluster, SimulationConfig(engine="columnar")
    )
    col_s = time.perf_counter() - t0
    row = {
        "bench": "engine_scale_columnar",
        "workers": workers,
        "tasks": col.task_count,
        "makespan_s": round(col.makespan, 6),
        "columnar_wall_s": round(col_s, 4),
        "columnar_tasks_per_s": round(col.task_count / col_s, 1),
        "column_mb": round(col.column_bytes / (1024.0 * 1024.0), 2),
        "peak_rss_mb": peak_rss_mb(),
    }
    row.update(_columnar_phase_seconds(workers))
    if with_fast:
        t0 = time.perf_counter()
        fast = simulate(
            _workload(workers), cluster, SimulationConfig(engine="fast")
        )
        fast_s = time.perf_counter() - t0
        assert fast.task_count == col.task_count, workers
        row["fast_wall_s"] = round(fast_s, 4)
        row["speedup"] = round(fast_s / col_s, 2)
        row["dmakespan_s"] = abs(fast.makespan - col.makespan)
    print("BENCH " + json.dumps(row))
    return row


def _render_columnar(rows) -> str:
    return render_table(
        [
            "workers",
            "tasks",
            "columnar (s)",
            "tasks/s",
            "cols (MB)",
            "fast (s)",
            "speedup",
        ],
        [
            [
                r["workers"],
                r["tasks"],
                f"{r['columnar_wall_s']:.3f}",
                f"{r['columnar_tasks_per_s']:.0f}",
                f"{r['column_mb']:.1f}",
                f"{r['fast_wall_s']:.3f}" if "fast_wall_s" in r else "-",
                f"{r['speedup']:.1f}x" if "speedup" in r else "-",
            ]
            for r in rows
        ],
        title="Columnar engine scaling: 10k -> 100k -> 1M tasks (WC+TS hybrid)",
    )


@pytest.fixture(scope="module")
def sweep():
    return [_run_size(w) for w in SIZES]


@pytest.fixture(scope="module")
def columnar_sweep():
    rows = [_run_columnar_size(w) for w in COLUMNAR_SIZES]
    if os.environ.get(MILLION_ENV) == "1":
        rows.append(_run_columnar_size(MILLION_WORKERS, with_fast=False))
    return rows


def test_engine_scale_smoke():
    """CI-sized subset: trace parity plus a sanity check that the fast
    engine is not slower.  Run with ``-k smoke``."""
    rows = [_run_size(w) for w in SMOKE_SIZES]
    emit(_render(rows))
    emit_json("engine_scale", {"mode": "smoke", "sizes": rows})
    for row in rows:
        assert row["dmakespan_s"] <= MAKESPAN_TOL
    # At tiny sizes constant overheads dominate; just require "not worse".
    assert rows[-1]["speedup"] >= 1.0


def test_engine_scale_full(benchmark, sweep):
    emit(_render(sweep))
    emit_json("engine_scale", {"mode": "full", "sizes": sweep})
    for row in sweep:
        assert row["dmakespan_s"] <= MAKESPAN_TOL
    # Wall-clock advantage must grow with scale and clear the 4x bar at the
    # largest size (~9.5k tasks on 320 workers).
    largest = sweep[-1]
    assert largest["workers"] == 320
    assert largest["tasks"] >= 9_000
    assert largest["speedup"] >= MIN_SPEEDUP_AT_SCALE, largest
    # pytest-benchmark tracks the fast engine's absolute cost at mid scale.
    workers = 80
    cluster = Cluster(node=PAPER_NODE, workers=workers)
    benchmark(
        lambda: simulate(
            _workload(workers), cluster, SimulationConfig(engine="fast")
        )
    )


def test_engine_scale_columnar_smoke():
    """CI-sized columnar point: ~100k tasks vs the fast object engine.

    Asserts makespan agreement always; the absolute tasks/sec floor is
    CPU-gated so a starved shared runner degrades to a parity check rather
    than a flaky hard failure.  Run with ``-k columnar_smoke``.
    """
    row = _run_columnar_size(COLUMNAR_SIZES[-1])
    emit(_render_columnar([row]))
    emit_json("engine_scale", {"mode": "columnar_smoke", "sizes": [row]})
    assert row["tasks"] >= 90_000
    assert row["dmakespan_s"] <= MAKESPAN_TOL
    assert row["speedup"] >= 1.0
    if (os.cpu_count() or 1) >= 4:
        assert row["columnar_tasks_per_s"] >= MIN_COLUMNAR_TASKS_PER_S, row
        if row["columnar_tasks_per_s"] < TARGET_COLUMNAR_TASKS_PER_S:
            emit(
                f"NOTE: columnar throughput {row['columnar_tasks_per_s']:.0f}"
                f" tasks/s is below the {TARGET_COLUMNAR_TASKS_PER_S:.0f}"
                " soft target (hard floor"
                f" {MIN_COLUMNAR_TASKS_PER_S:.0f} still holds)"
            )


def test_launch_bookkeeping_sublinear():
    """Micro-regression: launch bookkeeping must stay sub-linear in wave size.

    A symmetric wave is served by the scheduler's bulk grant paths in whole
    round-robin layers, so growing the wave (and the cluster) 16x must cost
    far less than 16x — and the absolute per-grant cost must stay an order
    of magnitude under the historical scalar loop's ~4 us, on even and odd
    clusters alike.  Guards against the launch path regressing to per-grant
    Python bookkeeping.  CPU-gated like the throughput floor.
    """
    from repro.cluster.resources import ResourceVector
    from repro.scheduler import YarnPlacer

    container = ResourceVector(1.0, 2000.0)

    def wave_seconds(workers: int, grants: int) -> float:
        placer = YarnPlacer(Cluster(node=PAPER_NODE, workers=workers))
        t0 = time.perf_counter()
        names, codes, nodes, qidx = placer.assign_queues_arrays(
            {"a": [(container, grants)], "b": [(container, grants)]}
        )
        elapsed = time.perf_counter() - t0
        assert codes.size == 2 * grants
        return elapsed

    wave_seconds(512, 1024)  # warm-up (imports, allocator)
    # 16 layers per wave.  The odd clusters leave a ragged remainder after
    # every two-job layer, which a few scalar grants close before the bulk
    # path re-arms; they must stay under the same per-grant ceiling.
    rows = []
    for label, small_nodes, big_nodes in (
        ("even", 512, 8192),
        ("odd", 513, 8191),
    ):
        small_grants = 8 * small_nodes
        big_grants = 8 * big_nodes
        small = wave_seconds(small_nodes, small_grants)
        big = wave_seconds(big_nodes, big_grants)
        small_us = small / (2 * small_grants) * 1e6
        big_us = big / (2 * big_grants) * 1e6
        row = {
            "bench": "launch_bookkeeping",
            "nodes": label,
            "small_wave_s": round(small, 5),
            "big_wave_s": round(big, 5),
            "small_us_per_grant": round(small_us, 3),
            "big_us_per_grant": round(big_us, 3),
        }
        print("BENCH " + json.dumps(row))
        rows.append((row, small_us, big_us))
    # The paper's 10-node cluster, where fixed per-call costs dominate: the
    # median of repeated small waves, reported without a floor.
    ten_grants = 8 * 10
    ten = statistics.median(wave_seconds(10, ten_grants) for _ in range(51))
    row = {
        "bench": "launch_bookkeeping",
        "nodes": "10",
        "wave_s": round(ten, 6),
        "us_per_grant": round(ten / (2 * ten_grants) * 1e6, 3),
    }
    print("BENCH " + json.dumps(row))
    if (os.cpu_count() or 1) >= 4:
        for row, small_us, big_us in rows:
            # Per-grant cost must not grow with the wave (sub-linear total)...
            assert big_us <= 4.0 * max(small_us, 0.02), row
            # ...and must stay far below the scalar loop's ~4 us/grant.
            assert big_us <= MAX_BULK_US_PER_GRANT, row


def test_reshare_cost_flat_in_cluster_size():
    """Micro-regression: a few-node re-share must not cost the whole window.

    Times every columnar ``_solve_dirty`` that re-shares at most
    ``SMALL_RESHARE_NODES`` nodes on the WC+TS hybrid, on a 65-worker and a
    3,261-worker odd cluster (whose per-grant tail makes ~90 such
    re-shares per run).  The 3,261-worker window holds ~50k live slots,
    the 65-worker one ~1k: a gather that scans the window makes the large
    cluster's median re-share ~3x the small one's, the node index keeps
    the two close.  CPU-gated like its siblings.
    """
    class _Timed(ColumnarSimulator):
        def _solve_dirty(self):
            small = np.count_nonzero(self._dirty) <= SMALL_RESHARE_NODES
            t0 = time.perf_counter()
            super()._solve_dirty()
            if small:
                self.small_s.append(time.perf_counter() - t0)

    def small_reshares(workers: int) -> list:
        sim = _Timed(
            Cluster(node=PAPER_NODE, workers=workers),
            _workload(workers),
            SimulationConfig(engine="columnar"),
        )
        sim.small_s = []
        sim.run()
        return sim.small_s

    small_reshares(65)  # warm-up
    # Alternate the sizes so host drift hits both medians alike.
    small, big = [], []
    for _ in range(3):
        small += small_reshares(65)
        big += small_reshares(3261)
    small_us = statistics.median(small) * 1e6
    big_us = statistics.median(big) * 1e6
    small_n, big_n = len(small) // 3, len(big) // 3
    row = {
        "bench": "reshare_cost",
        "max_dirty_nodes": SMALL_RESHARE_NODES,
        "small_workers": 65,
        "small_reshares": small_n,
        "small_median_us": round(small_us, 1),
        "big_workers": 3261,
        "big_reshares": big_n,
        "big_median_us": round(big_us, 1),
        "ratio": round(big_us / small_us, 2),
    }
    print("BENCH " + json.dumps(row))
    assert small_n > 50 and big_n > 50, row
    if (os.cpu_count() or 1) >= 4:
        assert big_us <= MAX_RESHARE_GROWTH * small_us, row


def test_engine_scale_columnar_full(columnar_sweep):
    """The 10k -> 100k (-> 1M with REPRO_BENCH_1M=1) scaling curve."""
    emit(_render_columnar(columnar_sweep))
    emit_json("engine_scale", {"mode": "columnar_full", "sizes": columnar_sweep})
    for row in columnar_sweep:
        if "dmakespan_s" in row:
            assert row["dmakespan_s"] <= MAKESPAN_TOL
    point_100k = columnar_sweep[1]
    assert point_100k["workers"] == COLUMNAR_SIZES[-1]
    assert point_100k["tasks"] >= 90_000
    # The acceptance bar of the columnar core: >= 10x over the object
    # engine at 100k tasks.
    assert point_100k["speedup"] >= MIN_COLUMNAR_SPEEDUP, point_100k
