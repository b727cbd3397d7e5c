"""Tests of the performance ledger.

The smoke test runs every workload with ``--quick`` (each schedule cut to
about a second, every output check on) and checks that every metric of
``BENCHMARK.json`` is printed with its unit.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from benchmarks.ledger.stats import band_mean, summary, verdict
from benchmarks.ledger.trace import PER_LAYER, fold

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=900):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "ledger" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_quick_ledger_prints_every_metric_with_its_unit():
    out = _run("--quick", "--trace")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"]
    # BENCHMARK.json lists the gated workloads; the ledger also runs service-mix.
    assert sorted(result["workloads"]) == sorted([w["name"] for w in SPEC["workloads"]] + ["service-mix"])
    for name, workload in result["workloads"].items():
        assert workload["failed"] == 0, name
        assert workload["attempted"] >= 1, name
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            printed = workload["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"], (name, metric["name"])
            assert isinstance(printed["value"], (int, float)), (name, metric["name"])
        for metric in SPEC["end_to_end"]:
            assert workload["metrics"][metric["name"]]["value"] > 0, (name, metric["name"])


def test_one_workload_prints_the_contract_line():
    out = _run("--workload", "tune-prunable", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    out = _run("--workload", "estimate-cold", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_per_layer_table_matches_the_spec():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


def test_band_mean_is_smooth_across_a_class_gap():
    # 91 % cheap operations, 9 % expensive: p90 sits on the gap.
    cheap, costly = [1.0] * 91, [10.0] * 9
    assert band_mean(cheap + costly) == pytest.approx((6 * 1.0 + 4 * 10.0) / 10)
    assert band_mean([5.0]) == 5.0
    assert band_mean([]) == 0.0


def _span(span_id, parent, start, end, name="core.boe"):
    return SimpleNamespace(
        span_id=span_id, parent_id=parent, t_start=start, t_end=end,
        wall_s=end - start, name=name,
    )


def test_fold_sums_to_the_traced_wall_and_catches_double_counting():
    spans = [
        _span(1, None, 0.0, 10.0, name="other"),
        _span(2, 1, 1.0, 4.0, name="core.estimator"),
        _span(3, 2, 2.0, 3.0),
    ]
    self_s, wall = fold(spans)
    assert wall == 10.0
    assert self_s == {"other": 7.0, "core.estimator": 2.0, "core.boe": 1.0}
    # A child escaping its parent is counted twice: the fold no longer sums.
    spans.append(_span(4, 2, 3.5, 6.0))
    self_s, wall = fold(spans)
    assert sum(self_s.values()) > wall


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [x * 0.7 for x in base], "lower", 0.1) == "better"
    assert verdict(base, [x * 1.3 for x in base], "lower", 0.1) == "worse"
    assert verdict(base, [x * 1.01 for x in base], "lower", 0.1) == "within"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert summary([1.0, 2.0, 3.0, 4.0])["median"] == 2.5


def test_compare_refuses_different_machines(tmp_path):
    ledger = {
        "provenance": {"cpus": 2, "repro_env": {}},
        "end_to_end": SPEC["end_to_end"],
        "workloads": {},
    }
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(ledger))
    ledger["provenance"] = {"cpus": 2, "repro_env": {"REPRO_SHM": "0"}}
    new.write_text(json.dumps(ledger))
    out = _run("--compare", str(base), str(new), timeout=60)
    assert out.returncode == 2
    assert "repro_env" in out.stderr
