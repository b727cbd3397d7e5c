"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

import pytest

import repro
from repro.cluster import Cluster, NodeSpec, paper_cluster, single_node_cluster
from repro.mapreduce import JobConfig, MapReduceJob, SNAPPY_TEXT
from repro.units import gb


@pytest.fixture
def cluster() -> Cluster:
    """The paper's 10-worker testbed."""
    return paper_cluster()


@pytest.fixture
def one_node() -> Cluster:
    """A single-node cluster for hand-checkable arithmetic."""
    return single_node_cluster()


@pytest.fixture
def small_wc() -> MapReduceJob:
    """A small CPU-bound WordCount-like job (fast to simulate)."""
    return MapReduceJob(
        name="wc",
        input_mb=gb(5),
        map_selectivity=0.25,
        reduce_selectivity=0.1,
        map_cpu_mb_s=15.0,
        reduce_cpu_mb_s=30.0,
        num_reducers=20,
        config=JobConfig(compression=SNAPPY_TEXT, replicas=3),
    )


@pytest.fixture
def small_ts() -> MapReduceJob:
    """A small TeraSort-like job (I/O heavy, uncompressed, 1 replica)."""
    return MapReduceJob(
        name="ts",
        input_mb=gb(5),
        map_selectivity=1.0,
        reduce_selectivity=1.0,
        map_cpu_mb_s=60.0,
        reduce_cpu_mb_s=40.0,
        num_reducers=40,
        config=JobConfig(replicas=1),
    )


@pytest.fixture
def fresh_python() -> Callable[..., str]:
    """Runs a script in a new interpreter that imports this checkout's
    ``repro``, with the observability switches unset unless passed as
    keyword arguments; returns its stdout."""
    src = str(Path(repro.__file__).resolve().parents[1])

    def run(script: str, **switches: str) -> str:
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("REPRO_TRACE", "REPRO_METRICS")
        }
        env.update(switches, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
