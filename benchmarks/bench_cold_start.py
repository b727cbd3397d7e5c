"""Cold-start bench — a fresh process's first estimate.

The ledger times warm operations, but a user's first "what if" is a new
process, and import dominates it.  This bench times ``python -m repro.cli
estimate wc`` end to end against ``python -c "import numpy"`` (numpy is the
package's one unavoidable heavy import), ``RUNS`` of each, interleaved, and
compares the medians.  A ratio to numpy, rather than an absolute time,
keeps the floor steady on slow or busy runners.

With scipy imported eagerly (through ``repro.core.distributions`` and
``repro.baselines.ernest``) the ratio read 6.4-8x on a 2-vCPU VM; with
scipy imported only on first use it reads 2-2.4x.  The floor
``MAX_CLI_TO_NUMPY`` sits between the two, so an eager heavy import fails
the smoke test.

Results land in ``BENCH_cold_start.json`` via ``_bench_utils.emit_json``.
Run with ``-k smoke``.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from _bench_utils import emit, emit_json
from repro.analysis import render_table

#: Subprocess runs per command; the medians are compared.
RUNS = 5
#: Ceiling on median(CLI estimate) / median(import numpy).
MAX_CLI_TO_NUMPY = 4.0

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {
    "cli_estimate": ["-m", "repro.cli", "estimate", "wc"],
    "import_numpy": ["-c", "import numpy"],
}


def _wall_s(args) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=120,
    )
    return time.perf_counter() - t0


def measure(runs: int = RUNS) -> dict:
    """Median wall time of each command over ``runs`` interleaved runs."""
    walls = {name: [] for name in COMMANDS}
    for _ in range(runs):
        for name, args in COMMANDS.items():
            walls[name].append(_wall_s(args))
    medians = {f"{name}_s": statistics.median(w) for name, w in walls.items()}
    return {
        "runs": runs,
        **medians,
        "cli_to_numpy": medians["cli_estimate_s"] / medians["import_numpy_s"],
    }


def test_cold_start_smoke():
    row = measure()
    emit(
        render_table(
            ["command", f"median of {RUNS} (s)"],
            [
                ["python -m repro.cli estimate wc", f"{row['cli_estimate_s']:.3f}"],
                ['python -c "import numpy"', f"{row['import_numpy_s']:.3f}"],
                ["ratio", f"{row['cli_to_numpy']:.2f}x"],
            ],
            title="Cold start: a fresh process's first estimate",
        )
    )
    emit_json("cold_start", {"mode": "smoke", **row})
    assert row["cli_to_numpy"] <= MAX_CLI_TO_NUMPY, row
