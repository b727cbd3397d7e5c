"""Byte-for-byte guard on what ``repro-dag`` prints.

``data/cli_golden.json`` holds the stdout of a fixed set of commands at
``--scale 0.02``, one per operation the CLI shares with the service.
Only the fields that time the run itself are masked: every
``<n> ms`` and ``<n>/s`` figure, and the overhead column of the sweep
table.  Everything else (estimates, makespans, quantiles, table layout)
must match exactly.

Re-pin only after a deliberate change of output::

    PYTHONPATH=src python tests/integration/test_cli_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

COMMANDS = (
    "estimate wc",
    "simulate wc",
    "compare wc",
    "sweep wc --workers 8,4,8",
    "ensemble wc --replications 4",
    "ensemble wc --replications 4 --workers 10,12 --paired",
    "tune ts",
)

_TIMINGS = (
    (re.compile(r"\d+(?:\.\d+)? ms\b"), "# ms"),
    (re.compile(r"\d+/s\b"), "#/s"),
    # The last column of the sweep table is the per-candidate overhead.
    (re.compile(r"(\| )\d+\.\d+ *$", re.MULTILINE), r"\1#"),
)


def masked_stdout(command: str) -> str:
    """``repro-dag <command> --scale 0.02``'s stdout, timings masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split() + ["--scale", "0.02"]) == 0
    text = out.getvalue()
    for pattern, mask in _TIMINGS:
        text = pattern.sub(mask, text)
    return text


def _capture() -> Dict[str, str]:
    return {command: masked_stdout(command) for command in COMMANDS}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command):
    golden = json.loads(GOLDEN.read_text())
    assert masked_stdout(command) == golden[command]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_capture(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
