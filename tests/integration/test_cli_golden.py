"""Byte-for-byte guard on what ``repro-dag`` prints.

``data/cli_golden.json`` holds the stdout of a fixed set of commands:
one per operation the CLI shares with the service, at ``--scale 0.02``,
and one per reproduced table or figure.  ``fig4``, ``table1`` and
``fig6`` take no ``--scale`` and run at their experiment's own.
``table2`` simulates for ~20 s, so its pin prints two fixed cells
instead.  Only the fields that time the run itself are masked: every
``<n> ms`` and ``<n>/s`` figure, the overhead column of the sweep and
overhead tables, and the order of the overhead table, which ranks
workflows by that column.  Everything else (estimates, makespans,
quantiles, table layout) must match exactly.

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
from unittest import mock

import pytest

from repro.cli import main
from repro.experiments.table2 import Table2Cell
from repro.mapreduce.stage import StageKind

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

COMMANDS = (
    "estimate wc",
    "simulate wc",
    "compare wc",
    "sweep wc --workers 8,4,8",
    "ensemble wc --replications 4",
    "ensemble wc --replications 4 --workers 10,12 --paired",
    "tune ts",
    "fig4",
    "table1",
    "fig6 wc",
    "table2",
    "table3 --names WC-Q5,TS-Q21",
    "overhead --names WC-Q5,TS-Q21",
)

#: Reproductions that take no ``--scale``.
_OWN_SCALE = ("fig4", "table1", "fig6", "table2")

#: What the ``table2`` pin prints in place of the simulated cells.
_TABLE2_CELLS = [
    Table2Cell("WC+TS", 1, "wc", StageKind.MAP, 20.0, 18.5, 19.5),
    Table2Cell("WC+TS3R", 2, "ts3r", StageKind.REDUCE, 31.25, 36.0, 30.0),
]

_LAST_CELL = re.compile(r"(\| )\d+\.\d+ *$", re.MULTILINE)

_TIMINGS = (
    (re.compile(r"\d+(?:\.\d+)? ms\b"), "# ms"),
    (re.compile(r"\d+/s\b"), "#/s"),
    # The last column of the sweep and overhead tables is the
    # per-candidate overhead.
    (re.compile(r"overhead \(ms\)\n-[-+]*\n(?:.*\|.*\n)+"),
     lambda table: _LAST_CELL.sub(r"\1#", table.group(0))),
    # The overhead table ranks workflows by that column, so its row order
    # and its most expensive workflow are timings too.
    (re.compile(r"(?<=-\n)(?:.*\|.*\n)+(?=max overhead)"),
     lambda rows: "".join(sorted(rows.group(0).splitlines(keepends=True)))),
    (re.compile(r"(max overhead: # ms )\(\S+\)"), r"\1(#)"),
)


def masked_stdout(command: str) -> str:
    """``repro-dag <command>``'s stdout, timings masked.

    Commands that take ``--scale`` run at 0.02.
    """
    argv = command.split()
    if argv[0] not in _OWN_SCALE:
        argv += ["--scale", "0.02"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch(
        "repro.experiments.table2.run_table2", lambda: list(_TABLE2_CELLS)
    ):
        assert main(argv) == 0
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
