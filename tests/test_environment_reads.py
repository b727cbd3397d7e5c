"""Only the observability package reads the environment.

``REPRO_TRACE`` and ``REPRO_METRICS`` (read in :mod:`repro.obs`) are the
package's only environment switches; everything else is configured through
arguments.  This scan keeps it that way: a new environment knob anywhere
else has to change this test on purpose.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
ALLOWED = PACKAGE / "obs"
#: ``os`` attributes that read the environment.
READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path: Path):
    """(line, spelling) of every environment read in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in READERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in READERS:
                    yield node.lineno, f"from os import {alias.name}"


def test_only_obs_reads_the_environment():
    offenders = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {spelling}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if ALLOWED not in path.parents
        for line, spelling in _environment_reads(path)
    ]
    assert not offenders, "environment read outside repro/obs:\n" + "\n".join(
        offenders
    )


def test_scan_sees_the_obs_reads():
    """The scan is not vacuous: it finds the switches repro.obs reads."""
    reads = [
        read
        for path in ALLOWED.rglob("*.py")
        for read in _environment_reads(path)
    ]
    assert reads
