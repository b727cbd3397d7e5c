"""Importing the package stays cheap.

``scipy`` is most of a cold start's import time (about 1.6 s of a 2 s
``repro-dag estimate``), yet only two call sites need it: Blom's quantile in
``TaskTimeDistribution.expected_wave_max`` and ``ErnestModel.fit``.  Both
import it on first use.  ``asyncio`` is only needed by the HTTP service,
and the simulator only by the commands that simulate, which import it
themselves.  This check keeps all three off ``import repro`` and
``import repro.cli``, with
observability off and armed, so a new eager import fails here instead of
silently costing a second on every command.  ``import repro`` itself loads
no subpackage: each public name imports its own on first access.

The service and the operation layer under it import the simulator, the
ensemble engine and the sweep runner only when a request runs, so
starting a service (which every ledger workload's setup does) stays
cheap too.
"""

import pytest

#: Modules a fresh ``import repro`` / ``import repro.cli`` must not load.
HEAVY = ("scipy", "asyncio", "repro.simulator")
#: Modules ``import repro.operations`` / ``import repro.service.server``
#: must not load (the server needs asyncio itself).
RUNNERS = ("scipy", "repro.simulator", "repro.ensemble", "repro.sweep")
ARMED = {"REPRO_TRACE": "1", "REPRO_METRICS": "1"}


def _loaded_heavy(fresh_python, statement: str, heavy=HEAVY, **switches: str) -> list:
    """The ``heavy`` modules in ``sys.modules`` after ``statement`` runs in
    a fresh interpreter."""
    probe = (
        f"{statement}\n"
        "import sys\n"
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))\n"
    )
    return fresh_python(probe, **switches).split()


@pytest.mark.parametrize("armed", [False, True], ids=["obs-off", "obs-armed"])
@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_loads_no_heavy_module(fresh_python, module, armed):
    switches = ARMED if armed else {}
    assert _loaded_heavy(fresh_python, f"import {module}", **switches) == []


@pytest.mark.parametrize("armed", [False, True], ids=["obs-off", "obs-armed"])
@pytest.mark.parametrize("module", ["repro.operations", "repro.service.server"])
def test_operation_layer_loads_no_runner(fresh_python, module, armed):
    switches = ARMED if armed else {}
    assert _loaded_heavy(fresh_python, f"import {module}", RUNNERS, **switches) == []


def test_probe_sees_a_heavy_import(fresh_python):
    """The check is not vacuous: it reports a module that was loaded."""
    assert _loaded_heavy(fresh_python, "import repro, asyncio") == ["asyncio"]


def test_every_export_resolves():
    """Each public name loads on first access, and a star import gets all
    of them."""
    import repro

    namespace = {}
    exec("from repro import *", namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name)
        assert name in dir(repro)
    with pytest.raises(AttributeError):
        getattr(repro, "no_such_name")
