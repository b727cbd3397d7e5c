"""Accuracy metrics and table rendering for the experiment harness.

The timeline renderers read simulation results and so import the
simulator; they load on first access (PEP 562 module ``__getattr__``), so
code that only needs accuracy or tables does not load the simulator.
"""

import importlib as _importlib

from repro.analysis.accuracy import (
    AccuracySummary,
    accuracy,
    improvement_factor,
    relative_error,
    summarise,
)
from repro.analysis.tables import percentage, render_series, render_table

_TIMELINE = ("render_gantt", "render_utilisation", "utilisation_series")

__all__ = [
    "AccuracySummary",
    "accuracy",
    "improvement_factor",
    "percentage",
    "relative_error",
    "render_gantt",
    "render_series",
    "render_table",
    "render_utilisation",
    "summarise",
    "utilisation_series",
]


def __getattr__(name: str):
    if name not in _TIMELINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module("repro.analysis.timeline"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_TIMELINE))
