"""Numpy primitives behind the columnar engine's hottest loops.

The columnar engine (:mod:`repro.simulator.columnar`) is numpy-vectorised
end to end; two primitives dominate a million-task run's solve phase: the
grouped water-fill inside
:func:`~repro.simulator.sharing.solve_max_min_classes` (called once per
class per Gauss-Seidel sweep) and the fused progress/deadline recompute of
every re-shared slot.  Each performs the same float operations in the same
order as the scalar or unfused expression it replaces, so trace parity
holds bit-for-bit; ``tests/simulator/test_kernels.py`` pins them on
adversarial inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "water_fill_grouped",
    "advance_progress",
    "deadline_when",
]

_EPS = 1e-12


def water_fill_grouped(
    demands: np.ndarray, counts: np.ndarray, capacity: float, hungry: int
) -> float:
    """Solve ``hungry * tau + sum_j min(d_j * c_j... , tau) = capacity``.

    Bit-identical to the scalar ``_hungry_level_grouped`` loop in
    :mod:`repro.simulator.sharing`: lexsort reproduces the tuple sort of
    ``sorted([(demand, count), ...])`` and ``np.cumsum`` accumulates float64
    partial sums strictly left-to-right.
    """
    if demands.size == 0:
        return capacity / hungry
    order = np.lexsort((counts, demands))
    d = demands[order]
    c = counts[order]
    weighted = d * c
    prefix = np.empty(d.size)
    prefix[0] = 0.0
    np.cumsum(weighted[:-1], out=prefix[1:])
    consumed = np.empty(d.size, dtype=np.int64)
    consumed[0] = 0
    np.cumsum(c[:-1], out=consumed[1:])
    total = int(c.sum())
    tau = (capacity - prefix) / (total - consumed + hungry)
    fits = tau <= d + _EPS
    first = int(np.argmax(fits))
    if fits[first]:
        return float(tau[first])
    return float((capacity - (prefix[-1] + weighted[-1])) / hungry)


def advance_progress(
    prog: np.ndarray,
    tbase: np.ndarray,
    rate: np.ndarray,
    targets: np.ndarray,
    now: float,
) -> np.ndarray:
    """Materialise lazily-advanced progress at ``now``, capped at targets.

    The fused form of the engine's ``np.where(advanced, np.minimum(...))``
    sequence — one pass, same elementwise operations.
    """
    advanced = (rate > 0.0) & (now > tbase)
    return np.where(
        advanced, np.minimum(targets, prog + (now - tbase) * rate), prog
    )


def deadline_when(
    now: float, targets: np.ndarray, prog: np.ndarray, rates: np.ndarray
) -> np.ndarray:
    """Predicted decision instants: ``now + max(0, target - prog) / rate``."""
    return now + np.maximum(0.0, targets - prog) / rates
