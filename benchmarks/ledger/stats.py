"""Order statistics for the ledger, and the ``--compare`` verdict rule."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0.0 for an empty sample)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def band_mean(values: Sequence[float], lo: float = 0.85, hi: float = 0.95) -> float:
    """Mean of the values ranked between the ``lo`` and ``hi`` quantiles
    (at least one value): a smoothed percentile.

    The ledger's tail statistic.  A single percentile can sit on the gap
    between two input classes of very different cost and jump between them
    from run to run; a top-share mean follows a handful of stalls (garbage
    collection pauses) that land in one run and not the next.  The band
    mean moves smoothly with both.
    """
    xs = sorted(values)
    if not xs:
        return 0.0
    start = min(int(math.floor(lo * len(xs))), len(xs) - 1)
    stop = max(int(math.ceil(hi * len(xs))), start + 1)
    band = xs[start:stop]
    return sum(band) / len(band)


def summary(runs: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of per-run values, as ``statistics.quantiles``
    gives them; ``spread`` is the interquartile range over the median."""
    median = statistics.median(runs)
    if len(runs) >= 2:
        q1, _, q3 = statistics.quantiles(runs, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """Classify a change of one metric on one workload.

    ``unresolved`` when either side's quartile spread exceeds ``bound``,
    unless every new run beats every base run; ``better`` when the medians
    differ by more than the base's spread and the new side wins at least
    nine tenths of all run pairs; ``worse`` when the new median is worse by
    more than ``bound``; otherwise ``within``.
    """
    sign = 1.0 if better == "higher" else -1.0
    b, n = summary(base), summary(new)
    gain = sign * (n["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
    pairs = [(x, y) for x in base for y in new if x != y]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    dominates = bool(pairs) and wins == len(pairs)
    if max(b["spread"], n["spread"]) > bound and not dominates:
        return "unresolved"
    if gain > b["spread"] and pairs and wins >= 0.9 * len(pairs):
        return "better"
    if -gain > bound:
        return "worse"
    return "within"


def compare_rows(base: dict, new: dict, metrics: List[dict]) -> List[List[str]]:
    """One row per workload x end-to-end metric of two ledger files."""
    rows = []
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        for spec in metrics:
            name = spec["name"]
            b_runs = base["workloads"][workload]["runs"].get(name)
            n_runs = new["workloads"][workload]["runs"].get(name)
            if not b_runs or not n_runs:
                continue
            b, n = summary(b_runs), summary(n_runs)
            delta = (n["median"] - b["median"]) / b["median"] if b["median"] else 0.0
            rows.append([
                workload,
                f"{name} ({spec['unit']})",
                f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]",
                f"{n['median']:.4g} [{n['q1']:.4g}, {n['q3']:.4g}]",
                f"{delta:+.1%} of {b['median']:.4g}",
                f"{spec['bound']:.0%}",
                verdict(b_runs, n_runs, spec["better"], spec["bound"]),
            ])
    return rows
