"""Process-wide metrics registry: counters, gauges, histograms.

Instrumented code (the simulator engine, the BOE model's cache, the sweep
runner, the tuner) records *what happened how often* here; spans
(:mod:`repro.obs.tracer`) record *where the time went*.  The registry is
designed around two constraints:

* **Near-zero cost when disabled.**  Hot paths resolve their instruments
  once at construction time and only touch them behind an
  ``if registry.enabled`` captured flag, so a disabled run performs no
  metric work at all (``benchmarks/bench_obs_overhead.py`` enforces this).
* **Mergeable across processes.**  :meth:`MetricsRegistry.snapshot`
  produces a plain-dict, picklable image; :func:`snapshot_delta` subtracts
  a "before" image; :meth:`MetricsRegistry.merge` folds a delta back in.
  :class:`~repro.sweep.SweepRunner` uses exactly this trio to ship worker
  metrics back to the parent with deterministic results.

Metric names are dotted, lowercase, and stable — they are part of the
observable API (see ``docs/observability.md`` for the catalogue).
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.tracer import env_truthy

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "BucketHistogram",
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "labeled_name",
    "split_labeled_name",
    "snapshot_delta",
    "render_snapshot",
]

#: Default upper bounds (seconds) for request-latency bucket histograms;
#: a final +inf bucket is implicit.  Chosen for a service whose fast path
#: is sub-millisecond cache hits and whose slow path is multi-second jobs.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)


def labeled_name(name: str, labels: Mapping[str, str]) -> str:
    """Flat registry key of one labeled series: ``name{k=v,...}``.

    Label keys are sorted, so the same label set always produces the same
    key regardless of call-site ordering.  The labels themselves also ride
    in the snapshot image (under ``"labels"``), so consumers (the
    Prometheus renderer, ``/status``) never need to parse this back.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_labeled_name(key: str) -> str:
    """The family (base) name of a flat registry key."""
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value-wins float (e.g. a cache's current size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A streaming summary (count/sum/min/max) of observed values.

    Full bucketed histograms are overkill for the package's needs; the
    four summary moments merge exactly across processes, which bucket
    boundaries would complicate for no current consumer.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class BucketHistogram:
    """A fixed-bucket histogram (Prometheus-style cumulative ``le`` view).

    ``bounds`` are strictly increasing finite upper bounds; a final +inf
    bucket is implicit, so ``counts`` has ``len(bounds) + 1`` cells.
    Bucket counts merge exactly across processes (element-wise add) as
    long as both sides share the same bounds — :meth:`MetricsRegistry.merge`
    enforces that.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or not all(math.isfinite(b) for b in bounds):
            raise ValueError(
                f"bucket bounds must be strictly increasing and finite: {bounds}"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate: the upper bound of the
        bucket where the cumulative count crosses ``q`` (the overflow
        bucket reports the largest finite bound).  Coarse by design —
        exact percentiles come from the SLO window's raw samples
        (:mod:`repro.obs.slo`); this is the merged-forever view."""
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= target:
                return self.bounds[min(i, len(self.bounds) - 1)]
        return self.bounds[-1]  # pragma: no cover - cumulative covers count

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "bucket_histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Named instruments, created lazily on first use.

    The ``enabled`` flag is advisory: the registry always works, but
    instrumented code consults the flag at construction time and skips all
    metric work when it is off.  Enable the registry *before* building the
    objects you want instrumented (the CLI does this in ``main``).
    """

    def __init__(self, enabled: bool = False):
        self._enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._bucket_histograms: Dict[str, BucketHistogram] = {}
        #: flat key -> label dict, for keys created via a labeled accessor;
        #: snapshots attach ``"labels"`` only for these, so plain
        #: instruments keep their original image shape.
        self._labels: Dict[str, Dict[str, str]] = {}

    # -- state -----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- instruments -----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    def bucket_histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> BucketHistogram:
        with self._lock:
            instrument = self._bucket_histograms.get(name)
            if instrument is None:
                instrument = self._bucket_histograms[name] = BucketHistogram(bounds)
            return instrument

    # -- labeled families ------------------------------------------------------
    #
    # A labeled series is an ordinary instrument under a flat
    # ``family{k=v,...}`` key plus a remembered label dict; there is no
    # separate family object.  That keeps snapshot/merge/delta untouched —
    # labeled series ride the existing pipeline — while the Prometheus
    # renderer regroups by family from the stored labels.

    def labeled_counter(self, name: str, **labels: str) -> Counter:
        key = labeled_name(name, labels)
        if labels:
            self._labels.setdefault(key, {k: str(v) for k, v in labels.items()})
        return self.counter(key)

    def labeled_histogram(self, name: str, **labels: str) -> Histogram:
        key = labeled_name(name, labels)
        if labels:
            self._labels.setdefault(key, {k: str(v) for k, v in labels.items()})
        return self.histogram(key)

    def labeled_bucket_histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> BucketHistogram:
        key = labeled_name(name, labels)
        if labels:
            self._labels.setdefault(key, {k: str(v) for k, v in labels.items()})
        return self.bucket_histogram(key, bounds)

    def labels_for(self, key: str) -> Optional[Dict[str, str]]:
        """The label dict of a flat key, or ``None`` for plain instruments."""
        found = self._labels.get(key)
        return dict(found) if found is not None else None

    # -- snapshot / merge ------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A plain-dict, picklable image of every instrument."""
        with self._lock:
            out: Dict[str, Dict[str, Any]] = {}
            for name, c in self._counters.items():
                out[name] = c.snapshot()
            for name, g in self._gauges.items():
                out[name] = g.snapshot()
            for name, h in self._histograms.items():
                out[name] = h.snapshot()
            for name, bh in self._bucket_histograms.items():
                out[name] = bh.snapshot()
            for key, labels in self._labels.items():
                image = out.get(key)
                if image is not None:
                    image["labels"] = dict(labels)
            return out

    def merge(self, snapshot: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold a snapshot (typically a worker's delta) into this registry.

        Counters and histograms accumulate; gauges take the incoming value
        (last-wins — callers merge worker snapshots in deterministic order).
        """
        for name, image in snapshot.items():
            kind = image.get("type")
            labels = image.get("labels")
            if labels:
                self._labels.setdefault(name, {k: str(v) for k, v in labels.items()})
            if kind == "counter":
                self.counter(name).inc(int(image["value"]))
            elif kind == "gauge":
                self.gauge(name).set(float(image["value"]))
            elif kind == "bucket_histogram":
                bounds = tuple(float(b) for b in image["bounds"])
                bh = self.bucket_histogram(name, bounds)
                if bh.bounds != bounds:
                    raise ValueError(
                        f"bucket bounds mismatch merging {name!r}: "
                        f"{bh.bounds} != {bounds}"
                    )
                incoming = image["counts"]
                if len(incoming) != len(bh.counts):
                    raise ValueError(
                        f"bucket count mismatch merging {name!r}: "
                        f"{len(bh.counts)} buckets != {len(incoming)}"
                    )
                for i, n in enumerate(incoming):
                    bh.counts[i] += int(n)
                bh.count += int(image["count"])
                bh.total += float(image["sum"])
            elif kind == "histogram":
                h = self.histogram(name)
                count = int(image["count"])
                if count:
                    h.count += count
                    h.total += float(image["sum"])
                    lo, hi = image.get("min"), image.get("max")
                    if lo is not None and lo < h.min:
                        h.min = float(lo)
                    if hi is not None and hi > h.max:
                        h.max = float(hi)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._bucket_histograms.clear()
            self._labels.clear()


def snapshot_delta(
    after: Mapping[str, Mapping[str, Any]],
    before: Mapping[str, Mapping[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """The activity between two snapshots of the same registry.

    Counters and histogram count/sum subtract; gauges and histogram
    min/max keep the ``after`` value (they are not differential).
    """
    out: Dict[str, Dict[str, Any]] = {}
    for name, image in after.items():
        prior = before.get(name)
        kind = image.get("type")
        if prior is None:
            out[name] = dict(image)
            continue
        delta: Optional[Dict[str, Any]] = None
        if kind == "counter":
            value = int(image["value"]) - int(prior["value"])
            if value:
                delta = {"type": "counter", "value": value}
        elif kind == "gauge":
            delta = dict(image)
        elif kind == "bucket_histogram":
            count = int(image["count"]) - int(prior["count"])
            if count:
                delta = {
                    "type": "bucket_histogram",
                    "bounds": list(image["bounds"]),
                    "counts": [
                        int(a) - int(b)
                        for a, b in zip(image["counts"], prior["counts"])
                    ],
                    "count": count,
                    "sum": float(image["sum"]) - float(prior["sum"]),
                }
        elif kind == "histogram":
            count = int(image["count"]) - int(prior["count"])
            if count:
                delta = {
                    "type": "histogram",
                    "count": count,
                    "sum": float(image["sum"]) - float(prior["sum"]),
                    "min": image.get("min"),
                    "max": image.get("max"),
                }
        if delta is not None:
            if "labels" in image and kind != "gauge":
                delta["labels"] = dict(image["labels"])
            out[name] = delta
    return out


def render_snapshot(snapshot: Mapping[str, Mapping[str, Any]]) -> str:
    """Human-readable, sorted rendering for ``--metrics`` CLI output."""
    if not snapshot:
        return "(no metrics recorded)"
    lines: List[str] = []
    width = max(len(name) for name in snapshot)
    for name in sorted(snapshot):
        image = snapshot[name]
        kind = image.get("type")
        if kind == "counter":
            body = f"{image['value']}"
        elif kind == "gauge":
            body = f"{image['value']:g}"
        elif kind == "bucket_histogram":
            count = image.get("count", 0)
            if count:
                mean = float(image["sum"]) / count
                bounds = image["bounds"]
                counts = image["counts"]

                def _q(q: float) -> float:
                    target = q * count
                    cumulative = 0
                    for i, n in enumerate(counts):
                        cumulative += n
                        if cumulative >= target:
                            return bounds[min(i, len(bounds) - 1)]
                    return bounds[-1]

                # ~ marks bucket-bound estimates, not exact order statistics
                body = (
                    f"n={count} mean={mean:g} "
                    f"p50~{_q(0.50):g} p95~{_q(0.95):g} p99~{_q(0.99):g}"
                )
            else:
                body = "n=0"
        else:
            count = image.get("count", 0)
            if count:
                mean = float(image["sum"]) / count
                body = (
                    f"n={count} mean={mean:g} "
                    f"min={image['min']:g} max={image['max']:g}"
                )
            else:
                body = "n=0"
        lines.append(f"{name.ljust(width)}  {body}")
    return "\n".join(lines)


#: The process-global registry; ``REPRO_METRICS=1`` (or ``REPRO_TRACE=1`` —
#: a trace without its counters is half a story) arms it at import time.
_GLOBAL_METRICS = MetricsRegistry(
    enabled=env_truthy("REPRO_METRICS") or env_truthy("REPRO_TRACE")
)


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _GLOBAL_METRICS


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-global registry; returns the old one."""
    global _GLOBAL_METRICS
    old, _GLOBAL_METRICS = _GLOBAL_METRICS, registry
    return old
