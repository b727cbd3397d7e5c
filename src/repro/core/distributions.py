"""Task-time distributions and wave arithmetic.

Algorithm 1 needs, for every running stage, "the rest of the execution time
of the current stage" given a per-task time.  The paper evaluates three
flavours of that per-task time (Table III rows):

* **Alg1-Mean** — tasks take the distribution's mean;
* **Alg1-Mid** — tasks take the distribution's median;
* **Alg2-Normal** — the skew-aware variant: task times are modelled as
  ``N(mu, sigma)`` and each wave of ``k`` parallel tasks finishes at the
  expected *maximum* of ``k`` draws, for which we use Blom's classic
  order-statistic approximation ``mu + sigma * Phi^-1((k - 0.375)/(k + 0.25))``.

:class:`TaskTimeDistribution` carries the statistics; :func:`stage_time`
turns (task count, degree of parallelism, distribution, variant) into a stage
duration via wave decomposition.
"""

from __future__ import annotations

import enum
import math
import statistics
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import EstimationError


class Variant(enum.Enum):
    """Per-task time statistic used by the workflow estimator."""

    MEAN = "mean"  # Alg1-Mean
    MEDIAN = "median"  # Alg1-Mid
    NORMAL = "normal"  # Alg2-Normal (skew-aware)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class TaskTimeDistribution:
    """Summary statistics of the task times of one job stage.

    Attributes:
        mean: mean task time (s).
        median: median task time (s).
        std: standard deviation (s); 0 for a deterministic/model-derived time.
        n: number of observations behind the statistics (0 when analytic).
    """

    mean: float
    median: float
    std: float = 0.0
    n: int = 0

    def __post_init__(self) -> None:
        if self.mean < 0 or self.median < 0 or self.std < 0:
            raise EstimationError(f"distribution moments must be >= 0: {self}")

    @classmethod
    def from_durations(cls, durations: Sequence[float]) -> "TaskTimeDistribution":
        if not durations:
            raise EstimationError("cannot summarise an empty duration list")
        data = [float(d) for d in durations]
        mu = statistics.fmean(data)
        sigma = statistics.pstdev(data) if len(data) > 1 else 0.0
        return cls(mean=mu, median=float(statistics.median(data)), std=sigma, n=len(data))

    @classmethod
    def point(cls, value: float) -> "TaskTimeDistribution":
        """A degenerate distribution for analytic (BOE-derived) task times."""
        return cls(mean=value, median=value, std=0.0, n=0)

    def statistic(self, variant: Variant) -> float:
        """The per-task time the given estimator variant plans with."""
        if variant is Variant.MEDIAN:
            return self.median
        return self.mean

    def expected_wave_max(self, k: int) -> float:
        """E[max of k task times] under the normal model (Blom, 1958)."""
        if k <= 0:
            raise EstimationError(f"wave size must be positive: {k}")
        if k == 1 or self.std == 0.0:
            return self.mean
        # Imported here, not at module level: scipy.stats is most of a cold
        # start's import time, and only this branch needs it.
        from scipy.stats import norm

        quantile = (k - 0.375) / (k + 0.25)
        return self.mean + self.std * float(norm.ppf(quantile))

    def scaled(self, factor: float) -> "TaskTimeDistribution":
        """The distribution with every task time multiplied by ``factor``.

        Used when re-basing a profiled distribution to a different resource
        share (mean, median and std all scale linearly).
        """
        if factor < 0:
            raise EstimationError(f"scale factor must be >= 0: {factor}")
        return TaskTimeDistribution(
            mean=self.mean * factor,
            median=self.median * factor,
            std=self.std * factor,
            n=self.n,
        )


def wave_sizes(num_tasks: float, delta: float) -> List[int]:
    """Decompose ``num_tasks`` into waves of at most ``delta`` parallel tasks.

    ``num_tasks`` may be fractional mid-estimation (partial progress); the
    trailing partial wave is rounded up to one task.
    """
    if delta <= 0:
        raise EstimationError(f"degree of parallelism must be positive: {delta}")
    if num_tasks <= 0:
        return []
    per_wave = max(1, int(delta + 1e-9))
    remaining = num_tasks
    waves: List[int] = []
    while remaining > 1e-9:
        size = min(per_wave, int(math.ceil(remaining - 1e-9)))
        waves.append(size)
        remaining -= per_wave
    return waves


def stage_time(
    num_tasks: float,
    delta: float,
    dist: TaskTimeDistribution,
    variant: Variant = Variant.MEAN,
) -> float:
    """Duration of a stage with ``num_tasks`` tasks at parallelism ``delta``
    under the chosen estimator variant.

    MEAN/MEDIAN: ``ceil(num_tasks / delta)`` waves, each lasting one task
    time.  NORMAL (the skew-aware Alg2): waves are not barriers — as soon as
    a task finishes, the next pending task takes its slot — so the body of
    the stage drains at mean throughput and only the *final* wave pays the
    straggler tail, modelled as the expected maximum of its task times.
    """
    if num_tasks <= 0:
        return 0.0
    waves = wave_sizes(num_tasks, delta)
    if variant is Variant.NORMAL:
        last = waves[-1]
        per_wave = max(1, int(delta + 1e-9))
        body = (num_tasks - last) / per_wave * dist.mean
        return body + dist.expected_wave_max(last)
    return len(waves) * dist.statistic(variant)


def completion_rate(
    delta: float, dist: TaskTimeDistribution, variant: Variant = Variant.MEAN
) -> float:
    """Steady-state task completions per second of a running stage."""
    per_task = dist.statistic(variant)
    if variant is Variant.NORMAL and dist.std > 0:
        # Approximate the throughput loss from waiting for stragglers at
        # wave boundaries using the full-wave expected maximum.
        per_task = dist.expected_wave_max(max(1, int(delta + 1e-9)))
    if per_task <= 0:
        raise EstimationError("task time must be positive to define a rate")
    return delta / per_task
