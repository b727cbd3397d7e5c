"""Ernest-style statistical baseline (Venkataraman et al., NSDI'16).

Ernest predicts job time from a handful of training runs by fitting a
non-negative least-squares model over interpretable features of the degree
of parallelism:

    t(delta) = a + b / delta + c * log(delta) + d * delta

(serial work, parallelisable work, tree-aggregation, per-task overhead).  It
generalises across parallelism for a *single* job — unlike the frozen-profile
baselines — but has no term for competing jobs, so it inherits the same blind
spot in the multi-job states of a DAG (the paper's §VI discussion).

Training points come from simulator runs at a few parallelism settings,
mirroring Ernest's optimal-experiment-design sampling with a fixed grid.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import TaskTimePredictor
from repro.errors import ProfileError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.stage import StageKind


def _features(delta: float) -> np.ndarray:
    if delta <= 0:
        raise ProfileError(f"parallelism must be positive: {delta}")
    return np.array([1.0, 1.0 / delta, np.log(delta + 1.0), delta])


class ErnestModel(TaskTimePredictor):
    """NNLS fit of task time against parallelism features, per job stage."""

    name = "Ernest"

    def __init__(self) -> None:
        self._coeffs: Dict[Tuple[str, StageKind, Optional[str]], np.ndarray] = {}

    def fit(
        self,
        job: MapReduceJob,
        kind: StageKind,
        observations: Sequence[Tuple[float, float]],
        substage: Optional[str] = None,
    ) -> None:
        """Fit from (delta, measured task time) training points."""
        if len(observations) < 2:
            raise ProfileError(
                f"Ernest needs at least 2 training points, got {len(observations)}"
            )
        # Imported on first fit, not at module level, to keep scipy off
        # ``import repro``.
        from scipy.optimize import nnls

        X = np.stack([_features(delta) for delta, _ in observations])
        y = np.array([t for _, t in observations], dtype=float)
        coeffs, _ = nnls(X, y)
        self._coeffs[(job.name, kind, substage)] = coeffs

    def predict(
        self,
        job: MapReduceJob,
        kind: StageKind,
        delta: float,
        substage: Optional[str] = None,
        concurrent: Sequence[Tuple[MapReduceJob, StageKind, float]] = (),
    ) -> float:
        # `concurrent` unused: Ernest has no multi-job features (§VI).
        key = (job.name, kind, substage)
        if key not in self._coeffs:
            raise ProfileError(
                f"Ernest model not fitted for {job.name!r}/{kind}/{substage!r}"
            )
        return float(self._coeffs[key] @ _features(delta))
