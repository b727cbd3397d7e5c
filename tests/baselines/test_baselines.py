"""Tests for the baseline predictors (Starfish, MRTuner, Ernest, regression)."""

import numpy as np
import pytest

from repro.baselines import (
    BOEPredictor,
    ErnestModel,
    MRTunerBestCase,
    RegressionModel,
    StarfishBestCase,
)
from repro.baselines.ernest import _features
from repro.core import BOEModel
from repro.errors import ProfileError
from repro.mapreduce import StageKind


class TestStarfish:
    def test_prediction_constant_in_parallelism(self, cluster, small_wc):
        baseline = StarfishBestCase()
        baseline.profile(small_wc, cluster)
        t_low = baseline.predict(small_wc, StageKind.MAP, 10.0)
        t_high = baseline.predict(small_wc, StageKind.MAP, 160.0)
        assert t_low == t_high  # the defining limitation

    def test_substage_prediction(self, cluster, small_wc):
        baseline = StarfishBestCase()
        baseline.profile(small_wc, cluster)
        shuffle = baseline.predict(small_wc, StageKind.REDUCE, 10.0, "shuffle")
        whole = baseline.predict(small_wc, StageKind.REDUCE, 10.0)
        assert 0 < shuffle < whole

    def test_unprofiled_job_raises(self, cluster, small_wc):
        with pytest.raises(ProfileError):
            StarfishBestCase().predict(small_wc, StageKind.MAP, 10.0)

    def test_unknown_substage_raises(self, cluster, small_wc):
        baseline = StarfishBestCase()
        baseline.profile(small_wc, cluster)
        with pytest.raises(ProfileError):
            baseline.predict(small_wc, StageKind.MAP, 10.0, "teleport")


class TestMRTuner:
    def test_prediction_constant_in_parallelism(self, cluster, small_ts):
        baseline = MRTunerBestCase(cluster, profiling_delta=10.0)
        t_low = baseline.predict(small_ts, StageKind.MAP, 10.0)
        t_high = baseline.predict(small_ts, StageKind.MAP, 160.0)
        assert t_low == t_high

    def test_matches_boe_at_profiling_point(self, cluster, small_ts):
        baseline = MRTunerBestCase(cluster, profiling_delta=10.0)
        boe = BOEModel(cluster)
        assert baseline.predict(small_ts, StageKind.MAP, 999.0) == pytest.approx(
            boe.task_time(small_ts, StageKind.MAP, 10.0).duration
        )

    def test_invalid_profiling_delta(self, cluster):
        with pytest.raises(ProfileError):
            MRTunerBestCase(cluster, profiling_delta=0.0)


class TestErnest:
    def test_fits_and_interpolates(self, small_wc):
        model = ErnestModel()
        # Synthetic ground truth: t = 2 + 100/delta.
        points = [(d, 2 + 100 / d) for d in (1, 2, 4, 8, 16)]
        model.fit(small_wc, StageKind.MAP, points)
        assert model.predict(small_wc, StageKind.MAP, 5.0) == pytest.approx(
            22.0, rel=0.05
        )

    def test_extrapolates_linear_term(self, small_wc):
        model = ErnestModel()
        points = [(d, 1.0 + 0.5 * d) for d in (1, 2, 4, 8)]
        model.fit(small_wc, StageKind.MAP, points)
        assert model.predict(small_wc, StageKind.MAP, 16.0) == pytest.approx(
            9.0, rel=0.15
        )

    def test_unfitted_raises(self, small_wc):
        with pytest.raises(ProfileError):
            ErnestModel().predict(small_wc, StageKind.MAP, 4.0)

    def test_too_few_points_rejected(self, small_wc):
        with pytest.raises(ProfileError):
            ErnestModel().fit(small_wc, StageKind.MAP, [(1.0, 2.0)])

    def test_nonpositive_delta_rejected(self, small_wc):
        model = ErnestModel()
        model.fit(small_wc, StageKind.MAP, [(1, 1.0), (2, 2.0)])
        with pytest.raises(ProfileError):
            model.predict(small_wc, StageKind.MAP, 0.0)

    def test_coefficients_are_scipy_nnls_bit_for_bit(self, small_wc):
        from scipy.optimize import nnls

        points = [(d, 3.0 + 70.0 / d + 0.02 * d) for d in (1, 2, 3, 5, 8, 13, 21)]
        model = ErnestModel()
        model.fit(small_wc, StageKind.MAP, points)
        X = np.stack([_features(d) for d, _ in points])
        expected, _ = nnls(X, np.array([t for _, t in points]))
        got = model._coeffs[(small_wc.name, StageKind.MAP, None)]
        assert got.tobytes() == expected.tobytes()

    def test_first_fit_in_a_fresh_process(self, fresh_python):
        """scipy is imported on the first fit, which gives the same bits
        as a direct ``nnls``."""
        probe = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.baselines.ernest import ErnestModel, _features\n"
            "from repro.mapreduce import MapReduceJob, StageKind\n"
            "assert 'scipy' not in sys.modules\n"
            "job = MapReduceJob(name='j', input_mb=1024.0)\n"
            "points = [(1, 9.0), (2, 5.5), (4, 4.0), (8, 3.5)]\n"
            "model = ErnestModel()\n"
            "model.fit(job, StageKind.MAP, points)\n"
            "from scipy.optimize import nnls\n"
            "X = np.stack([_features(d) for d, _ in points])\n"
            "expected, _ = nnls(X, np.array([t for _, t in points]))\n"
            "got = model._coeffs[('j', StageKind.MAP, None)]\n"
            "assert got.tobytes() == expected.tobytes(), (got, expected)\n"
        )
        fresh_python(probe)


class TestRegression:
    def test_fits_over_jobs(self, small_wc, small_ts):
        model = RegressionModel()
        observations = [
            (small_wc, StageKind.MAP, 10.0, 8.0),
            (small_wc, StageKind.MAP, 40.0, 9.0),
            (small_ts, StageKind.MAP, 10.0, 3.0),
            (small_ts, StageKind.MAP, 40.0, 6.0),
        ]
        model.fit(observations)
        pred = model.predict(small_wc, StageKind.MAP, 20.0)
        assert pred > 0

    def test_prediction_clamped_nonnegative(self, small_wc):
        model = RegressionModel()
        observations = [
            (small_wc, StageKind.MAP, 10.0, 1.0),
            (small_wc, StageKind.MAP, 20.0, 0.5),
            (small_wc, StageKind.MAP, 30.0, 0.1),
        ]
        model.fit(observations)
        assert model.predict(small_wc, StageKind.MAP, 500.0) >= 0.0

    def test_unfitted_raises(self, small_wc):
        with pytest.raises(ProfileError):
            RegressionModel().predict(small_wc, StageKind.MAP, 4.0)

    def test_too_few_points_rejected(self, small_wc):
        with pytest.raises(ProfileError):
            RegressionModel().fit([(small_wc, StageKind.MAP, 1.0, 1.0)])


class TestBOEPredictor:
    def test_adapts_boe_to_predictor_interface(self, cluster, small_ts):
        predictor = BOEPredictor(BOEModel(cluster))
        boe = BOEModel(cluster)
        assert predictor.predict(small_ts, StageKind.MAP, 40.0) == pytest.approx(
            boe.task_time(small_ts, StageKind.MAP, 40.0).duration
        )

    def test_substage_dispatch(self, cluster, small_ts):
        predictor = BOEPredictor(BOEModel(cluster))
        shuffle = predictor.predict(small_ts, StageKind.REDUCE, 40.0, "shuffle")
        whole = predictor.predict(small_ts, StageKind.REDUCE, 40.0)
        assert 0 < shuffle < whole

    def test_responds_to_parallelism_unlike_baselines(self, cluster, small_ts):
        predictor = BOEPredictor(BOEModel(cluster))
        assert predictor.predict(small_ts, StageKind.MAP, 160.0) > predictor.predict(
            small_ts, StageKind.MAP, 10.0
        )
