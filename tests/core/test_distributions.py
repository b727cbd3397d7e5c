"""Tests for repro.core.distributions — wave arithmetic and variants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distributions import (
    TaskTimeDistribution,
    Variant,
    completion_rate,
    stage_time,
    wave_sizes,
)
from repro.errors import EstimationError


class TestDistribution:
    def test_from_durations(self):
        dist = TaskTimeDistribution.from_durations([1.0, 2.0, 3.0, 10.0])
        assert dist.mean == pytest.approx(4.0)
        assert dist.median == pytest.approx(2.5)
        assert dist.n == 4
        assert dist.std > 0

    def test_point_distribution(self):
        dist = TaskTimeDistribution.point(5.0)
        assert dist.mean == dist.median == 5.0
        assert dist.std == 0.0

    def test_statistic_dispatch(self):
        dist = TaskTimeDistribution(mean=4.0, median=3.0, std=1.0)
        assert dist.statistic(Variant.MEAN) == 4.0
        assert dist.statistic(Variant.MEDIAN) == 3.0
        assert dist.statistic(Variant.NORMAL) == 4.0

    def test_empty_durations_rejected(self):
        with pytest.raises(EstimationError):
            TaskTimeDistribution.from_durations([])

    def test_negative_moments_rejected(self):
        with pytest.raises(EstimationError):
            TaskTimeDistribution(mean=-1.0, median=1.0)

    def test_scaled(self):
        dist = TaskTimeDistribution(mean=4.0, median=3.0, std=1.0).scaled(2.0)
        assert (dist.mean, dist.median, dist.std) == (8.0, 6.0, 2.0)


class TestWaveMax:
    def test_single_task_is_mean(self):
        dist = TaskTimeDistribution(mean=10.0, median=10.0, std=2.0)
        assert dist.expected_wave_max(1) == 10.0

    def test_zero_std_is_mean(self):
        dist = TaskTimeDistribution.point(10.0)
        assert dist.expected_wave_max(100) == 10.0

    def test_grows_with_wave_size(self):
        dist = TaskTimeDistribution(mean=10.0, median=10.0, std=2.0)
        assert dist.expected_wave_max(4) < dist.expected_wave_max(64)

    def test_blom_approximation_value(self):
        # For k=10, Phi^-1((10-0.375)/(10+0.25)) = Phi^-1(0.93902) ~= 1.5466.
        dist = TaskTimeDistribution(mean=0.0, median=0.0, std=1.0)
        assert dist.expected_wave_max(10) == pytest.approx(1.5466, abs=1e-3)

    def test_nonpositive_wave_rejected(self):
        with pytest.raises(EstimationError):
            TaskTimeDistribution.point(1.0).expected_wave_max(0)

    @pytest.mark.parametrize("mean,std", [(0.0, 1.0), (37.25, 4.125)])
    def test_blom_quantile_is_scipy_norm_ppf_bit_for_bit(self, mean, std):
        from scipy.stats import norm

        dist = TaskTimeDistribution(mean=mean, median=mean, std=std)
        for k in range(1, 5001):
            expected = mean + std * float(norm.ppf((k - 0.375) / (k + 0.25)))
            assert dist.expected_wave_max(k) == expected, k

    def test_first_call_in_a_fresh_process(self, fresh_python):
        """scipy is imported on first use, and that first call gives the
        same bits as a direct ``norm.ppf``."""
        probe = (
            "import sys\n"
            "from repro.core.distributions import TaskTimeDistribution\n"
            "assert 'scipy' not in sys.modules\n"
            "got = TaskTimeDistribution(mean=3.0, median=3.0, std=0.5)"
            ".expected_wave_max(10)\n"
            "from scipy.stats import norm\n"
            "assert got == 3.0 + 0.5 * float(norm.ppf(9.625 / 10.25)), got\n"
        )
        fresh_python(probe)


class TestWaveSizes:
    def test_exact_division(self):
        assert wave_sizes(8, 4) == [4, 4]

    def test_ragged_final_wave(self):
        assert wave_sizes(10, 4) == [4, 4, 2]

    def test_single_wave(self):
        assert wave_sizes(3, 10) == [3]

    def test_fractional_tasks_round_up_last(self):
        assert wave_sizes(4.5, 4) == [4, 1]

    def test_zero_tasks(self):
        assert wave_sizes(0, 4) == []

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(EstimationError):
            wave_sizes(4, 0)


class TestStageTime:
    def test_mean_variant_counts_waves(self):
        dist = TaskTimeDistribution.point(10.0)
        assert stage_time(8, 4, dist, Variant.MEAN) == pytest.approx(20.0)
        assert stage_time(9, 4, dist, Variant.MEAN) == pytest.approx(30.0)

    def test_median_variant(self):
        dist = TaskTimeDistribution(mean=10.0, median=8.0)
        assert stage_time(4, 4, dist, Variant.MEDIAN) == pytest.approx(8.0)

    def test_normal_single_wave_pays_straggler_tail(self):
        dist = TaskTimeDistribution(mean=10.0, median=10.0, std=2.0)
        t = stage_time(16, 16, dist, Variant.NORMAL)
        assert t == pytest.approx(dist.expected_wave_max(16))
        assert t > 10.0

    def test_normal_body_drains_at_mean_throughput(self):
        """Only the final wave pays the straggler tail; earlier tasks
        pipeline, so the normal estimate is far below max-per-wave."""
        dist = TaskTimeDistribution(mean=10.0, median=10.0, std=2.0)
        t = stage_time(160, 16, dist, Variant.NORMAL)
        barrier_model = 10 * dist.expected_wave_max(16)
        assert t < barrier_model
        assert t == pytest.approx(
            (160 - 16) / 16 * 10.0 + dist.expected_wave_max(16)
        )

    def test_zero_tasks_is_zero_time(self):
        assert stage_time(0, 4, TaskTimeDistribution.point(10.0)) == 0.0

    def test_normal_reduces_to_mean_without_spread(self):
        dist = TaskTimeDistribution.point(10.0)
        assert stage_time(32, 8, dist, Variant.NORMAL) == pytest.approx(
            stage_time(32, 8, dist, Variant.MEAN)
        )

    @given(
        n=st.integers(1, 500),
        delta=st.floats(1.0, 100.0),
        mean=st.floats(0.1, 100.0),
        std_frac=st.floats(0.0, 0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_stage_time_lower_bound(self, n, delta, mean, std_frac):
        """No variant can beat perfect pipelining at mean task time."""
        dist = TaskTimeDistribution(mean=mean, median=mean, std=mean * std_frac)
        for variant in Variant:
            t = stage_time(n, delta, dist, variant)
            assert t >= (n / max(delta, n)) * mean * 0.999


class TestCompletionRate:
    def test_rate_is_delta_over_task_time(self):
        dist = TaskTimeDistribution.point(10.0)
        assert completion_rate(40.0, dist) == pytest.approx(4.0)

    def test_normal_rate_slower_under_spread(self):
        spread = TaskTimeDistribution(mean=10.0, median=10.0, std=3.0)
        point = TaskTimeDistribution.point(10.0)
        assert completion_rate(40.0, spread, Variant.NORMAL) < completion_rate(
            40.0, point, Variant.NORMAL
        )

    def test_zero_task_time_rejected(self):
        with pytest.raises(EstimationError):
            completion_rate(4.0, TaskTimeDistribution.point(0.0))
