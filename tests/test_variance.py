"""Variance estimator and confidence interval tests (sec 6.4-6.5)."""
import numpy as np

from repro.core.result import CountSketchResult
from repro.core.space_saving import UnbiasedSpaceSaving
from repro.core.variance import (
    coverage,
    pps_reference_variance,
    subset_sum_variance,
)
from repro.streams.orders import permuted_stream
from repro.streams.weibull import weibull_counts


class TestFormulas:
    def test_eq5(self):
        assert subset_sum_variance(7, 4) == 49 * 4
        assert subset_sum_variance(7, 0) == 49  # C_S floored at 1

    def test_normal_ci_symmetric(self):
        res = CountSketchResult(np.asarray([1]), np.asarray([100.0]), 5.0, 100.0)
        est, var, lo, hi = res.subset_sum_ci({1}, level=0.95)
        assert var == 25.0
        assert np.isclose(hi - 100.0, 100.0 - lo)
        assert np.isclose(hi - lo, 2 * 1.959964 * 5, atol=1e-3)

    def test_normal_ci_zero_variance(self):
        """A sketch that never dropped an item has N_min = 0: its CI is a point."""
        uss = UnbiasedSpaceSaving(10, seed=0)
        uss.update_many([1, 2, 2, 3, 3, 3])
        est, var, lo, hi = uss.result().subset_sum_ci({2, 3})
        assert var == 0.0 and lo == hi == est == 5.0

    def test_coverage(self):
        lows = np.asarray([0.0, 5.0, 11.0])
        highs = np.asarray([10.0, 20.0, 12.0])
        assert coverage(10.0, lows, highs) == 2 / 3


class TestPPSReference:
    def test_zero_for_certainty_items(self):
        counts = np.asarray([1.0, 1, 1, 100])
        mask = np.asarray([False, False, False, True])
        # the huge item has pi=1: zero sampling variance
        assert pps_reference_variance(counts, mask, 2) == 0.0

    def test_positive_for_tail(self):
        counts = np.asarray([1.0] * 50)
        mask = np.ones(50, dtype=bool)
        assert pps_reference_variance(counts, mask, 10) > 0

    def test_decreases_with_m(self):
        counts = np.arange(1.0, 101)
        mask = np.ones(100, dtype=bool)
        v_small = pps_reference_variance(counts, mask, 10)
        v_large = pps_reference_variance(counts, mask, 50)
        assert v_large < v_small


class TestEstimatorCalibration:
    def test_upward_biased_on_iid(self):
        """Eq. 5 is designed to over- not under-estimate the variance."""
        counts = weibull_counts(300, shape=0.5, target_total=30_000)
        subset = set(range(0, len(counts), 3))
        truth = float(counts[::3].sum())
        m = 60
        reps = 300
        ests, var_hats = [], []
        for r in range(reps):
            rng = np.random.default_rng(r)
            stream = permuted_stream(counts, rng)
            sk = UnbiasedSpaceSaving.from_stream(stream.tolist(), m, seed=r)
            est, var, _, _ = sk.subset_sum_ci(subset)
            ests.append(est)
            var_hats.append(var)
        emp_var = float(np.var(ests, ddof=1))
        assert np.mean(var_hats) > 0.8 * emp_var  # not an underestimate

    def test_ci_coverage_iid(self):
        counts = weibull_counts(300, shape=0.5, target_total=30_000)
        subset = set(range(0, len(counts), 2))
        truth = float(counts[::2].sum())
        m = 60
        reps = 200
        hit = 0
        for r in range(reps):
            rng = np.random.default_rng(1000 + r)
            stream = permuted_stream(counts, rng)
            sk = UnbiasedSpaceSaving.from_stream(stream.tolist(), m, seed=r)
            _, _, lo, hi = sk.subset_sum_ci(subset)
            hit += lo <= truth <= hi
        assert hit / reps >= 0.9  # advertised 95%, allow MC noise
