"""Priority sampling baseline tests (Duffield et al.)."""
import numpy as np
import pytest

from repro.sampling.priority import PrioritySample, priority_sample


def _weights(seed=0, n=60):
    g = np.random.default_rng(seed)
    return np.arange(n) % 17 + 1.0, g


class TestStructure:
    def test_keep_all_when_small(self):
        items = np.arange(3)
        w = np.asarray([1.0, 2, 3])
        ps = priority_sample(items, w, 5, np.random.default_rng(0))
        assert ps.tau == 0.0
        assert (ps.estimates == w).all()

    def test_sample_size(self):
        w, g = _weights()
        ps = priority_sample(np.arange(len(w)), w, 10, g)
        assert len(ps.items) == 10

    def test_estimates_at_least_weight_or_tau(self):
        w, g = _weights(1)
        ps = priority_sample(np.arange(len(w)), w, 10, g)
        assert (ps.estimates >= ps.weights - 1e-12).all()
        assert (ps.estimates >= min(ps.tau, ps.estimates.max()) - 1e-12).all()
        assert np.allclose(ps.estimates, np.maximum(ps.weights, ps.tau))

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            priority_sample(
                np.arange(2), np.asarray([0.0, 1.0]), 1, np.random.default_rng(0)
            )

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            priority_sample(
                np.arange(3), np.asarray([1.0, 2.0]), 1, np.random.default_rng(0)
            )


class TestUnbiasedness:
    def test_subset_sum_unbiased_mc(self):
        w, _ = _weights(2)
        items = np.arange(len(w))
        subset = set(range(0, len(w), 3))
        truth = sum(w[i] for i in subset)
        reps = 5000
        tot = 0.0
        g = np.random.default_rng(3)
        for _ in range(reps):
            ps = priority_sample(items, w, 12, g)
            tot += ps.subset_sum(subset)
        assert abs(tot / reps - truth) < 0.05 * truth

    def test_total_sum_unbiased_but_noisy(self):
        # sec 7: priority sampling does not conserve the total exactly
        w = np.full(50, 4.0)
        items = np.arange(50)
        g = np.random.default_rng(4)
        ests = [
            priority_sample(items, w, 10, g).subset_sum(set(items.tolist()))
            for _ in range(2000)
        ]
        ests = np.asarray(ests)
        assert ests.std() > 0  # noisy
        assert abs(ests.mean() - 200.0) < 0.05 * 200.0  # but unbiased

    def test_variance_estimator_scale(self):
        w, _ = _weights(5)
        items = np.arange(len(w))
        subset = set(items.tolist())
        g = np.random.default_rng(6)
        ests, vars_ = [], []
        for _ in range(2000):
            ps = priority_sample(items, w, 15, g)
            ests.append(ps.subset_sum(subset))
            vars_.append(ps.subset_sum_variance(subset))
        emp_var = np.var(ests)
        mean_est_var = np.mean(vars_)
        # the plug-in is the Poisson-PPS approximation: right order of magnitude
        assert 0.3 * emp_var < mean_est_var < 3.0 * emp_var


class TestPseudoProbs:
    """The variance plug-in uses pseudo-inclusion ``pi_i = min(1, n_i/tau)``."""

    def test_clip_at_one(self):
        ps = PrioritySample(
            np.asarray([0, 1]), np.asarray([1.0, 10.0]), np.asarray([5.0, 10.0]), 5.0
        )
        # HT variance n^2 (1 - pi) / pi^2 with pi = 0.2; pi clipped to 1 gives 0
        assert np.isclose(ps.subset_sum_variance({0}), 1.0 * 0.8 / 0.2**2)
        assert ps.subset_sum_variance({1}) == 0.0

    def test_tau_zero_all_ones(self):
        w = np.asarray([1.0, 2.0])
        ps = priority_sample(np.arange(2), w, 5, np.random.default_rng(0))
        assert ps.tau == 0.0
        assert ps.subset_sum_variance({0, 1}) == 0.0
        assert ps.subset_sum({0, 1}) == 3.0
