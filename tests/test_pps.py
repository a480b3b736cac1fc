"""PPS machinery tests: thresholded probabilities, splitting."""
import numpy as np
import pytest

from repro.sampling.pps import splitting_pps_sample, thresholded_pps_probs


class TestThresholdedProbs:
    def test_sum_equals_k(self):
        w = np.asarray([1.0, 2, 3, 4, 100])
        for k in (1, 2, 3, 4):
            pi = thresholded_pps_probs(w, k)
            assert np.isclose(pi.sum(), k)

    def test_k_at_least_n_gives_ones(self):
        w = np.asarray([1.0, 2, 3])
        assert (thresholded_pps_probs(w, 3) == 1).all()
        assert (thresholded_pps_probs(w, 10) == 1).all()

    def test_k_zero(self):
        assert (thresholded_pps_probs(np.asarray([1.0, 2]), 0) == 0).all()

    def test_proportional_when_no_pinning(self):
        w = np.asarray([1.0, 2, 3, 4])
        pi = thresholded_pps_probs(w, 2)
        assert np.allclose(pi / w, pi[0] / w[0])

    def test_huge_item_pinned(self):
        w = np.asarray([1.0, 1, 1, 1000])
        pi = thresholded_pps_probs(w, 2)
        assert pi[3] == 1.0
        assert np.allclose(pi[:3], 1 / 3)

    def test_paper_example_1_1_10(self):
        # sec 5.1: values 1,1,10 and k=2 -> the big item is pinned
        pi = thresholded_pps_probs(np.asarray([1.0, 1, 10]), 2)
        assert pi[2] == 1.0 and np.allclose(pi[:2], 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            thresholded_pps_probs(np.asarray([-1.0, 2]), 1)

    def test_monotone_in_weight(self):
        w = np.asarray([1.0, 5, 2, 9, 3])
        pi = thresholded_pps_probs(w, 2)
        order = np.argsort(w)
        assert (np.diff(pi[order]) >= -1e-12).all()


class TestSplittingSample:
    def test_fixed_size(self):
        rng = np.random.default_rng(0)
        w = np.asarray([1.0, 2, 3, 4, 5, 100])
        for k in (1, 2, 3, 5):
            mask, pi = splitting_pps_sample(w, k, rng)
            assert mask.sum() == k

    def test_marginals_match_pi(self):
        rng = np.random.default_rng(1)
        w = np.asarray([1.0, 2, 3, 4, 20])
        k = 3
        pi = thresholded_pps_probs(w, k)
        reps = 6000
        hits = np.zeros(len(w))
        for _ in range(reps):
            mask, _ = splitting_pps_sample(w, k, rng)
            hits += mask
        emp = hits / reps
        se = np.sqrt(pi * (1 - pi) / reps)
        assert (np.abs(emp - pi) < 5 * se + 1e-9).all()

    def test_certainty_items_always_kept(self):
        rng = np.random.default_rng(2)
        w = np.asarray([1.0, 1, 1, 500])
        for _ in range(50):
            mask, pi = splitting_pps_sample(w, 2, rng)
            assert mask[3]

    def test_ht_total_unbiased(self):
        rng = np.random.default_rng(3)
        w = np.asarray([3.0, 7, 11, 2, 30, 5])
        k = 3
        reps = 4000
        tot = 0.0
        for _ in range(reps):
            mask, pi = splitting_pps_sample(w, k, rng)
            tot += (w[mask] / pi[mask]).sum()
        assert abs(tot / reps - w.sum()) < 0.05 * w.sum()


class TestPoissonSample:
    def test_expected_size(self):
        """Poisson sampling with ``thresholded_pps_probs`` has expected size k."""
        rng = np.random.default_rng(4)
        pi = thresholded_pps_probs(np.asarray([1.0, 2, 3, 4, 5]), 3)
        sizes = [(rng.random(5) < pi).sum() for _ in range(3000)]
        assert abs(np.mean(sizes) - 3) < 0.1


class TestHT:
    def test_exact_when_all_sampled(self):
        w = np.asarray([1.0, 2, 3])
        mask, pi = splitting_pps_sample(w, 3, np.random.default_rng(0))
        assert mask.all() and (pi == 1).all()
        assert (w[mask] / pi[mask]).sum() == 6.0
