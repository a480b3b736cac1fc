"""Weighted Unbiased Space Saving tests (sec 5.3 generalization)."""
import numpy as np
import pytest

import repro.core.weighted as weighted
from repro.core.weighted import WeightedUnbiasedSpaceSaving


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedUnbiasedSpaceSaving(0)

    def test_negative_weight_rejected(self):
        sk = WeightedUnbiasedSpaceSaving(3, seed=0)
        with pytest.raises(ValueError):
            sk.add("a", -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), -0.5])
    def test_nan_and_negative_weights_rejected(self, bad):
        sk = WeightedUnbiasedSpaceSaving(20, seed=0)
        sk.update_many(range(10), np.ones(10))
        with pytest.raises(ValueError):
            sk.add("x", bad)
        with pytest.raises(ValueError):
            sk.update_many(["a", "b"], [1.0, bad])
        # a rejected batch leaves the sketch untouched
        assert sk.t == 10.0 and sk.estimates() == {i: 1.0 for i in range(10)}

    def test_zero_weight_items_dropped_at_reduction(self):
        sk = WeightedUnbiasedSpaceSaving(2, seed=0)
        sk.update_many(range(40), [0.0] * 38 + [1.0, 2.0])
        assert sk.estimates() == {38: 1.0, 39: 2.0}
        assert sk.result().threshold == 0.0

    def test_exact_when_under_capacity(self):
        sk = WeightedUnbiasedSpaceSaving(5, seed=0)
        sk.add("a", 2.5)
        sk.add("b", 1.0)
        sk.add("a", 0.5)
        assert sk.estimates() == {"a": 3.0, "b": 1.0}
        assert sk.t == 4.0

    def test_size_bounded(self):
        sk = WeightedUnbiasedSpaceSaving(4, seed=1)
        for i in range(100):
            sk.add(i, 1.0 + (i % 7))
        assert len(sk.estimates()) <= 4

    def test_update_many_unit_weights(self):
        sk = WeightedUnbiasedSpaceSaving(10, seed=0)
        sk.update_many(list("aabbb"))
        assert sk.estimates() == {"a": 2.0, "b": 3.0}

    def test_result_container(self):
        sk = WeightedUnbiasedSpaceSaving(10, seed=0)
        sk.update_many(list("aabbb"))
        res = sk.result()
        assert res.t == 5.0
        assert res.estimate("b") == 3.0


class TestUnbiasedness:
    def test_monte_carlo_unbiased_weighted(self):
        weights = {0: 12.0, 1: 7.0, 2: 1.5, 3: 1.5, 4: 1.5, 5: 1.5}
        rows = [(i, w / 3) for i, w in weights.items() for _ in range(3)]
        reps = 4000
        acc = np.zeros(len(weights))
        for r in range(reps):
            rng = np.random.default_rng(r)
            order = rng.permutation(len(rows))
            sk = WeightedUnbiasedSpaceSaving(3, seed=10_000 + r)
            for j in order:
                sk.add(*rows[j])
            for i in weights:
                acc[i] += sk.estimates().get(i, 0.0)
        means = acc / reps
        for i, w in weights.items():
            assert abs(means[i] - w) < 0.15 * w + 0.3, (i, means[i], w)

    def test_monte_carlo_unbiased_spill_heavy(self, monkeypatch):
        """m=2 over 60 distinct items: every stream reduces at least 3 times
        mid-stream, zero-weight items included, and stays unbiased."""
        w = np.concatenate([[20.0, 12.0, 8.0], np.linspace(0.5, 3.0, 50), np.zeros(7)])
        rows = [(i, wi / 2) for i, wi in enumerate(w) for _ in range(2)]
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return reduce_counts(*args, **kwargs)

        reduce_counts = weighted.reduce_counts
        monkeypatch.setattr(weighted, "reduce_counts", counting)
        reps = 8000
        est = np.zeros((reps, len(w)))
        for r in range(reps):
            rng = np.random.default_rng(r)
            sk = WeightedUnbiasedSpaceSaving(2, seed=rng)
            calls.clear()
            for j in rng.permutation(len(rows)):
                sk.add(*rows[j])
            assert len(calls) >= 3
            for x, e in sk.estimates().items():
                est[r, x] = e
        means = est.mean(axis=0)
        se = est.std(axis=0, ddof=1) / np.sqrt(reps)
        assert (np.abs(means - w) <= 4.5 * se).all()
        assert (est[:, w == 0] == 0).all()
        totals = est.sum(axis=1)
        tot_se = totals.std(ddof=1) / np.sqrt(reps)
        assert 4 * tot_se < 0.05 * w.sum()  # resolves a 5% bias
        assert abs(totals.mean() - w.sum()) < 0.05 * w.sum()

    def test_total_unbiased(self):
        reps = 2000
        tot = 0.0
        for r in range(reps):
            sk = WeightedUnbiasedSpaceSaving(2, seed=r)
            for i in range(10):
                sk.add(i, float(i + 1))
            tot += sum(sk.estimates().values())
        assert abs(tot / reps - 55.0) < 0.06 * 55.0
