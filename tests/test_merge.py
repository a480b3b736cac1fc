"""Merge operation tests (sec 5.5, Theorem 2)."""
import random

import numpy as np
import pytest

from repro.core.merge import merge_unbiased, reduce_counts
from repro.core.space_saving import UnbiasedSpaceSaving


def _sketch(stream, m, seed):
    return UnbiasedSpaceSaving.from_stream(stream, m, seed=seed)


class TestReduceCounts:
    def test_no_reduction_when_small(self):
        items = np.arange(3)
        counts = np.asarray([1.0, 2, 3])
        res = reduce_counts(items, counts, 5, np.random.default_rng(0))
        assert res.threshold == 0.0 and (res.estimates == counts).all()

    @pytest.mark.parametrize("method", ["priority", "pps"])
    def test_size_bound(self, method):
        g = np.random.default_rng(1)
        res = reduce_counts(
            np.arange(50), np.arange(1.0, 51), 10, g, method=method
        )
        assert len(res) <= 10

    @pytest.mark.parametrize("method", ["priority", "pps"])
    def test_unbiased_per_item(self, method):
        items = np.arange(6)
        counts = np.asarray([1.0, 2, 3, 4, 5, 50])
        reps = 6000
        acc = np.zeros(6)
        for r in range(reps):
            res = reduce_counts(
                items, counts, 3, np.random.default_rng(r), method=method
            )
            for it, est in zip(res.items, res.estimates):
                acc[int(it)] += est
        means = acc / reps
        assert np.allclose(means, counts, rtol=0.1, atol=0.3)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            reduce_counts(
                np.arange(2), np.ones(2), 1, np.random.default_rng(0), method="x"
            )

    def test_pps_conserves_total(self):
        counts = np.asarray([1.0, 2, 3, 4, 5, 50, 7, 9])
        for r in range(20):
            res = reduce_counts(
                np.arange(8), counts, 3, np.random.default_rng(r), method="pps"
            )
            assert res.estimates.sum() == pytest.approx(counts.sum())

    def test_t_preserved(self):
        g = np.random.default_rng(2)
        counts = np.arange(1.0, 21)
        res = reduce_counts(np.arange(20), counts, 5, g)
        assert res.t == counts.sum()


class TestMergeUnbiased:
    def test_exact_union_when_few_items(self):
        a = _sketch(list("aab"), 5, 0)
        b = _sketch(list("bcc"), 5, 1)
        res = merge_unbiased([a, b], 10, rng=np.random.default_rng(0))
        assert res.estimates_dict() == {"a": 2.0, "b": 2.0, "c": 2.0}

    def test_merge_accepts_mappings_and_results(self):
        res1 = merge_unbiased(
            [{"a": 3.0}, {"a": 1.0, "b": 2.0}], 5, rng=np.random.default_rng(1)
        )
        res2 = merge_unbiased([res1], 5, rng=np.random.default_rng(2))
        assert res2.estimates_dict() == {"a": 4.0, "b": 2.0}

    def test_merged_unbiased_mc(self):
        """Distributed counting: two sketch halves, merged, stays unbiased."""
        counts = {0: 30, 1: 20, 2: 4, 3: 4, 4: 4, 5: 4, 6: 4}
        half1 = [i for i, c in counts.items() for _ in range(c // 2)]
        half2 = [i for i, c in counts.items() for _ in range(c - c // 2)]
        m = 4
        reps = 4000
        acc = np.zeros(len(counts))
        for r in range(reps):
            rng = np.random.default_rng(r)
            s1, s2 = list(half1), list(half2)
            rng.shuffle(s1)
            rng.shuffle(s2)
            a = _sketch(s1, m, 3 * r)
            b = _sketch(s2, m, 3 * r + 1)
            merged = merge_unbiased(
                [a, b], m, rng=np.random.default_rng(3 * r + 2)
            )
            for i in counts:
                acc[i] += merged.estimate(i)
        means = acc / reps
        for i, c in counts.items():
            assert abs(means[i] - c) < 0.12 * c + 0.7, (i, means[i], c)

    def test_merge_size_bound(self):
        rng = random.Random(0)
        a = _sketch([rng.randrange(100) for _ in range(500)], 10, 0)
        b = _sketch([rng.randrange(100, 200) for _ in range(500)], 10, 1)
        res = merge_unbiased([a, b], 10, rng=np.random.default_rng(0))
        assert len(res) <= 10
        assert res.threshold > 0

    def test_threshold_covers_shard_n_min(self):
        """The merged eq.-5 threshold is never below a shard's own N_min."""
        rng = random.Random(1)
        shards = [
            _sketch([rng.randrange(40) for _ in range(400)], 5, s) for s in range(4)
        ]
        res = merge_unbiased(shards, 50, rng=np.random.default_rng(0))
        assert len(res) == len({x for s in shards for x in s.estimates()})
        assert res.threshold >= max(s.n_min for s in shards) > 0
        assert res.t == 1600.0
