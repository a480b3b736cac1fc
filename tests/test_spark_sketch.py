"""Spark DataFrame sketch operator tests (distributed dataflow)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.spark_sketch import (
    exact_counts,
    sketch_dataframe,
    sketch_dataframe_streamwise,
)
from repro.oracle import assert_equivalent
from repro.synth_data import lineitem


@pytest.fixture(scope="module")
def li(spark):
    df = lineitem(spark, sf=0.005).repartition(8).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def truth(li):
    return exact_counts(li, "l_partkey").toPandas().set_index("item")["n"]


class TestExactCounts:
    def test_matches_duckdb(self, spark, li):
        got = exact_counts(li, "l_partkey")
        assert_equivalent(
            got,
            "SELECT l_partkey AS item, CAST(count(*) AS DOUBLE) AS n "
            "FROM li GROUP BY l_partkey",
            li=li,
        )

    def test_weighted_matches_duckdb(self, spark, li):
        got = exact_counts(li, "l_partkey", weight_col="l_quantity")
        assert_equivalent(
            got,
            "SELECT l_partkey AS item, CAST(sum(l_quantity) AS DOUBLE) AS n "
            "FROM li GROUP BY l_partkey",
            li=li,
        )


class TestSketchDataFrame:
    def test_size_bounded(self, spark, li):
        res = sketch_dataframe(li, "l_partkey", 100, seed=0)
        assert len(res) <= 100

    def test_total_mass_exact(self, spark, li, truth):
        res = sketch_dataframe(li, "l_partkey", 100, seed=1)
        assert res.t == truth.sum()

    def test_exact_when_m_large(self, spark, li, truth):
        m = len(truth) + 10
        res = sketch_dataframe(li, "l_partkey", m, seed=2)
        est = res.estimates_dict()
        assert len(est) == len(truth)
        for item, n in truth.items():
            assert est[item] == pytest.approx(n)

    def test_subset_estimate_reasonable(self, spark, li, truth):
        res = sketch_dataframe(li, "l_partkey", 300, seed=3)
        subset = set(range(1, 301))
        true = float(truth[truth.index.isin(subset)].sum())
        est, var, lo, hi = res.subset_sum_ci(subset)
        assert abs(est - true) < 6 * np.sqrt(var) + 1e-9

    def test_weight_col(self, spark, li):
        res = sketch_dataframe(
            li, "l_partkey", 200, weight_col="l_quantity", seed=4
        )
        w_truth = (
            exact_counts(li, "l_partkey", weight_col="l_quantity")
            .toPandas()["n"].sum()
        )
        assert res.t == pytest.approx(w_truth)

    def test_string_items(self, spark):
        pdf = pd.DataFrame({"k": [f"id{i % 7}" for i in range(200)]})
        df = spark.createDataFrame(pdf).repartition(4)
        res = sketch_dataframe(df, "k", 5, seed=5)
        assert res.t == 200.0
        assert all(isinstance(x, str) for x in res.items)

    def test_unsupported_type_rejected(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": [1.5, 2.5]}))
        with pytest.raises(TypeError):
            sketch_dataframe(df, "k", 5)

    def test_seed_reproducible(self, spark, li):
        a = sketch_dataframe(li, "l_partkey", 50, seed=7)
        b = sketch_dataframe(li, "l_partkey", 50, seed=7)
        assert a.estimates_dict() == b.estimates_dict()

    def test_unbiased_over_seeds(self, spark, li, truth):
        """Mean estimate over sketch seeds approaches the true subset sum."""
        subset = set(range(1, 201))
        true = float(truth[truth.index.isin(subset)].sum())
        reps = 12
        ests = [
            sketch_dataframe(li, "l_partkey", 150, seed=100 + r).subset_sum(subset)[0]
            for r in range(reps)
        ]
        se = np.std(ests, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(ests) - true) < 5 * se + 0.05 * true


class TestWeights:
    @staticmethod
    def _frame(spark, bad_weight):
        """5000 distinct keys in 4 partitions; even keys get ``bad_weight``."""
        return spark.range(0, 5000, 1, 4).select(
            F.col("id").alias("k"),
            F.when(F.col("id") % 2 == 0, F.lit(bad_weight).cast("double"))
            .otherwise(F.col("id") % 7 + 0.5)
            .alias("w"),
        )

    def test_null_weights_count_as_zero(self, spark):
        """m=100 spills every partition while half its keys have no mass."""
        df = self._frame(spark, None)
        res = sketch_dataframe(df, "k", 100, weight_col="w", seed=0)
        keys = np.arange(5000)
        w = np.where(keys % 2 == 0, 0.0, keys % 7 + 0.5)
        assert res.t == pytest.approx(w.sum())
        assert 0 < len(res) <= 100
        assert np.isfinite(res.estimates).all() and (res.estimates > 0).all()
        assert not (res.items % 2 == 0).any()
        est, var, lo, hi = res.subset_sum_ci(set(range(2500)))
        assert abs(est - w[:2500].sum()) < 6 * np.sqrt(var)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_nan_and_negative_weights_raise_on_driver(self, spark, bad):
        df = self._frame(spark, bad)
        with pytest.raises(ValueError, match="weight_col 'w' has 2500 NaN or negative"):
            sketch_dataframe(df, "k", 100, weight_col="w", seed=0)


class TestStreamwise:
    def test_total_and_size(self, spark, li, truth):
        res = sketch_dataframe_streamwise(li, "l_partkey", 100, seed=0)
        assert len(res) <= 100
        assert res.t == truth.sum()

    def test_agrees_with_production_path(self, spark, li, truth):
        """Both paths estimate the same subset with comparable accuracy."""
        subset = set(range(1, 301))
        true = float(truth[truth.index.isin(subset)].sum())
        a = sketch_dataframe(li, "l_partkey", 300, seed=1)
        b = sketch_dataframe_streamwise(li, "l_partkey", 300, seed=1)
        for res in (a, b):
            est, var, lo, hi = res.subset_sum_ci(subset)
            assert abs(est - true) < 6 * np.sqrt(max(var, 1.0))


class TestEmptyAndEdge:
    def test_empty_dataframe(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"k": pd.Series([], dtype="int64")}), schema="k long"
        )
        res = sketch_dataframe(df, "k", 5, seed=0)
        assert len(res) == 0 and res.t == 0.0

    def test_single_partition(self, spark):
        pdf = pd.DataFrame({"k": np.arange(100) % 10})
        df = spark.createDataFrame(pdf).coalesce(1)
        res = sketch_dataframe(df, "k", 20, seed=0)
        assert res.t == 100.0
        assert res.estimate(0) == 10.0
