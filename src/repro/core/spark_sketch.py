"""Unbiased Space Saving as a Spark DataFrame aggregation (secs 5.3, 5.5).

This is the distributed form the paper designs the sketch for: each
partition builds a small unbiased sketch, the tiny per-partition
sketches are shipped to one place, and an unbiased merge (Theorem 2)
reduces them to a single ``m``-bin summary answering disaggregated
subset-sum and frequent-item queries.

Two per-partition strategies are provided:

* :func:`sketch_dataframe` (default, production path) — within each
  partition, Arrow batches are *exactly* aggregated by item and fed to
  the spill-reduce core (:mod:`repro.core.weighted`), which reduces by
  priority sampling (sec 5.3 multi-bin generalization) whenever its
  exact map exceeds a spill cap. Exact partial aggregation + unbiased
  reduction is itself an unbiased reduction operation, and it
  vectorizes, unlike the row-at-a-time update.
* :func:`sketch_dataframe_streamwise` — runs the literal Algorithm 1
  kernel over each partition's rows in order; used to validate that the
  production path matches the paper's process distributionally.

Layering note (DESIGN.md): a JVM ``TypedImperativeAggregate`` is out of
scope offline; ``mapInPandas`` + driver merge realizes the identical
partial-aggregate/final-merge dataflow through Catalyst's Arrow scan.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark import TaskContext
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.merge import merge_unbiased
from repro.core.result import CountSketchResult
from repro.core.space_saving import UnbiasedSpaceSaving
from repro.core.weighted import WeightedUnbiasedSpaceSaving

_NUMERIC = (
    T.ByteType, T.ShortType, T.IntegerType, T.LongType,
)


def _partition_id() -> int:
    ctx = TaskContext.get()
    return ctx.partitionId() if ctx is not None else 0


def _partition_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _partition_id()]))


def _part_frame(res: CountSketchResult) -> pd.DataFrame:
    """One partition's shipped sketch, in the schema of ``_schema``."""
    return pd.DataFrame(
        {
            "item": res.items.tolist(),
            "estimate": res.estimates,
            "threshold": res.threshold,
            "part_t": res.t,
            "pid": _partition_id(),
            "bad": 0,
        }
    )


def _schema(df: DataFrame, item_col: str) -> str:
    """Shipped-sketch schema: ``bad`` counts NaN or negative weights."""
    dt = df.schema[item_col].dataType
    if isinstance(dt, _NUMERIC):
        item_type = "long"
    elif isinstance(dt, T.StringType):
        item_type = "string"
    else:
        raise TypeError(
            f"item column {item_col!r} must be integral or string, got {dt}"
        )
    return (
        f"item {item_type}, estimate double, threshold double, "
        "part_t double, pid int, bad long"
    )


def sketch_dataframe(
    df: DataFrame,
    item_col: str,
    m: int,
    *,
    weight_col: str | None = None,
    seed: int = 0,
) -> CountSketchResult:
    """Build an m-bin unbiased count sketch of ``df`` grouped by ``item_col``.

    ``weight_col`` generalizes row counting to arbitrary non-negative
    per-row metrics (sec 5.3); a NULL weight counts as 0, and a NaN or
    negative one makes the call raise ``ValueError``. Each partition
    feeds its Arrow batches, exactly aggregated by item, to the
    spill-reduce core (:class:`WeightedUnbiasedSpaceSaving`), so it
    ships at most ``m`` bins. Rows with a NULL item are not counted.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    schema = _schema(df, item_col)
    cols = [F.col(item_col).alias("item")]
    if weight_col is not None:
        cols.append(
            F.coalesce(F.col(weight_col).cast("double"), F.lit(0.0)).alias("w")
        )
    projected = df.select(*cols)

    def build_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        core = WeightedUnbiasedSpaceSaving(m, seed=_partition_seed(seed))
        bad = 0
        for pdf in batches:
            if weight_col is None:
                agg = pdf["item"].value_counts()
            else:
                # counted here, raised on the driver: see _merge_parts
                bad += int((~(pdf["w"] >= 0)).sum())
                if bad:
                    continue
                agg = pdf.groupby("item", sort=False)["w"].sum()
            core.update_many(agg.index.tolist(), agg.to_numpy())
        if bad:  # one row with no item carries the count
            yield pd.DataFrame(
                {"item": [None], "estimate": 0.0, "threshold": 0.0,
                 "part_t": 0.0, "pid": _partition_id(), "bad": bad}
            )
        else:
            yield _part_frame(core.result())

    parts = projected.mapInPandas(build_partition, schema=schema).toPandas()
    return _merge_parts(parts, m, seed, weight_col)


def sketch_dataframe_streamwise(
    df: DataFrame,
    item_col: str,
    m: int,
    *,
    seed: int = 0,
) -> CountSketchResult:
    """Literal Algorithm 1 per partition, then the unbiased merge."""
    schema = _schema(df, item_col)

    def build_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        rng = _partition_seed(seed)
        sk = UnbiasedSpaceSaving(m, seed=int(rng.integers(2**63)))
        for pdf in batches:
            sk.update_many(pdf["item"].tolist())
        yield _part_frame(sk.result())

    parts = df.select(F.col(item_col).alias("item")).mapInPandas(
        build_partition, schema=schema
    ).toPandas()
    return _merge_parts(parts, m, seed, None)


def _merge_parts(
    parts: pd.DataFrame, m: int, seed: int, weight_col: str | None
) -> CountSketchResult:
    """Unbiased merge of the shipped partition sketches (Theorem 2).

    Raises the ``ValueError`` for NaN or negative weights that the
    partitions counted instead of sketching.
    """
    bad = int(parts["bad"].sum())
    if bad:
        raise ValueError(
            f"weight_col {weight_col!r} has {bad} NaN or negative values; "
            "weights must be >= 0 (NULL counts as 0)"
        )
    shards = [
        CountSketchResult(
            g["item"].to_numpy(),
            g["estimate"].to_numpy(),
            float(g["threshold"].iat[0]),
            float(g["part_t"].iat[0]),
        )
        for _, g in parts.groupby("pid", sort=False)
    ]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1 << 20]))
    return merge_unbiased(shards, m, rng=rng)


def exact_counts(
    df: DataFrame, item_col: str, *, weight_col: str | None = None
) -> DataFrame:
    """Exact pre-aggregation ``item -> n_i`` (the expensive ground truth).

    Used for oracle checks and to feed the pre-aggregated baselines
    (priority sampling, bottom-k).
    """
    if weight_col is None:
        return df.groupBy(F.col(item_col).alias("item")).agg(
            F.count(F.lit(1)).cast("double").alias("n")
        )
    return df.groupBy(F.col(item_col).alias("item")).agg(
        F.sum(F.col(weight_col).cast("double")).alias("n")
    )
