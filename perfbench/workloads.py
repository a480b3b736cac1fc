"""The three workloads, the extra layer probes of the traced run, and Spark.

A workload generates its inputs from the seed in ``setup`` (before any
timing), runs one checked warm-up op, and then serves ``op(i)``: one
closed-loop operation whose outputs are checked against exact answers.
``op`` returns the op's wall times as ``slots``: one
``(host factor, sketch seconds, query microseconds)`` per stretch of the
op between two :meth:`HostSpeed.mark` calls (see ``harness``; Spark's
work gets factor 1.0, see ``SparkLineitem.at_ref_speed``); per-layer
figures come from the spans the tracer keeps around each call into the
program.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import Counter, defaultdict

import numpy as np
import pandas as pd

import repro.core.weighted as weighted_mod
from harness import OUT, SRC, check, check_query, check_sketch
from repro.core.decay import ForwardDecaySpaceSaving
from repro.core.merge import merge_unbiased, reduce_counts
from repro.core.space_saving import DeterministicSpaceSaving, UnbiasedSpaceSaving
from repro.core.weighted import WeightedUnbiasedSpaceSaving
from repro.experiments.t7_epochs_ci import epoch_setup
from repro.streams.orders import permuted_stream
from repro.streams.weibull import weibull_counts

SHAPE = 0.3  # Weibull shape of the item counts (T7/T8)
DECAY_SPAN = 2.0  # stream_weighted: forward-decay rate x stream length
REDUCE_MS = (100, 1000, 10_000)  # reduce probe: priority sampling sizes
PPS_M = 100  # reduce probe: the pivotal sampler is quadratic in n
QUERY_REPEATS = 3  # back-to-back calls per query in a query pass

FULL = {
    "spark_lineitem": dict(sf=0.5, partitions=16, m=1000),
    "stream_kernel": dict(
        n_items=10_000, total=2_000_000, m=1000, n_epochs=10, shards=16,
    ),
    "stream_weighted": dict(
        n_items=1000, total=20_000, m=200, n_queries=100, query_size=50, chunks=16,
        warm_rows=10_000,
    ),
    "reduce": dict(reps=5),
}

TINY = {
    "spark_lineitem": dict(sf=0.005, partitions=4, m=100),
    "stream_kernel": dict(
        n_items=500, total=20_000, m=100, n_epochs=5, shards=4,
    ),
    "stream_weighted": dict(
        n_items=200, total=2000, m=50, n_queries=5, query_size=20, chunks=4, warm_rows=200,
    ),
    "reduce": dict(reps=1),
}

# sketch_dataframe's output schema for an integral item column
SKETCH_SCHEMA = "item long, estimate double, threshold double, part_t double, pid int"


def slot(hs, sketch_s=0.0, query_us=()):
    """Close one stretch of an op: its host factor, sketch time, query times."""
    return (hs.mark(), sketch_s, list(query_us))


def query_pass(tr, span_name, fn, queries):
    """One timed pass over the query set: each query is called
    ``QUERY_REPEATS`` times back to back, and its per-call latency is the
    median of those calls (microseconds), so a single call hit by a
    host interrupt does not make the query look slow."""
    us = []
    for q in queries:
        calls = []
        for _ in range(QUERY_REPEATS):
            with tr.span(span_name) as sp:
                fn(q)
            calls.append(sp.dur)
        us.append(sorted(calls)[QUERY_REPEATS // 2] * 1e6)
    return us


def check_queries(fn, queries, truths, label):
    """Check every query; return its 95%-CI half-width / exact total."""
    rel = []
    for qi, (q, truth) in enumerate(zip(queries, truths)):
        est, var, lo, hi = fn(q)
        check_query(f"{label} q{qi}", est, var, truth)
        rel.append((hi - lo) / 2.0 / truth)
    return rel


def check_dss(label, sk, true_counts):
    """Deterministic Space Saving: ``n_i <= N_hat_i <= n_i + N_min`` per stored item."""
    nm = sk.n_min
    bad = [
        (x, c, int(true_counts[x]))
        for x, c in sk.estimates().items()
        if not (true_counts[x] <= c <= true_counts[x] + nm)
    ]
    check(not bad, f"{label}: {len(bad)} items outside [n_i, n_i+N_min={nm}], e.g. {bad[:3]}")


# -- Spark -------------------------------------------------------------------


def start_spark():
    from pyspark.sql import SparkSession

    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # no /tmp/hsperfdata_*
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    extra = [str(SRC), bench_dir] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(extra)
    spark = (
        SparkSession.builder.master("local[4]").appName("perfbench")
        .config("spark.driver.memory", "3g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={OUT / 'tmp'} -XX:-UsePerfData")
        .config("spark.local.dir", str(OUT / "spark-local"))
        .config("spark.sql.warehouse.dir", str(OUT / "spark-warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    SparkContext._gateway = SparkContext._jvm = None  # a later session relaunches
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is None:
        return
    proc.stdin.close()  # the JVM exits on EOF from its parent
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _noop_partition(batches):
    """The Arrow/Python-worker hop alone: read every batch, emit nothing."""
    for _ in batches:
        pass
    return iter(())


class SparkLineitem:
    """``sketch_dataframe`` over a cached 3M-row lineitem; T9's 25 brand queries."""

    name = "spark_lineitem"
    setup_reps = 1  # a second Spark session and table would double the run
    # Spark's work runs in a JVM on all cores, which the single-threaded
    # reference loop of HostSpeed does not track: rescaling by it left the
    # ingest spread as it was and widened the set-up spread six-fold, so
    # sketch and set-up times are wall clock (the query passes are not
    # Spark work and are rescaled, see ``_queries``).
    at_ref_speed = False

    def __init__(self, tr, hs, sizes, seed):
        self.tr, self.hs, self.size, self.seed = tr, hs, sizes[self.name], seed
        self.spark = None
        self.last = self.prev_exact = None

    def setup(self):
        from pyspark.sql import functions as F

        from repro.synth_data import lineitem, part

        sz = self.size
        self.spark = start_spark()
        li = lineitem(self.spark, sf=sz["sf"], seed=self.seed)
        self.li = li.repartition(sz["partitions"]).cache()
        self.rows = self.li.count()
        truth = (
            self.li.groupBy("l_partkey")
            .agg(F.sum("l_extendedprice").alias("n"))
            .toPandas()
            .set_index("l_partkey")["n"]
        )
        self.total = float(truth.sum())
        pt = part(self.spark, sf=sz["sf"], seed=self.seed + 5).toPandas()
        self.queries, self.truths = [], []
        for b in sorted(pt["p_brand"].unique()):
            s = set(pt.loc[pt["p_brand"] == b, "p_partkey"].tolist())
            self.queries.append(s)
            self.truths.append(float(truth[truth.index.isin(s)].sum()))
        self.rows_per_op = self.rows

    def warmup(self):
        self.op(-1)
        self.prev_exact = None  # a first call is slow; pair no op with it

    def _check(self, res, label):
        check_sketch(label, len(res), self.size["m"], res.estimates.tolist())
        check(
            math.isclose(res.t, self.total, rel_tol=1e-9),
            f"{label}: t={res.t!r} != exact total {self.total!r}",
        )

    def _queries(self, res):
        """One query pass, in a slot of its own: the queries run in this
        Python process, whose speed the reference loop does track."""
        self.hs.mark()
        return slot(self.hs, query_us=query_pass(
            self.tr, "query.result_subset_ci", res.subset_sum_ci, self.queries,
        ))

    def op(self, i):
        from repro.core.spark_sketch import exact_counts, sketch_dataframe

        tr, m = self.tr, self.size["m"]
        with tr.wrap(type(self.li), "toPandas", "spark.collect", lambda pdf: {"rows": len(pdf)}):
            with tr.span("spark.sketch") as sk:
                res = sketch_dataframe(
                    self.li, "l_partkey", m, weight_col="l_extendedprice",
                    seed=self.seed * 1000 + i,
                )
        slots = [(1.0, sk.dur, [])]  # wall clock: see ``at_ref_speed``
        slots.append(self._queries(res))
        with tr.span("spark.exact") as ex:
            exact = exact_counts(self.li, "l_partkey", weight_col="l_extendedprice").toPandas()
        self._check(res, "sketch")
        check(
            math.isclose(float(exact["n"].sum()), self.total, rel_tol=1e-9),
            "exact_counts total differs from the exact total",
        )
        rel = check_queries(res.subset_sum_ci, self.queries, self.truths, "brand")
        slots.append(self._queries(res))
        self.last = res
        # the previous op's exact job ran just before this sketch and this
        # op's just after it: pair the sketch with their mean
        paired = ex.dur if self.prev_exact is None else (self.prev_exact + ex.dur) / 2
        self.prev_exact = ex.dur
        return {
            "slots": slots, "exact_s": paired, "ci_rel": rel,
            "bins": len(res), "threshold": res.threshold,
        }

    def probe(self, tr):
        """Traced-run extras: the bare Python-worker hop, the unit-weight
        path, and ``frequent_items`` on the last sketch."""
        from pyspark.sql import functions as F

        from repro.core.spark_sketch import sketch_dataframe

        m = self.size["m"]
        projected = self.li.select(
            F.col("l_partkey").alias("item"),
            F.col("l_extendedprice").cast("double").alias("w"),
        )

        def hop():
            with tr.span("spark.hop"):
                out = projected.mapInPandas(_noop_partition, schema=SKETCH_SCHEMA).toPandas()
            check(len(out) == 0, "no-op hop returned rows")

        def unit(i):
            with tr.span("spark.unit_sketch"):
                res = sketch_dataframe(self.li, "l_partkey", m, seed=self.seed * 1000 + 500 + i)
            check_sketch("unit sketch", len(res), m, res.estimates.tolist())
            check(res.t == float(self.rows), f"unit sketch t={res.t} != rows={self.rows}")

        yield "spark.hop.warmup", hop, False
        yield "spark.unit_sketch.warmup", lambda: unit(-1), False
        yield "spark.hop", hop, True
        yield "spark.unit_sketch", lambda: unit(0), True
        if self.last is not None:
            res = self.last

            def frequent():
                for _ in range(20):
                    with tr.span("query.frequent_items"):
                        top = res.frequent_items(100)
                    check(len(top) == min(100, len(res)), "frequent_items length")

            yield "query.frequent_items", frequent, True

    def close(self):
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None


# -- stream kernel -------------------------------------------------------------


class StreamKernel:
    """Algorithm 1 over T7's sorted stream, plus 16 permuted shards merged."""

    name = "stream_kernel"
    setup_reps = 11
    at_ref_speed = True

    def __init__(self, tr, hs, sizes, seed):
        self.tr, self.hs, self.size, self.seed = tr, hs, sizes[self.name], seed

    def setup(self):
        sz = self.size
        cfg = epoch_setup(
            n_items=sz["n_items"], total=sz["total"], shape=SHAPE,
            n_epochs=sz["n_epochs"],
        )
        self.counts = cfg["counts"]
        self.sorted_rows = cfg["stream"].tolist()
        # the sorted pass is fed in as many pieces as there are shards, so
        # the host speed is sampled as often during it (see HostSpeed)
        self.sorted_parts = [p.tolist() for p in np.array_split(cfg["stream"], sz["shards"])]
        perm = permuted_stream(self.counts, np.random.default_rng(self.seed))
        parts = np.array_split(perm, sz["shards"])
        self.shards = [p.tolist() for p in parts]
        self.shard0_counts = np.bincount(parts[0], minlength=len(self.counts))
        self.queries = [
            set(np.flatnonzero(cfg["epochs"] == e).tolist()) for e in range(sz["n_epochs"])
        ]
        self.truths = cfg["truths"].tolist()
        self.rows = len(self.sorted_rows)
        self.rows_per_op = 2 * self.rows  # sorted pass + sharded pass

    def warmup(self):
        """DSS and USS over one shard: the deterministic guarantee and mass."""
        m, s = self.size["m"], self.seed
        d = DeterministicSpaceSaving.from_stream(self.shards[0], m, seed=s)
        check_dss("dss shard0", d, self.shard0_counts)
        u = UnbiasedSpaceSaving.from_stream(self.shards[0], m, seed=s)
        check(u.total() == len(self.shards[0]), "uss shard0 total != rows")

    def op(self, i):
        """Sorted pass (one sketch, fed piece by piece), then the shards;
        each piece is followed by the exact ``Counter`` of the same rows
        and, between shards, one query pass on the sorted sketch, so
        sketch, exact and query times share the same stretches of machine
        time."""
        tr, hs, m = self.tr, self.hs, self.size["m"]
        s = self.seed * 1000 + i
        exact = Counter()
        exact_s, parts, slots = 0.0, [], []
        sk = UnbiasedSpaceSaving(m, seed=s)
        for piece in self.sorted_parts:
            with tr.span("kernel.uss_sorted") as a:
                sk.update_many(piece)
            a.attrs["rows"] = len(piece)
            with tr.span("exact.counter") as e:
                exact.update(piece)
            exact_s += e.dur
            slots.append(slot(hs, a.dur))
        for j, sh in enumerate(self.shards):
            with tr.span("kernel.uss_shard") as b:
                parts.append(UnbiasedSpaceSaving.from_stream(sh, m, seed=s * 64 + j))
            b.attrs["rows"] = len(sh)
            with tr.span("exact.counter") as e:
                exact.update(sh)
            exact_s += e.dur
            us = query_pass(tr, "query.ss_subset_ci", sk.subset_sum_ci, self.queries)
            slots.append(slot(hs, b.dur, us))
        with tr.span("merge.unbiased") as c:
            res = merge_unbiased(parts, m, rng=np.random.default_rng([self.seed, i + 1]))
        slots.append(slot(hs, c.dur))
        check(sum(exact.values()) == 2 * self.rows, "exact Counter total != rows")
        check(sk.total() == self.rows, f"uss total {sk.total()} != rows {self.rows}")
        check(sum(p.total() for p in parts) == self.rows, "shard totals != rows")
        check_sketch("uss sorted", len(sk), m, list(sk.estimates().values()))
        check_sketch("merged shards", len(res), m, res.estimates.tolist())
        check(res.t == float(self.rows), f"merged t={res.t} != rows={self.rows}")
        # The merged CI ignores the shards' own N_min (ROADMAP item 2), so
        # this rarely fails an op on a small-C_S epoch (seed 47, op 2).
        check_queries(res.subset_sum_ci, self.queries, self.truths, "merged epoch")
        rel = check_queries(sk.subset_sum_ci, self.queries, self.truths, "sorted epoch")
        return {
            "slots": slots, "exact_s": exact_s,
            "ci_rel": rel, "bins": len(sk), "threshold": sk.n_min,
        }

    def probe(self, tr):
        """Traced-run extra: Deterministic Space Saving over the sorted stream."""

        def dss():
            with tr.span("kernel.dss_sorted") as sp:
                d = DeterministicSpaceSaving.from_stream(self.sorted_rows, self.size["m"], seed=self.seed)
            sp.attrs["rows"] = self.rows
            check_dss("dss sorted", d, self.counts)

        yield "kernel.dss_sorted", dss, True

    def close(self):
        pass


# -- weighted / decayed stream ---------------------------------------------------


class StreamWeighted:
    """Weighted and forward-decayed USS: an m+1 -> m PPS reduction per new item."""

    name = "stream_weighted"
    setup_reps = 11
    at_ref_speed = True

    def __init__(self, tr, hs, sizes, seed):
        self.tr, self.hs, self.size, self.seed = tr, hs, sizes[self.name], seed

    def setup(self):
        sz = self.size
        rng = np.random.default_rng(self.seed)
        counts = weibull_counts(sz["n_items"], shape=SHAPE, target_total=sz["total"])
        items = permuted_stream(counts, rng)
        w = rng.lognormal(0.0, 1.0, len(items))
        n = len(items)
        times = np.arange(n, dtype=np.float64)
        self.rate = DECAY_SPAN / n
        decayed = w * np.exp(-self.rate * (times[-1] - times))
        self.items, self.w = items.tolist(), w.tolist()
        k = sz["chunks"]
        cuts = [n * c // k for c in range(k + 1)]
        self.chunks = [
            (items[a:b].tolist(), times[a:b].tolist(), w[a:b].tolist())
            for a, b in zip(cuts, cuts[1:])
        ]
        tw = np.bincount(items, weights=w, minlength=len(counts))
        td = np.bincount(items, weights=decayed, minlength=len(counts))
        self.total_w, self.total_d = float(w.sum()), float(decayed.sum())
        self.queries, self.truths_w, self.truths_d = [], [], []
        for _ in range(sz["n_queries"]):
            q = rng.choice(len(counts), size=sz["query_size"], replace=False)
            self.queries.append(set(q.tolist()))
            self.truths_w.append(float(tw[q].sum()))
            self.truths_d.append(float(td[q].sum()))
        self.rows = n
        self.rows_per_op = 2 * n  # weighted pass + decayed pass

    def warmup(self):
        k = self.size["warm_rows"]
        ws = WeightedUnbiasedSpaceSaving(self.size["m"], seed=self.seed)
        ws.update_many(self.items[:k], self.w[:k])
        res = ws.result()
        check_sketch("weighted warm-up", len(res), self.size["m"], res.estimates.tolist())

    def op(self, i):
        """Both sketches in chunks; each chunk is followed by the exact dict
        aggregate of the same rows and, in the decayed pass, one query pass
        on the finished weighted sketch."""
        tr, hs, m, r = self.tr, self.hs, self.size["m"], self.rate
        s = self.seed * 1000 + i
        ws = WeightedUnbiasedSpaceSaving(m, seed=s)
        ds = ForwardDecaySpaceSaving(m, rate=r, seed=s + 1)
        acc_w, acc_d = defaultdict(float), defaultdict(float)
        exact_s, slots = 0.0, []
        with tr.wrap(weighted_mod, "splitting_pps_sample", "pps.split"):
            for items, ts, w in self.chunks:
                with tr.span("weighted.update_many") as a:
                    ws.update_many(items, w)
                a.attrs["rows"] = len(items)
                with tr.span("exact.dict") as e:
                    for x, wt in zip(items, w):
                        acc_w[x] += wt
                exact_s += e.dur
                slots.append(slot(hs, a.dur))
            res_w = ws.result()
            add = ds.add
            for items, ts, w in self.chunks:
                with tr.span("decay.add") as b:
                    for x, t, wt in zip(items, ts, w):
                        add(x, t, wt)
                b.attrs["rows"] = len(items)
                with tr.span("exact.dict") as e:
                    for x, t, wt in zip(items, ts, w):
                        acc_d[x] += wt * math.exp(r * t)
                exact_s += e.dur
                us = query_pass(tr, "query.weighted_subset_ci", res_w.subset_sum_ci, self.queries)
                slots.append(slot(hs, b.dur, us))
        res_d = ds.result()
        check(math.isclose(sum(acc_w.values()), self.total_w, rel_tol=1e-9), "exact dict total")
        for label, res, total in (("weighted", res_w, self.total_w), ("decayed", res_d, self.total_d)):
            check_sketch(label, len(res), m, res.estimates.tolist())
            check(
                math.isclose(res.t, total, rel_tol=1e-9),
                f"{label}: t={res.t!r} != exact total {total!r}",
            )
        check_queries(res_d.subset_sum_ci, self.queries, self.truths_d, "decayed subset")
        rel = check_queries(res_w.subset_sum_ci, self.queries, self.truths_w, "weighted subset")
        return {
            "slots": slots, "exact_s": exact_s,
            "ci_rel": rel, "bins": len(res_w), "threshold": res_w.threshold,
        }

    def probe(self, tr):
        return iter(())

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (SparkLineitem, StreamKernel, StreamWeighted)}


def reduce_probe(tr, sizes, seed):
    """Standalone ``reduce_counts`` calls at n = 8m (priority) and the
    pivotal sampler at m=100 only: it is quadratic in n."""
    reps = sizes["reduce"]["reps"]
    rng = np.random.default_rng([seed, 7])

    def one(method, m):
        n = 8 * m
        counts = np.round(rng.lognormal(2.0, 1.5, n)) + 1.0
        items = np.arange(n)
        for _ in range(reps):
            with tr.span(f"reduce.{method}.m{m}"):
                red = reduce_counts(items, counts, m, rng, method=method)
            check_sketch(f"reduce {method} m={m}", len(red), m, red.estimates.tolist())
            check(len(red) == m, f"reduce {method} m={m}: {len(red)} bins")
            check(math.isclose(red.t, float(counts.sum())), f"reduce {method}: t")

    for m in REDUCE_MS:
        yield f"reduce.priority.m{m}", lambda m=m: one("priority", m), True
    yield f"reduce.pps.m{PPS_M}", lambda: one("pps", PPS_M), True
