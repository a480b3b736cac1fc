"""Repository benchmark: one closed-loop client driving one workload.

    python3 perfbench/run.py --workload stream_kernel --seed 1 --seconds 15 --trace 0

Prints one line per metric (name, value, unit, samples) and, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
(times taken in this Python process at a reference host speed, see
``harness.HostSpeed``); ``--trace 1`` reports the per-layer metrics from
spans. The full record
(provenance, failures, samples) goes to ``.perfbench/results/`` and the
traced run's spans to ``.perfbench/spans/``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import harness
from harness import OUT, HostSpeed, Ledger, Tracer, median, percentile

PROBE_SECONDS = 2.0  # traced run: how long each other workload's ops run (at least one op)
MIN_OPS = 2


def _loop(wl, ledger, tr, seconds, alternate, min_ops=MIN_OPS):
    """Closed loop: the next op starts when the previous one has finished."""
    ops, i, t0 = [], 0, time.perf_counter()
    while i < min_ops or time.perf_counter() - t0 < seconds:
        traced = tr.enabled if not alternate else i % 2 == 1
        with tr.tracing(traced):
            tr.op = f"{wl.name}/{i}"
            out = ledger.run(f"{wl.name} op {i}", lambda: wl.op(i))
        if out is not None:
            _fold(out)
            out["traced"] = traced
            ops.append(out)
        i += 1
    return ops


def _fold(out):
    """Wall and reference-speed sums of an op's slots (see HostSpeed);
    query latencies stay grouped by query pass."""
    slots = out.pop("slots")
    out["op_s"] = sum(s for _, s, _ in slots)
    out["op_ref_s"] = sum(f * s for f, s, _ in slots)
    out["query_us"] = [us for _, _, us in slots if us]
    out["query_ref_us"] = [[f * u for u in us] for f, _, us in slots if us]


def pass_percentile(ops, field, q):
    """Median over the runs' query passes of each pass's percentile ``q``."""
    return median(percentile(p, q) for o in ops for p in o[field])


def _setup(wl, ledger, tr, hs, reps):
    """Input generation plus one checked warm-up op, ``reps`` times;
    returns (wall, reported) seconds of each: reported is at reference
    speed if the workload is ``at_ref_speed``, else wall clock."""
    times = []
    for r in range(reps):
        hs.mark()
        t0 = time.perf_counter()
        with tr.tracing(False):
            wl.setup()
            ledger.run(f"{wl.name} warm-up {r}", wl.warmup)
        dt = time.perf_counter() - t0
        f = hs.mark()
        times.append((dt, dt * f if wl.at_ref_speed else dt))
    return times


def throughput(wl, ops, field="op_ref_s"):
    """Rows ingested by the ops over their total reported time: at
    reference speed, or wall clock if the workload is not ``at_ref_speed``
    (``field="op_s"``: wall clock always)."""
    return wl.rows_per_op * len(ops) / sum(o[field] for o in ops) if ops else None


def end_to_end(wl, ops, setup_times, samples, raw):
    """The end-to-end metrics; ``raw`` gets the time-based ones in
    wall-clock time as well."""
    samples.update(
        ops=len(ops),
        query_passes=sum(len(o["query_us"]) for o in ops),
        queries=sum(len(p) for o in ops for p in o["query_us"]),
        setups=len(setup_times),
    )
    raw.update(
        ingest_rows_per_s=throughput(wl, ops, "op_s"),
        query_us_p50=pass_percentile(ops, "query_us", 50),
        query_us_p90=pass_percentile(ops, "query_us", 90),
        setup_s=median(w for w, _ in setup_times),
    )
    return {
        "ingest_rows_per_s": (throughput(wl, ops), "rows/s"),
        # each op against the exact aggregate of the same rows, timed beside it
        "sketch_vs_exact": (median(o["op_s"] / o["exact_s"] for o in ops), "ratio"),
        "query_us_p50": (pass_percentile(ops, "query_ref_us", 50), "us"),
        "query_us_p90": (pass_percentile(ops, "query_ref_us", 90), "us"),
        "ci_rel_halfwidth": (median(x for o in ops for x in o["ci_rel"]), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (median(r for _, r in setup_times), "s"),
    }


def _summary(xs):
    return {f"p{q}": percentile(xs, q) for q in (10, 25, 50, 75, 90)} | {"n": len(xs)}


def per_layer(tr, hs, wl, ops, samples):
    def dur(name, scale=1.0):
        xs = [s.dur for s in tr.named(name)]
        samples[name] = len(xs)
        return median(xs) * scale if xs else None

    def rate(name):
        """Median over ops of the op's rows / wall time in ``name`` spans."""
        rows, secs = by_op([name], "rows"), by_op([name], "dur")
        samples[name] = len(rows)
        return median(rows[o] / secs[o] for o in rows)

    def by_op(names, field):
        acc: dict = {}
        for n in names:
            for s in tr.named(n):
                v = s.attrs[field] if field == "rows" else getattr(s, field)
                acc[s.op] = acc.get(s.op, 0.0) + v
        return acc

    kernel = ("kernel.uss_sorted", "kernel.uss_shard")
    k_wall, k_cpu = by_op(kernel, "dur"), by_op(kernel, "cpu")
    sketch = {s.op: s.dur for s in tr.named("spark.sketch")}
    collect = {s.op: s for s in tr.named("spark.collect")}
    split = tr.named("pps.split")
    split_ops = {s.op for s in tr.named("weighted.update_many")}
    calls = [sum(1 for s in split if s.op == op) for op in split_ops]
    split_s = [sum(s.dur for s in split if s.op == op) for op in split_ops]
    hop, coll = dur("spark.hop"), dur("spark.collect")

    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    t_rate, u_rate = throughput(wl, traced), throughput(wl, plain)
    samples.update(traced_ops=len(traced), untraced_ops=len(plain))

    m = {
        "kernel.uss_sorted_rows_per_s": (rate("kernel.uss_sorted"), "rows/s"),
        "kernel.uss_shard_rows_per_s": (rate("kernel.uss_shard"), "rows/s"),
        "kernel.dss_sorted_rows_per_s": (rate("kernel.dss_sorted"), "rows/s"),
        "kernel.cpu_s": (median(k_cpu.values()), "s"),
        "kernel.wait_s": (median(k_wall[o] - k_cpu[o] for o in k_wall), "s"),
        "merge.unbiased_ms": (dur("merge.unbiased", 1e3), "ms"),
    }
    for name in sorted({s.name for s in tr.spans if s.name.startswith("reduce.")}):
        method, size = name.split(".")[1:]
        m[f"reduce.{method}_us.{size}"] = (dur(name, 1e6), "us")
    m.update({
        "pps.split_calls": (median(calls), "count"),
        "pps.split_s": (median(split_s), "s"),
        "weighted.rows_per_s": (rate("weighted.update_many"), "rows/s"),
        "decay.rows_per_s": (rate("decay.add"), "rows/s"),
        "spark.sketch_s": (dur("spark.sketch"), "s"),
        "spark.collect_s": (coll, "s"),
        "spark.hop_s": (hop, "s"),
        "spark.builder_s": (coll - hop if coll is not None and hop is not None else None, "s"),
        "spark.driver_merge_s": (median(sketch[o] - c.dur for o, c in collect.items()), "s"),
        "spark.shipped_rows": (median(c.attrs["rows"] for c in collect.values()), "count"),
        "spark.exact_groupby_s": (dur("spark.exact"), "s"),
        "spark.unit_sketch_s": (dur("spark.unit_sketch"), "s"),
        "query.result_subset_ci_us": (dur("query.result_subset_ci", 1e6), "us"),
        "query.ss_subset_ci_us": (dur("query.ss_subset_ci", 1e6), "us"),
        "query.frequent_items_us": (dur("query.frequent_items", 1e6), "us"),
        "sketch.bins": (median(o["bins"] for o in traced), "count"),
        "sketch.threshold": (median(o["threshold"] for o in traced), "weight"),
        "trace.overhead_pct": (
            100.0 * (u_rate - t_rate) / u_rate if t_rate and u_rate else None, "%"
        ),
        "host.ref_loop_us": (median(hs.loop_s) * 1e6, "us"),
    })
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload; return the result record (the last stdout line is
    its ``correct``/``attempted``/``failed``/``metrics`` part)."""
    import workloads

    sizes = sizes or workloads.FULL
    prov = harness.provenance_start()
    prov.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    tr, hs, ledger, samples, raw = Tracer(), HostSpeed(), Ledger(), {}, {}
    wl = workloads.WORKLOADS[workload](tr, hs, sizes, seed)
    open_wls = [wl]
    try:
        setup_times = _setup(wl, ledger, tr, hs, 1 if trace else wl.setup_reps)
        ops = _loop(wl, ledger, tr, seconds, alternate=trace)
        if not trace:
            metrics = end_to_end(wl, ops, setup_times, samples, raw)
        else:
            tr.enabled = True
            for name, cls in workloads.WORKLOADS.items():
                if name != workload:
                    other = cls(tr, hs, sizes, seed)
                    open_wls.append(other)
                    _setup(other, ledger, tr, hs, 1)
                    _loop(other, ledger, tr, min(seconds, PROBE_SECONDS), alternate=False, min_ops=1)
            probes = [p for w in open_wls for p in w.probe(tr)]
            probes += list(workloads.reduce_probe(tr, sizes, seed))
            for label, fn, traced in probes:
                with tr.tracing(traced):
                    tr.op = label
                    ledger.run(label, fn)
            metrics = per_layer(tr, hs, wl, ops, samples)
        for w in open_wls:
            if getattr(w, "spark", None) is not None:
                sc = w.spark.sparkContext
                prov.update(spark_master=sc.master, spark_default_parallelism=sc.defaultParallelism)
    finally:
        for w in open_wls:
            w.close()
    prov.setdefault("spark_master", None)
    prov.setdefault("spark_default_parallelism", None)
    prov["loadavg_end"] = list(os.getloadavg())
    record = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall_clock": raw,
        "samples": samples,
        "ops": [{k: v for k, v in o.items() if k not in ("query_us", "query_ref_us", "ci_rel")}
                | {k: _summary([x for p in o[k] for x in p]) for k in ("query_us", "query_ref_us")}
                for o in ops],
        "host_ref_loop_us": _summary([x * 1e6 for x in hs.loop_s]),
        "failures": ledger.failures,
        "provenance": prov,
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tr.dump(OUT / "spans" / f"{stem}.json")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("spark_lineitem", "stream_kernel", "stream_weighted"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    harness.load_program()
    harness.prepare_env()
    try:
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        harness.clear_scratch()
    for name, mv in rec["metrics"].items():
        print(f"{name:32s} {mv['value']!r:>24} {mv['unit']}")
    if rec["wall_clock"]:
        print(f"wall clock: {json.dumps(rec['wall_clock'])}")
    print(f"samples: {json.dumps(rec['samples'])}")
    print(f"nproc={rec['provenance']['nproc']} loadavg={rec['provenance']['loadavg_start']}"
          f"->{rec['provenance']['loadavg_end']} failed={rec['failed']}/{rec['attempted']}")
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
