"""Self-test of the benchmark at tiny input sizes (about two minutes).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, emits exactly the
metrics BENCHMARK.json names, each with its unit and a numeric value,
with no failed op; and that an injected wrong estimate is counted as a
failed op while the run still completes and reports its metrics.
"""
from __future__ import annotations

import json
import math
import sys

import harness


def main() -> int:
    harness.load_program()
    harness.prepare_env()
    import run
    import workloads
    from repro.core.result import CountSketchResult

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            rec = run.run(name, seed=3, seconds=0.5, trace=bool(trace), sizes=workloads.TINY)
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            tag = f"{name} trace={trace}"
            if got != want[trace]:
                problems.append(f"{tag}: metrics/units differ: {sorted(set(got.items()) ^ set(want[trace].items()))}")
            bad = [k for k, v in rec["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{tag}: non-numeric values for {bad}")
            if rec["failed"] or not rec["correct"] or rec["attempted"] < 1:
                problems.append(f"{tag}: {rec['failed']}/{rec['attempted']} failed: {rec['failures'][:3]}")
            print(f"[selftest] {tag}: {len(got)} metrics, {rec['failed']}/{rec['attempted']} failed", flush=True)

    # An estimator that is off by far more than its CI must fail ops, not the run.
    orig = CountSketchResult.subset_sum

    def wrong(self, member):
        est, c = orig(self, member)
        return est * 3.0 + 1e6, c

    CountSketchResult.subset_sum = wrong
    try:
        rec = run.run("stream_weighted", seed=3, seconds=0.5, trace=False, sizes=workloads.TINY)
    finally:
        CountSketchResult.subset_sum = orig
    ops = rec["attempted"] - workloads.WORKLOADS["stream_weighted"].setup_reps
    if rec["correct"] or rec["failed"] != ops or set(rec["metrics"]) != set(want[0]):
        problems.append(f"injected wrong estimate: correct={rec['correct']} "
                        f"failed={rec['failed']}/{rec['attempted']} metrics={sorted(rec['metrics'])}")
    print(f"[selftest] injected wrong estimate: {rec['failed']}/{rec['attempted']} failed, "
          f"e.g. {rec['failures'][:1]}", flush=True)

    harness.clear_scratch()
    for p in problems:
        print(f"[selftest] FAIL {p}")
    print("[selftest] " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
