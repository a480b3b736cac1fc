"""Benchmark plumbing: spans, host speed, op accounting, the output oracle
and provenance.

Nothing here imports ``repro``; the workloads call the program, this
module only times, checks and records what they do.
"""
from __future__ import annotations

import hashlib
import math
import os
import platform
import random
import statistics
import subprocess
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def load_program() -> None:
    """Import the program from this checkout's ``src``, or exit non-zero."""
    import sys

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def prepare_env() -> None:
    """Keep every file the run (and Spark) writes inside the checkout."""
    clear_scratch()
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR


def clear_scratch() -> None:
    """Drop Spark's local and temp dirs; results and spans stay."""
    import shutil

    for d in ("tmp", "spark-local"):
        shutil.rmtree(OUT / d, ignore_errors=True)


class Span:
    __slots__ = ("name", "start", "end", "cpu0", "cpu1", "parent", "op", "attrs")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op, self.attrs = name, parent, op, {}
        self.cpu0 = time.process_time()
        self.start = time.perf_counter()
        self.end = self.cpu1 = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0

    def record(self, idx: int) -> dict:
        return {
            "id": idx, "name": self.name, "start": self.start, "end": self.end,
            "cpu_s": self.cpu, "parent": self.parent, "op": self.op, **self.attrs,
        }


class Tracer:
    """Times every span; keeps them in memory only while ``enabled``.

    Ops always read their wall times from spans, so a traced and an
    untraced op run the same timing code and differ only in what is kept
    (and in the wrappers :meth:`wrap` installs).
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            sp = Span(name, None, self.op)
            try:
                yield sp
            finally:
                sp.end = time.perf_counter()
                sp.cpu1 = time.process_time()
            return
        sp = Span(name, self._stack[-1] if self._stack else None, self.op)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.cpu1 = time.process_time()
            self._stack.pop()

    @contextmanager
    def wrap(self, owner, attr: str, name: str, on_result=None):
        """While enabled, time every call of ``owner.attr`` as a span."""
        if not self.enabled:
            yield
            return
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = orig(*args, **kwargs)
                if on_result is not None:
                    sp.attrs.update(on_result(out))
                return out

        own = attr in vars(owner)
        setattr(owner, attr, traced)
        try:
            yield
        finally:
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    @contextmanager
    def tracing(self, on: bool):
        """Keep spans (or not) for the duration, e.g. off for warm-ups."""
        was, self.enabled = self.enabled, on
        try:
            yield
        finally:
            self.enabled = was

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path: Path) -> None:
        import json

        path.write_text(json.dumps([s.record(i) for i, s in enumerate(self.spans)]))


REF_LOOP_S = 0.007  # the reference loop's time that defines reference host speed


class HostSpeed:
    """Expresses wall times at a fixed reference speed of the host.

    The shared VM this was built on runs the same code up to twice as
    fast in some stretches as in others, in phases of seconds to
    minutes, so wall times of runs made minutes apart differ by more
    than any regression bound. A fixed pure-Python loop (dict counts of
    a fixed skewed key list over 10k keys, like the workloads' streams;
    benchmark code, so no change to the program moves it) is timed at
    every :meth:`mark`. The host's speed over the stretch between two
    marks is the mean of the two loop times, and a wall time taken in
    that stretch, times ``REF_LOOP_S`` over that mean, is the time it
    would take at reference speed.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._keys = [int(10_000 * rng.random() ** 3) for _ in range(50_000)]
        self.loop_s: list[float] = []
        for _ in range(3):  # warm the loop's code and dict
            self._time_loop()
        self._prev = self._time_loop()

    def _time_loop(self) -> float:
        d: dict = {}
        get = d.get
        t0 = time.perf_counter()
        for k in self._keys:
            d[k] = get(k, 0) + 1
        return time.perf_counter() - t0

    def mark(self) -> float:
        """Close the stretch since the previous mark; return its factor
        (wall time in the stretch x factor = time at reference speed)."""
        now = self._time_loop()
        self.loop_s.append(now)
        before, self._prev = self._prev, now
        return REF_LOOP_S / ((before + now) / 2.0)


class OracleError(AssertionError):
    """An op's output disagrees with the exact answer."""


def check(cond: bool, reason: str) -> None:
    if not cond:
        raise OracleError(reason)


def check_sketch(label: str, n_bins: int, m: int, estimates) -> None:
    """Every sketch: at most ``m`` bins, all estimates finite and >= 0."""
    check(n_bins <= m, f"{label}: {n_bins} bins > m={m}")
    bad = [e for e in estimates if not (math.isfinite(e) and e >= 0)]
    check(not bad, f"{label}: {len(bad)} non-finite or negative estimates, e.g. {bad[:3]}")


def check_query(label: str, est: float, var: float, truth: float) -> None:
    """Every query: ``|est - truth| <= 6 sqrt(var_hat)``."""
    check(
        abs(est - truth) <= 6.0 * math.sqrt(var),
        f"{label}: est={est:.6g} truth={truth:.6g} sd_hat={math.sqrt(var):.6g}",
    )


class Ledger:
    """Attempted and failed ops; a failure never stops the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, fn):
        """Run one op; return its value, or None when it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # an op boundary: record and keep running
            reason = f"{label}: {type(exc).__name__}: {exc}"
            self.failures.append(reason)
            if not isinstance(exc, OracleError):
                traceback.print_exc()
            print(f"[perfbench] FAILED {reason}", flush=True)
            return None


def median(xs) -> float | None:
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else None


def percentile(xs, q: float) -> float | None:
    """Nearest-rank percentile ``q`` in (0, 100]."""
    xs = sorted(xs)
    if not xs:
        return None
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def _cmd(args: list[str]) -> str | None:
    try:
        p = subprocess.run(args, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = (p.stdout or p.stderr).strip()
    return out.splitlines()[0] if p.returncode == 0 and out else None


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance_start() -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    try:
        jv = subprocess.run([java, "-XX:-UsePerfData", "-version"], capture_output=True, text=True, timeout=30)
        java_version = (jv.stderr or jv.stdout).strip().splitlines()[0]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        java_version = None
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "java": java_version,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "git_commit": _cmd(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "src_sha256_16": src_digest(),
        "machine": platform.machine(),
    }
