"""The spill-reduce core: weighted Unbiased Space Saving (sec 5.3, Thm 2).

Section 5.3 observes that the pairwise label randomization of
Algorithm 1 is a PPS sample of the two smallest bins, and generalizes
it: increment exactly, then reduce with *any* unbiased sampling step
(Theorem 2). This module holds that one operation; the weighted,
time-decayed, merged and per-Spark-partition sketches all run on it.

* :func:`reduce_counts` — one unbiased reduction of (item, count) pairs
  to at most ``m`` bins, by priority sampling (Duffield, Lund, Thorup
  2007) or exact fixed-size PPS (the Deville-Tille pivotal method).
* :class:`WeightedUnbiasedSpaceSaving` — exact accumulation into a dict,
  reduced by priority sampling to ``m`` bins whenever the dict holds
  more than ``SPILL_FACTOR * m`` items, and once more when a result is
  taken. Fewer reductions add no bias and less variance than an
  m+1 -> m step per new item, at O(1) amortized cost per row.

Zero-mass items are dropped before each reduction: they contribute
exactly 0, so the sketch stays unbiased. NaN and negative weights are
rejected.
"""
from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from repro.core.result import CountSketchResult
from repro.sampling.pps import splitting_pps_sample
from repro.sampling.priority import priority_sample

#: the exact dict is reduced once it holds more than SPILL_FACTOR * m items
SPILL_FACTOR = 8


def reduce_counts(
    items: np.ndarray,
    counts: np.ndarray,
    m: int,
    rng: np.random.Generator,
    *,
    method: str = "priority",
) -> CountSketchResult:
    """Unbiasedly reduce (item, count) pairs to at most ``m`` bins.

    ``priority`` keeps the m largest priorities with estimates
    ``max(c_i, tau)``; ``pps`` keeps a fixed-size PPS sample with
    estimates ``c_i / pi_i``. Both keep every item's expected estimate.
    ``pps`` also conserves the total exactly: every uncertain kept item
    has estimate ``1 / alpha`` and exactly ``m`` items are kept.
    ``priority`` conserves it only in expectation.
    """
    items = np.asarray(items)
    counts = np.asarray(counts, dtype=np.float64)
    total = float(counts.sum())
    if len(items) <= m:
        return CountSketchResult(items, counts.copy(), 0.0, total)
    if method == "priority":
        ps = priority_sample(items, counts, m, rng)
        return CountSketchResult(ps.items, ps.estimates, ps.tau, total)
    if method == "pps":
        mask, pi = splitting_pps_sample(counts, m, rng)
        est = counts[mask] / pi[mask]
        # threshold analogue: the HT-adjusted size of a barely-included item
        free = pi < 1.0
        thr = float(np.max(counts[free] / pi[free])) if free.any() else 0.0
        return CountSketchResult(items[mask], est, thr, total)
    raise ValueError(f"unknown reduction method {method!r}")


def _checked(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if not (w >= 0).all():
        raise ValueError("weights must be >= 0; got a negative or NaN weight")
    return w


class WeightedUnbiasedSpaceSaving:
    """m-bin unbiased sketch of non-negative weights (the spill-reduce core).

    ``seed`` may also be a ``numpy.random.Generator``, which is then used
    as is.
    """

    def __init__(self, m: int, *, seed: int | np.random.Generator | None = None):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self._rng = np.random.default_rng(seed)
        self._counts: dict = {}
        self._threshold = 0.0  # largest threshold reduced or absorbed so far
        self._t = 0.0

    def add(self, item: Hashable, weight: float = 1.0) -> None:
        """Add ``weight`` mass for ``item``."""
        if not weight >= 0:
            raise ValueError(f"weights must be >= 0; got {weight!r}")
        self._t += weight
        counts = self._counts
        counts[item] = counts.get(item, 0.0) + weight
        if len(counts) > SPILL_FACTOR * self.m:
            self._reduce()

    def update_many(
        self, items: Iterable[Hashable], weights: Iterable[float] | None = None
    ) -> None:
        """Add a batch of rows (unit weight when ``weights`` is None).

        The whole batch is accumulated before the spill cap is checked.
        """
        if weights is None:
            items = list(items)
            weights = np.ones(len(items))
        self._t += self._accumulate(items, weights)
        if len(self._counts) > SPILL_FACTOR * self.m:
            self._reduce()

    def absorb(self, parts: Iterable[CountSketchResult]) -> None:
        """Union already-reduced sketches into this one, as one batch.

        Their estimates add like weights; their totals ``t`` and their
        thresholds carry into :meth:`result`.
        """
        for p in parts:
            self._accumulate(p.items.tolist(), p.estimates)
            self._t += p.t
            self._threshold = max(self._threshold, p.threshold)
        if len(self._counts) > SPILL_FACTOR * self.m:
            self._reduce()

    def _accumulate(self, items: Iterable[Hashable], weights) -> float:
        w = _checked(weights)
        counts = self._counts
        get = counts.get
        for x, c in zip(items, w.tolist()):
            counts[x] = get(x, 0.0) + c
        return float(w.sum())

    def _reduce(self) -> None:
        """Drop zero-mass items, then reduce unbiasedly to ``m`` bins."""
        keys = list(self._counts)
        vals = np.fromiter(self._counts.values(), np.float64, len(keys))
        live = np.flatnonzero(vals > 0)
        red = reduce_counts(live, vals[live], self.m, self._rng)
        self._threshold = max(self._threshold, red.threshold)
        self._counts = dict(
            zip([keys[i] for i in red.items.tolist()], red.estimates.tolist())
        )

    @property
    def t(self) -> float:
        """Total weight ingested."""
        return self._t

    def estimates(self) -> dict:
        """item -> unbiased weight estimate (after :meth:`result`)."""
        return self.result().estimates_dict()

    def result(self) -> CountSketchResult:
        """Reduce to at most ``m`` bins, in place, and snapshot the sketch.

        Its ``threshold`` is the largest of every reduction this sketch
        performed and every threshold it absorbed.
        """
        if len(self._counts) > self.m:
            self._reduce()
        counts = self._counts
        return CountSketchResult(
            np.asarray(list(counts)),
            np.fromiter(counts.values(), np.float64, len(counts)),
            self._threshold,
            self._t,
        )
