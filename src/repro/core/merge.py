"""Merging sketches (paper section 5.5, Theorem 2).

Theorem 2: any reduction whose post-reduction expected estimates equal
the pre-reduction estimates keeps the sketch unbiased. A merge is an
exact union of per-item estimates (sums by item) followed by one such
reduction back to ``m`` bins — priority sampling with HT-adjusted
counts ``max(c_i, tau)``, the paper's suggested swap-in for the pairwise
randomization, merged as in Agarwal et al. (2013), "Mergeable
Summaries". Both steps are the spill-reduce core of
:mod:`repro.core.weighted`; :func:`reduce_counts` is re-exported here.
"""
from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.core.result import CountSketchResult
from repro.core.space_saving import SpaceSaving
from repro.core.weighted import WeightedUnbiasedSpaceSaving, reduce_counts

__all__ = ["merge_unbiased", "reduce_counts"]


def _as_result(sketch) -> CountSketchResult:
    if isinstance(sketch, CountSketchResult):
        return sketch
    if isinstance(sketch, SpaceSaving):
        return sketch.result()
    est = np.fromiter(sketch.values(), np.float64, len(sketch))
    return CountSketchResult(np.asarray(list(sketch)), est, 0.0, float(est.sum()))


def merge_unbiased(
    sketches: Iterable[SpaceSaving | CountSketchResult | Mapping],
    m: int,
    *,
    rng: np.random.Generator | None = None,
) -> CountSketchResult:
    """Merge sketches into one unbiased ``m``-bin summary (Theorem 2).

    Accepts Space Saving sketches, prior results, or raw
    ``item -> count`` mappings. All inputs are unioned exactly by item in
    one batch and then reduced once. The result's ``t`` is the sum of
    the inputs' totals, and its ``threshold`` the largest of the final
    reduction's and the inputs' own (``N_min`` for a Space Saving
    sketch), so the eq.-5 variance covers every reduction level.
    """
    core = WeightedUnbiasedSpaceSaving(m, seed=rng)
    core.absorb(_as_result(s) for s in sketches)
    return core.result()
