"""Variance estimation and confidence intervals (paper sec 6.4-6.5).

* eq. (5): ``Var_hat(N_hat_S) = N_min**2 * C_S`` with ``C_S`` the
  number of sketch items in S (floored at 1) — an *upward-biased*
  estimate valid even for pathological non-i.i.d. streams;
* the Poisson-PPS reference variance of eq. (1) used in Figure 9's
  comparison, computed from true counts.
"""
from __future__ import annotations

import numpy as np

from repro.core.result import subset_sum_variance
from repro.sampling.pps import thresholded_pps_probs

__all__ = [
    "subset_sum_variance",
    "coverage",
    "pps_reference_variance",
]


def coverage(
    truth: float, lows: np.ndarray, highs: np.ndarray
) -> float:
    """Fraction of intervals containing ``truth`` (empirical coverage)."""
    lows = np.asarray(lows, dtype=np.float64)
    highs = np.asarray(highs, dtype=np.float64)
    return float(np.mean((lows <= truth) & (truth <= highs)))


def pps_reference_variance(
    all_counts: np.ndarray, subset_mask: np.ndarray, m: int
) -> float:
    """Variance of a Poisson PPS sample's subset-sum estimate (eq. 1).

    Given the *true* counts of every item and a membership mask for the
    subset S, computes ``sum_{i in S} n_i**2 (1 - pi_i) / pi_i`` with
    ``pi = min(1, alpha n)`` scaled so ``sum(pi) = m``. This is the gold
    standard a disaggregated sketch is compared against (Figure 9
    right).
    """
    n = np.asarray(all_counts, dtype=np.float64)
    pi = thresholded_pps_probs(n, m)
    sel = np.asarray(subset_mask, dtype=bool) & (pi > 0)
    return float(np.sum(n[sel] ** 2 * (1.0 - pi[sel]) / pi[sel]))
