"""Probability-proportional-to-size (PPS) sampling machinery (sec 5.1).

Provides:

* :func:`thresholded_pps_probs` — inclusion probabilities
  ``pi_i = min(1, alpha * x_i)`` with ``sum(pi) == k`` (the standard
  fixed-expected-size PPS design the paper references);
* :func:`splitting_pps_sample` — a fixed-size design with *exact*
  marginal inclusion probabilities ``pi``, implemented with the pivotal
  method, a member of the Deville-Tille (1998) splitting family the
  paper cites for the merge operation.
"""
from __future__ import annotations

import numpy as np


def thresholded_pps_probs(weights: np.ndarray, k: int) -> np.ndarray:
    """Inclusion probabilities ``min(1, alpha*w)`` summing to ``min(k, n)``.

    Iteratively pins weights whose scaled probability exceeds 1 (the
    "alpha x_i vs 1" construction in section 5.1) until the remaining
    mass is spread proportionally.
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    n = len(w)
    if k >= n:
        return np.ones(n)
    if k <= 0:
        return np.zeros(n)
    pi = np.zeros(n)
    pinned = np.zeros(n, dtype=bool)
    remaining = k
    for _ in range(n):
        free = ~pinned
        total = w[free].sum()
        if total <= 0:
            break
        alpha = remaining / total
        over = free & (w * alpha >= 1.0)
        if not over.any():
            pi[free] = alpha * w[free]
            break
        pinned |= over
        pi[over] = 1.0
        remaining = k - pinned.sum()
        if remaining <= 0:
            break
    return np.clip(pi, 0.0, 1.0)


def splitting_pps_sample(
    weights: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-size PPS sample with exact marginals via the pivotal method.

    The pivotal method is the two-point instance of the Deville-Tille
    splitting recursion: at each step the target ``pi`` is written as a
    mixture of two vectors in which one of two chosen units is resolved
    to 0 or 1; a coin flip picks the branch. After n-1 steps every unit
    is resolved and exactly ``round(sum(pi))`` units are selected.

    Returns ``(mask, pi)`` where ``mask.sum() == min(k, n)`` and
    ``P(mask[i]) == pi[i]`` exactly.
    """
    pi = thresholded_pps_probs(weights, k)
    p = pi.astype(np.float64).copy()
    eps = 1e-12
    # indices still strictly between 0 and 1
    frontier = [i for i in range(len(p)) if eps < p[i] < 1 - eps]
    while len(frontier) >= 2:
        i, j = frontier[-1], frontier[-2]
        a, b = p[i], p[j]
        s = a + b
        if s <= 1.0:
            # one of the two is zeroed; the other absorbs the mass
            if rng.random() * s < b:
                p[i], p[j] = 0.0, s
            else:
                p[i], p[j] = s, 0.0
        else:
            # one of the two is pinned to 1; the other keeps the excess
            if rng.random() * (2 - s) < (1 - b):
                p[i], p[j] = 1.0, s - 1.0
            else:
                p[i], p[j] = s - 1.0, 1.0
        frontier = [x for x in frontier if eps < p[x] < 1 - eps]
    # a single unresolved unit can remain if sum(pi) is non-integral
    for i in frontier:
        p[i] = 1.0 if rng.random() < p[i] else 0.0
    return p > 0.5, pi
