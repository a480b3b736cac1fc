"""Shared result container for merged / distributed count sketches.

A reduced sketch is a set of (item, adjusted-count) pairs plus the
reduction threshold. The threshold plays the role of ``N_min`` in the
paper's variance estimator (eq. 5): an item absent from the sketch has
estimated count 0 and items near the threshold carry variance of order
``threshold**2`` each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
import pandas as pd


def member_mask(items: np.ndarray, member) -> np.ndarray:
    """Boolean mask of ``items`` in ``member`` (a collection or a predicate)."""
    if not callable(member):
        if not isinstance(member, (set, frozenset)):
            member = set(member)
        member = member.__contains__
    return np.fromiter(map(member, items.tolist()), bool, len(items))


def subset_sum_variance(n_min: float, c_s: int) -> float:
    """Equation 5 of the paper: ``Var_hat(N_S) = N_min**2 * max(C_S, 1)``."""
    return float(n_min) ** 2 * max(c_s, 1)


def _z_value(level: float) -> float:
    """Two-sided Normal quantile for a confidence ``level`` in (0, 1)."""
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0,1), got {level}")
    return NormalDist().inv_cdf((1 + level) / 2)


@dataclass(frozen=True)
class CountSketchResult:
    """Items with (possibly HT-adjusted) count estimates.

    Attributes
    ----------
    items: item identifiers (<= m of them)
    estimates: unbiased count estimates per item
    threshold: largest reduction threshold behind the estimates (0 when
        no reduction happened); the ``N_min``-analogue used for variance
        estimation
    t: total mass the sketch summarizes (sum of pre-reduction counts)
    """

    items: np.ndarray
    estimates: np.ndarray
    threshold: float
    t: float

    def __len__(self) -> int:
        return len(self.items)

    def estimates_dict(self) -> dict:
        """item -> estimate mapping."""
        return dict(zip(self.items.tolist(), self.estimates.tolist()))

    def estimate(self, item) -> float:
        """Estimate for one item (0 when absent)."""
        hits = self.estimates[self.items == item]
        return float(hits[0]) if len(hits) else 0.0

    def frequent_items(self, k: int | None = None) -> list[tuple]:
        """Top-k (item, estimate) pairs by estimate."""
        order = np.argsort(-self.estimates)
        if k is not None:
            order = order[:k]
        return list(zip(self.items[order].tolist(), self.estimates[order].tolist()))

    def to_pandas(self) -> pd.DataFrame:
        """Two-column frame ``[item, estimate]``."""
        return pd.DataFrame({"item": self.items, "estimate": self.estimates})

    def subset_sum(self, member) -> tuple[float, int]:
        """``(N_hat_S, C_S)`` — estimate and number of sketch items in S."""
        mask = member_mask(self.items, member)
        return float(self.estimates[mask].sum()), int(mask.sum())

    def subset_sum_ci(
        self, member, *, level: float = 0.95
    ) -> tuple[float, float, float, float]:
        """Subset sum with eq.-5 variance and a Normal confidence interval.

        Returns ``(estimate, variance_hat, lo, hi)``.
        """
        est, c_s = self.subset_sum(member)
        var = subset_sum_variance(int(math.ceil(self.threshold)), c_s)
        z = _z_value(level)
        sd = math.sqrt(var)
        return est, var, est - z * sd, est + z * sd
