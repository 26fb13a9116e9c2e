"""Earlier implementations of stats' Wilcoxon, McNemar and Scott-Knott, kept as reference oracles.

``hdpbench.stats.wilcoxon_signed_ranks`` ranks many parts in one sort and
counts the null distribution of the rank sum over doubled (integer) ranks,
once per tie pattern; ``stats.wilcoxon_signed_rank`` is its one-part case.
``wilcoxon_exact`` builds the 2^n x n sign matrix and reads the tail shares
from every sign assignment's rank sum; ``wilcoxon_signed_rank`` here is the
counted version before the cache. All count the same assignments, so tests
compare them with ``==``. ``contingency_table`` counts two methods'
predictions over the defective modules one module at a time, where the
diversity report takes one integer product, and ``mcnemar`` is the scalar
form that ``stats.mcnemar_pvalues`` replaced. ``cliffs_delta`` counts its
boolean matrices with ``np.sum``, where the package calls
``np.count_nonzero``. ``scott_knott`` takes every mean with
``ndarray.mean``, where the package sums over the count; tests require equal
groups and means under ``==``.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
from scipy import special
from scipy.stats import rankdata

from hdpbench.stats import (
    _EXACT_LIMIT,
    _SK_FACTOR,
    ALPHA,
    ContingencyTable,
    SkRanking,
)
from reference_measures import average_ranks


def wilcoxon_exact(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-sided exact p-value; only for up to 12 nonzero differences."""
    diffs = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    diffs = diffs[diffs != 0]
    n = len(diffs)
    if n == 0:
        return 1.0
    ranks = rankdata(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    signs = (np.arange(2**n, dtype=np.uint32)[:, None] >> np.arange(n)) & 1
    sums = signs @ ranks
    p_ge = float(np.mean(sums >= w_plus - 1e-9))
    p_le = float(np.mean(sums <= w_plus + 1e-9))
    return min(1.0, 2.0 * min(p_ge, p_le))


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> float:
    """The counted Wilcoxon before its exact null was cached: it ranks with
    numpy and counts the doubled rank sums on every call. Tests compare the
    cached version with it under ``==``, on both the exact and the normal path."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) == 0:
        raise ValueError("x and y must be equal-length non-empty vectors")
    diffs = x - y
    diffs = diffs[diffs != 0]
    n = len(diffs)
    if n == 0:
        return 1.0
    ranks = average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    if n <= _EXACT_LIMIT:
        # averaged ranks are multiples of 1/2, so doubled ranks are integers:
        # count the sign assignments reaching each doubled rank sum
        doubled = np.rint(2 * ranks).astype(np.int64)
        counts = np.zeros(int(doubled.sum()) + 1, dtype=np.int64)
        counts[0] = 1
        for r in doubled:
            counts[r:] = counts[r:] + counts[:-r]
        w2 = int(doubled[diffs > 0].sum())
        p_ge = int(counts[w2:].sum()) / 2**n
        p_le = int(counts[: w2 + 1].sum()) / 2**n
        return min(1.0, 2.0 * min(p_ge, p_le))
    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(diffs), return_counts=True)
    sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    z = max(abs(w_plus - mu) - 0.5, 0.0) / math.sqrt(sigma2)
    return math.erfc(z / math.sqrt(2.0))


def contingency_table(
    predicted_a: Sequence[bool], predicted_b: Sequence[bool], actual: Sequence[bool]
) -> ContingencyTable:
    """Counts over the defective modules of ``actual``, one module at a
    time; a correct prediction is predicting defective."""
    counts = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    for a, b, defective in zip(predicted_a, predicted_b, actual, strict=True):
        if defective:
            counts[bool(a), bool(b)] += 1
    return ContingencyTable(*counts.values())


def cliffs_delta(x: Sequence[float], y: Sequence[float]) -> float:
    """Cliff's delta with its comparison counts summed by ``np.sum``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    greater = int(np.sum(x[:, None] > y[None, :]))
    less = int(np.sum(x[:, None] < y[None, :]))
    return (greater - less) / (len(x) * len(y))


def mcnemar(ct: ContingencyTable) -> float:
    """The scalar McNemar p-value on Python ints, before the array form."""
    discordant = ct.n_cw + ct.n_wc
    if discordant == 0:
        return 1.0
    stat = (ct.n_cw - ct.n_wc) ** 2 / discordant
    return float(special.chdtrc(1, stat))  # the chi-square survival function


def scott_knott(samples: Mapping[str, Sequence[float]]) -> SkRanking:
    """The Scott-Knott grouping before it summed its means itself: every
    mean here is an ``ndarray.mean`` call."""
    if not samples:
        raise ValueError("need at least one method")
    arrays = {name: np.asarray(vals, dtype=float) for name, vals in samples.items()}
    for name, vals in arrays.items():
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError(f"method {name!r} needs at least 2 samples")
    means = {name: float(vals.mean()) for name, vals in arrays.items()}
    nu = sum(len(v) - 1 for v in arrays.values())
    sse = sum(float(((v - v.mean()) ** 2).sum()) for v in arrays.values())
    mse = sse / nu if nu > 0 else 0.0
    mean_replication = float(np.mean([len(v) for v in arrays.values()]))
    s2_mean = mse / mean_replication

    ordered = sorted(arrays, key=lambda name: (-means[name], name))
    groups: list[tuple[str, ...]] = []

    def partition(group: list[str]) -> None:
        k = len(group)
        if k >= 2:
            ms = np.array([means[name] for name in group])
            overall = ms.mean()
            best_b0, best_split = -1.0, 1
            for split in range(1, k):
                left, right = ms[:split], ms[split:]
                b0 = split * (left.mean() - overall) ** 2 + (k - split) * (right.mean() - overall) ** 2
                if b0 > best_b0:
                    best_b0, best_split = b0, split
            sigma02 = (float(((ms - overall) ** 2).sum()) + nu * s2_mean) / (k + nu)
            if sigma02 > 0:
                lam = _SK_FACTOR * best_b0 / sigma02
                # chdtri is the chi-square inverse survival function
                if lam > special.chdtri(k / (math.pi - 2.0), ALPHA):
                    partition(group[:best_split])
                    partition(group[best_split:])
                    return
        groups.append(tuple(group))

    partition(ordered)
    return SkRanking(tuple(groups), means)
