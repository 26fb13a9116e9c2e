"""Statistical comparison machinery: Wilcoxon signed-rank with BH
correction and Cliff's delta win/tie/loss calls, Scott-Knott mean-rank
grouping, McNemar diversity analysis, and the satisfactory criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Mapping, Sequence

import numpy as np

ALPHA = 0.05
NEGLIGIBLE_DELTA = 0.147  # |delta| below this is a negligible effect
_EXACT_LIMIT = 12  # exact null distribution up to this many nonzero diffs


@cache
def _exact_null(doubled: tuple[int, ...]) -> tuple[int, ...]:
    """Cumulative null distribution of the doubled rank sum: entry k counts
    the 2^n sign assignments of ``doubled`` (sorted doubled ranks) whose sum
    is below k. The counts depend only on the multiset of ranks, so the
    sorted tuple is the key; there are fewer than 2^_EXACT_LIMIT tie
    patterns, which bounds the cache."""
    counts = np.zeros(sum(doubled) + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        counts[r:] = counts[r:] + counts[:-r]
    return (0, *np.cumsum(counts).tolist())


def wilcoxon_signed_ranks(
    diffs: Sequence[float], starts: Sequence[int], stops: Sequence[int]
) -> np.ndarray:
    """Two-sided Wilcoxon signed-rank p-values of many parts of one vector
    of paired differences, part i being ``diffs[starts[i]:stops[i]]``.

    Zero differences are dropped and tied |differences| share averaged
    ranks. A part's p-value is exact for up to 12 remaining differences,
    counting the 2^n sign assignments by rank sum; beyond that a normal
    approximation with tie and continuity corrections keeps the two paths
    within 0.02 of each other at the crossover. A part without a nonzero
    difference gives p = 1; a NaN difference raises ``ValueError``.

    One sort ranks every part. Averaged ranks are multiples of 1/2, so
    doubled ranks are integers: a run of tied |differences| over a part's
    sorted positions [start, end) has the doubled rank start + end + 1, and
    rank sums and tie terms are exact integer sums. Only the exact null
    lookup or the normal formula runs once per part, on Python numbers.
    """
    diffs = np.asarray(diffs, dtype=float)
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if diffs.ndim != 1 or starts.shape != stops.shape or starts.ndim != 1:
        raise ValueError("need a vector of differences and equal-length part bounds")
    if np.any((starts < 0) | (starts > stops) | (stops > len(diffs))):
        raise ValueError("every part must lie within the differences")
    if np.isnan(diffs).any():
        raise ValueError("wilcoxon_signed_ranks needs differences that are not NaN")
    k = len(starts)
    lengths = stops - starts
    # each part's differences, part after part, and the part of each
    part = np.repeat(np.arange(k), lengths)
    d = diffs[np.arange(len(part)) - np.repeat(np.cumsum(lengths) - lengths - starts, lengths)]
    nonzero = d != 0
    d, part = d[nonzero], part[nonzero]
    m = len(d)
    if m == 0:
        return np.ones(k)
    magnitude = np.abs(d)
    order = np.lexsort((magnitude, part))
    magnitude, part, positive = magnitude[order], part[order], d[order] > 0
    n = np.bincount(part, minlength=k)
    first = np.cumsum(n) - n  # each part's first sorted position
    run_starts = np.flatnonzero(np.concatenate(
        ([True], (part[1:] != part[:-1]) | (magnitude[1:] != magnitude[:-1]))))
    run_ends = np.append(run_starts[1:], m)
    run_part = part[run_starts]
    ties = run_ends - run_starts
    doubled = run_starts + run_ends + 1 - 2 * first[run_part]
    # the first run of each part that has a nonzero difference
    part_runs = np.flatnonzero(np.concatenate(([True], run_part[1:] != run_part[:-1])))
    run_positives = np.add.reduceat(positive.astype(np.int64), run_starts)
    w2 = np.zeros(k, dtype=np.int64)  # doubled rank sum of the positive differences
    tie_term = np.zeros(k, dtype=np.int64)  # sum of t^3 - t over runs of t ties
    w2[n > 0] = np.add.reduceat(doubled * run_positives, part_runs)
    tie_term[n > 0] = np.add.reduceat(ties**3 - ties, part_runs)
    ranks = np.repeat(doubled, ties).tolist()  # doubled rank of each sorted position
    pvalues = []
    for n_i, w2_i, tie_i, lo in zip(n.tolist(), w2.tolist(), tie_term.tolist(), first.tolist()):
        if n_i == 0:
            pvalues.append(1.0)
        elif n_i <= _EXACT_LIMIT:
            below = _exact_null(tuple(ranks[lo:lo + n_i]))
            p_ge = (2**n_i - below[w2_i]) / 2**n_i
            p_le = below[w2_i + 1] / 2**n_i
            pvalues.append(min(1.0, 2.0 * min(p_ge, p_le)))
        else:
            mu = n_i * (n_i + 1) / 4.0
            sigma2 = n_i * (n_i + 1) * (2 * n_i + 1) / 24.0 - float(tie_i) / 48.0
            z = max(abs(w2_i / 2 - mu) - 0.5, 0.0) / math.sqrt(sigma2)
            pvalues.append(math.erfc(z / math.sqrt(2.0)))
    return np.array(pvalues)


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-sided Wilcoxon signed-rank p-value for paired samples: the
    one-part case of ``wilcoxon_signed_ranks`` on the differences x - y.
    All-zero differences give p = 1; a NaN or infinite value raises
    ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) == 0:
        raise ValueError("x and y must be equal-length non-empty vectors")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("wilcoxon_signed_rank needs finite values")
    return float(wilcoxon_signed_ranks(x - y, [0], [len(x)])[0])


def bh_adjust(pvals: Sequence[float]) -> list[float]:
    """Benjamini-Hochberg step-up adjusted p-values, original order kept."""
    p = np.asarray(pvals, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("need a non-empty vector of p-values")
    if not np.all((p >= 0) & (p <= 1)):  # NaN fails both comparisons
        raise ValueError("p-values must lie in [0, 1]")
    m = len(p)
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    out = np.empty(m)
    out[order] = adjusted
    return out.tolist()


def cliffs_delta(x: Sequence[float], y: Sequence[float]) -> float:
    """(#{x_i > y_j} - #{x_i < y_j}) / (|x| * |y|), in [-1, 1]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or len(x) == 0 or len(y) == 0:
        raise ValueError("both samples must be non-empty vectors")
    if np.isnan(x).any() or np.isnan(y).any():  # a NaN would count as a tie
        raise ValueError("samples must not be NaN")
    greater = np.count_nonzero(x[:, None] > y[None, :])
    less = np.count_nonzero(x[:, None] < y[None, :])
    return (greater - less) / (len(x) * len(y))


def wtl_outcome(p: float, x: Sequence[float], y: Sequence[float]) -> str:
    """'win' / 'tie' / 'loss' for the paired sample ``x`` against ``y``
    at p-value ``p``: a difference counts only when p is below 0.05 and
    Cliff's delta is not negligible. Cliff's delta is computed only for a
    significant p."""
    if p >= ALPHA:
        return "tie"
    delta = cliffs_delta(x, y)
    if delta >= NEGLIGIBLE_DELTA:
        return "win"
    if delta <= -NEGLIGIBLE_DELTA:
        return "loss"
    return "tie"


@dataclass(frozen=True)
class WtlRecord:
    win: int
    tie: int
    loss: int

    def __post_init__(self):
        if min(self.win, self.tie, self.loss) < 0:
            raise ValueError("counts must be non-negative")

    def __str__(self) -> str:
        return f"{self.win}/{self.tie}/{self.loss}"


@dataclass(frozen=True)
class SkRanking:
    """Scott-Knott result: statistically distinct groups, largest mean first
    (callers pass samples oriented by ``measures.oriented``)."""

    groups: tuple[tuple[str, ...], ...]
    means: dict[str, float]


_SK_FACTOR = math.pi / (2.0 * (math.pi - 2.0))


def _mean(values: np.ndarray) -> float:
    """``values.mean()`` as a float, bit for bit: numpy's mean is this
    pairwise sum over the count, without the call's overhead."""
    return float(np.add.reduce(values)) / len(values)


def scott_knott(samples: Mapping[str, Sequence[float]]) -> SkRanking:
    """Recursive mean-based grouping of methods into distinct ranks.

    Methods are ordered by mean, largest first (callers pass oriented
    samples); the split maximizing the between-group sum of squares is
    accepted when the lambda statistic exceeds the chi-square critical value
    at ``ALPHA`` with k/(pi - 2) degrees of freedom, then both halves are
    partitioned recursively. The error variance of a treatment mean is
    pooled once over all methods. Each method needs at least 2 samples,
    none of them NaN.
    """
    from scipy.special import chdtri

    if not samples:
        raise ValueError("need at least one method")
    arrays = {name: np.asarray(vals, dtype=float) for name, vals in samples.items()}
    for name, vals in arrays.items():
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError(f"method {name!r} needs at least 2 samples")
        if np.isnan(vals).any():  # a NaN mean would end the ranking in one group
            raise ValueError(f"method {name!r} has a NaN sample")
    means = {name: _mean(vals) for name, vals in arrays.items()}
    nu = sum(len(v) - 1 for v in arrays.values())
    sse = sum(float(np.add.reduce((v - means[name]) ** 2)) for name, v in arrays.items())
    mse = sse / nu if nu > 0 else 0.0
    mean_replication = sum(len(v) for v in arrays.values()) / len(arrays)
    s2_mean = mse / mean_replication

    ordered = sorted(arrays, key=lambda name: (-means[name], name))
    groups: list[tuple[str, ...]] = []

    def partition(group: list[str]) -> None:
        k = len(group)
        if k >= 2:
            ms = np.array([means[name] for name in group])
            overall = _mean(ms)
            best_b0, best_split = -1.0, 1
            for split in range(1, k):
                left, right = ms[:split], ms[split:]
                b0 = split * (_mean(left) - overall) ** 2 + (k - split) * (_mean(right) - overall) ** 2
                if b0 > best_b0:
                    best_b0, best_split = b0, split
            sigma02 = (float(np.add.reduce((ms - overall) ** 2)) + nu * s2_mean) / (k + nu)
            if sigma02 > 0:
                lam = _SK_FACTOR * best_b0 / sigma02
                # chdtri is the chi-square inverse survival function
                if lam > chdtri(k / (math.pi - 2.0), ALPHA):
                    partition(group[:best_split])
                    partition(group[best_split:])
                    return
        groups.append(tuple(group))

    partition(ordered)
    return SkRanking(tuple(groups), means)


@dataclass(frozen=True)
class ContingencyTable:
    """Counts over actually-defective modules for two methods' predictions."""

    n_cc: int
    n_cw: int
    n_wc: int
    n_ww: int

    def __post_init__(self):
        if min(self.n_cc, self.n_cw, self.n_wc, self.n_ww) < 0:
            raise ValueError("counts must be non-negative")


def mcnemar_pvalues(n_cw, n_wc) -> np.ndarray:
    """Asymptotic McNemar p-values without continuity correction, one per
    element of the integer discordant counts ``n_cw`` and ``n_wc``.

    chi^2 = (n_cw - n_wc)^2 / (n_cw + n_wc) on 1 degree of freedom; zero
    discordant counts give p = 1.
    """
    from scipy.special import chdtrc

    n_cw = np.asarray(n_cw, dtype=np.int64)
    n_wc = np.asarray(n_wc, dtype=np.int64)
    discordant = n_cw + n_wc
    # integer counts convert exactly, so the quotient is the correctly
    # rounded one, as with Python ints
    stat = (n_cw - n_wc) ** 2 / np.maximum(discordant, 1)
    # chdtrc is the chi-square survival function
    return np.where(discordant == 0, 1.0, chdtrc(1, stat))


def mcnemar(ct: ContingencyTable) -> float:
    """``mcnemar_pvalues`` of one contingency table."""
    return float(mcnemar_pvalues(ct.n_cw, ct.n_wc))


def satisfactory(precision: float, recall: float, criterion: str) -> bool:
    """SC1: precision and recall both above 75%; SC2: recall above 70% and
    precision above 50%. Inequalities are strict."""
    for value in (precision, recall):
        if not 0 <= value <= 1:
            raise ValueError("precision/recall must lie in [0, 1]")
    if criterion == "SC1":
        return precision > 0.75 and recall > 0.75
    if criterion == "SC2":
        return recall > 0.70 and precision > 0.50
    raise ValueError(f"unknown criterion {criterion!r}")


def satisfactory_ratio(
    results: Sequence[tuple[float, float]], criterion: str
) -> float:
    """Percentage (two decimals) of (precision, recall) pairs meeting the criterion."""
    if not results:
        raise ValueError("need at least one combination")
    hits = sum(satisfactory(p, r, criterion) for p, r in results)
    return round(100.0 * hits / len(results), 2)
