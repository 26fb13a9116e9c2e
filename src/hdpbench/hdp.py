"""Heterogeneous defect predictors.

Two methods are built in: metric selection + distribution matching +
maximum-weight bipartite matching feeding a logistic model, and the
distribution-characteristics re-representation that maps every module to a
fixed 14-statistic vector. Both return an ``HdpOutcome``, as a registered
external method does (``harness.register_external_method``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import DefectDataset
from .learner import DECISION_THRESHOLD, predict_proba, train_logistic
from .udp import Prediction

# hdp1's fixed settings: the share of source metrics kept by gain ratio, the
# KS p-value a matched pair must exceed, and the gain-ratio bins
SELECTION_FRACTION = 0.15
MATCH_CUTOFF = 0.05
GAIN_RATIO_BINS = 10


@dataclass(frozen=True)
class MetricMatch:
    """A matching of source metrics to target metrics with KS similarity weights."""

    pairs: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        sources = [p[0] for p in self.pairs]
        targets = [p[1] for p in self.pairs]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            raise ValueError("matched metrics must be unique on both sides")


@dataclass(frozen=True)
class HdpOutcome:
    """Either a Prediction in target row order or a recorded failure reason."""

    predictions: Prediction | None = None
    failure: str | None = None

    def __post_init__(self):
        if (self.predictions is None) == (self.failure is None):
            raise ValueError("exactly one of predictions/failure must be set")

    @property
    def ok(self) -> bool:
        return self.failure is None


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    probs = counts[counts > 0] / total
    return float(-(probs * np.log2(probs)).sum())


def equal_frequency_bins(feature: np.ndarray) -> np.ndarray:
    """Bin indices from order-statistic cut points (duplicates merged).

    With b = GAIN_RATIO_BINS, the cut for the k/b quantile is numpy's
    ``quantile(method="lower")``, the order statistic at index
    floor((n - 1) * (k / b)) computed in floating point (so n = 91 cuts the
    0.7 quantile at index 62, not 63). Binning therefore depends only on
    ranks and is invariant under strictly monotone transforms.
    """
    x = np.asarray(feature, dtype=float)
    fractions = np.arange(1, GAIN_RATIO_BINS) / GAIN_RATIO_BINS
    cuts = np.unique(np.quantile(x, fractions, method="lower"))
    return np.searchsorted(cuts, x, side="right")


def gain_ratio(feature: Sequence[float], labels: Sequence[bool]) -> float:
    """Information gain over intrinsic value after GAIN_RATIO_BINS equal-frequency bins.

    Defined as 0 when the intrinsic value is 0 (all samples in one bin).
    The conditional entropy adds the per-bin terms in bin order.
    """
    x = np.asarray(feature, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("feature/labels must be equal-length with >= 2 samples")
    # row b holds the (clean, defective) counts of bin b
    bins = equal_frequency_bins(x)
    table = np.bincount(2 * bins + y, minlength=2 * GAIN_RATIO_BINS).reshape(-1, 2)
    bin_counts = table.sum(axis=1)
    intrinsic = _entropy(bin_counts)
    if intrinsic == 0:
        return 0.0
    h_labels = _entropy(table.sum(axis=0))
    occupied = bin_counts > 0
    table, bin_counts = table[occupied], bin_counts[occupied]
    probs = table / bin_counts[:, None]
    # an empty label cell adds 0.0, as _entropy's mask leaves it out
    terms = probs * np.log2(np.where(table > 0, probs, 1.0))
    bin_entropy = -(terms[:, 0] + terms[:, 1])
    conditional = sum((bin_counts / len(x) * bin_entropy).tolist())
    return min(1.0, max(0.0, (h_labels - conditional) / intrinsic))


def select_top_metrics(d: DefectDataset) -> list[str]:
    """Metric names ranked by gain ratio, top ceil(SELECTION_FRACTION * m) kept.

    Ties keep column order.
    """
    ratios = np.array([gain_ratio(d.values[:, j], d.labels) for j in range(d.values.shape[1])])
    order = np.argsort(-ratios, kind="stable")
    keep = max(1, math.ceil(SELECTION_FRACTION * len(ratios) - 1e-9))
    return [d.metric_names[j] for j in order[:keep]]


def _sorted_columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column of an (n, m) matrix sorted ascending, one row per column,
    and, for each sorted value, the count of its row's values at or below it
    (right count) and below it (left count), both ``int32``."""
    columns = np.array(np.asarray(values, dtype=float).T, order="C")
    columns.sort(axis=1)

    def counts(side: str) -> np.ndarray:
        found = [np.searchsorted(c, c, side=side) for c in columns]
        return np.array(found, dtype=np.int32).reshape(columns.shape)

    return columns, counts("right"), counts("left")


def _ks_columns(d: DefectDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The half of every KS ECDF that ``d`` contributes, on either side of a plan."""
    return _sorted_columns(d.values)


def ks_statistics(
    x_columns: np.ndarray, x_right: np.ndarray, x_left: np.ndarray,
    y_columns: np.ndarray, y_right: np.ndarray, y_left: np.ndarray,
) -> np.ndarray:
    """Two-sample KS statistics of every x sample against every y sample.

    Each row of ``x_columns`` (k, n) and ``y_columns`` (l, m) is one sample
    sorted ascending, with each value's right and left counts in its own
    row, as ``_sorted_columns`` returns them. Entry (i, j) is the largest
    gap between the two ECDFs over the points of both samples, each ECDF
    value being count / sample size.

    Between two consecutive points of the smaller sample its ECDF is
    constant and the other one only rises, so the largest gap lies at one
    of the smaller sample's points: at its right value there or at its
    left limit. A left limit is the right value at the point of either
    sample just below (0 against 0 below every point), computed the same
    way, so the result is the same to the bit. The smaller sample's points
    (y's when n = m) are searched into each column of the other side: two
    ``searchsorted`` calls per column, about k*l*min(n, m)*log(max(n, m))
    work in all.
    """
    n, m = x_columns.shape[1], y_columns.shape[1]
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")
    if n < m:
        return ks_statistics(y_columns, y_right, y_left, x_columns, x_right, x_left).T
    stats = np.empty((len(x_columns), len(y_columns)))
    at_right, at_left = y_right / m, y_left / m
    for i, col in enumerate(x_columns):
        right = np.abs(np.searchsorted(col, y_columns, side="right") / n - at_right).max(axis=1)
        left = np.abs(np.searchsorted(col, y_columns, side="left") / n - at_left).max(axis=1)
        np.maximum(right, left, out=stats[i])
    return stats


def ks_pvalues(stats: np.ndarray, n: int, m: int) -> np.ndarray:
    """Asymptotic KS p-values of statistics between samples of n and m
    values, with effective size n*m/(n+m)."""
    from scipy.special import kolmogorov

    return kolmogorov(math.sqrt(n * m / (n + m)) * np.asarray(stats, dtype=float))


def ks_pvalue(a: Sequence[float], b: Sequence[float]) -> float:
    """Asymptotic two-sample KS p-value: the 1 x 1 case of ``ks_statistics``
    and ``ks_pvalues``."""
    x = _sorted_columns(np.asarray(a, dtype=float)[:, None])
    y = _sorted_columns(np.asarray(b, dtype=float)[:, None])
    return float(ks_pvalues(ks_statistics(*x, *y), len(a), len(b))[0, 0])


def max_weight_assignment(weights: np.ndarray) -> list[tuple[int, int]]:
    """Exact maximum-weight assignment (Kuhn-Munkres with potentials).

    Accepts a rectangular matrix; every row (or column, whichever side is
    smaller) is assigned. Returns (row, col) index pairs, sorted.

    Ties: when several pairings reach the same total weight, the one
    returned is the first this iteration reaches. The smaller side (rows
    after transposing a tall matrix) is added one index at a time, and
    each augmenting-path search scans the other side in increasing index
    order and moves only to a strictly smaller reduced cost. So a matrix
    of equal weights pairs index i with index i, e.g. ``ones((3, 3))``
    gives the diagonal and ``ones((2, 4))`` and ``ones((4, 2))`` give
    [(0, 0), (1, 1)]. Another solver may return another optimal pairing.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.size == 0:
        raise ValueError("weight matrix must be 2-d and non-empty")
    transposed = weights.shape[0] > weights.shape[1]
    if transposed:
        weights = weights.T
    n, m = weights.shape
    cost = -weights  # minimize negated weights
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # match[j] = row assigned to column j (1-based)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    pairs = [(match[j] - 1, j - 1) for j in range(1, m + 1) if match[j] != 0]
    if transposed:
        pairs = [(c, r) for r, c in pairs]
    return sorted(pairs)


def match_from_weights(
    weights: np.ndarray, source_names: Sequence[str], target_names: Sequence[str]
) -> MetricMatch:
    """Maximum-total-weight matching over edges whose weight exceeds ``MATCH_CUTOFF``.

    Edges at or below the cutoff are zeroed before the assignment is solved
    and dropped from the returned pairs; an empty matching is a valid
    result. Among pairings of equal total weight, the one returned is the
    one ``max_weight_assignment`` picks by its tie rule.
    """
    weights = np.asarray(weights, dtype=float)
    usable = np.where(weights > MATCH_CUTOFF, weights, 0.0)
    if not np.any(usable > 0):
        return MetricMatch(())
    pairs = [
        (source_names[i], target_names[j], float(weights[i, j]))
        for i, j in max_weight_assignment(usable)
        if weights[i, j] > MATCH_CUTOFF
    ]
    return MetricMatch(tuple(pairs))


def match_metrics(source: DefectDataset, target: DefectDataset) -> MetricMatch:
    """Maximum-total-weight matching of the source's selected metrics to the
    target's metrics, where an edge weight is the KS p-value of the two columns.

    Edges with weight <= ``MATCH_CUTOFF`` are removed before solving (a high
    p-value means the distributions are similar). The pairs come in source
    column order. Each dataset's metric selection and sorted columns are
    computed once (``DefectDataset.derived``), so a dataset that is never a
    source never ranks its metrics, and one too small to rank fails each
    plan it is the source of.
    """
    selected = source.derived(select_top_metrics)
    rows = [source.metric_index(name) for name in selected]
    columns, right, left = source.derived(_ks_columns)
    stats = ks_statistics(columns[rows], right[rows], left[rows], *target.derived(_ks_columns))
    weights = ks_pvalues(stats, source.n_modules, target.n_modules)
    match = match_from_weights(weights, selected, target.metric_names)
    pairs = sorted(match.pairs, key=lambda p: source.metric_index(p[0]))
    return MetricMatch(tuple(pairs))


def hdp1_predict(source: DefectDataset, target: DefectDataset) -> HdpOutcome:
    """KS matching of the source's selected metrics, then a logistic model on
    the matched columns. Fails with NoMatchedMetrics when no metric pair
    survives ``MATCH_CUTOFF``; the failure is recorded, not fatal."""
    match = match_metrics(source, target)
    if not match.pairs:
        return HdpOutcome(failure="NoMatchedMetrics")
    source_cols = [source.metric_index(name) for name, _, _ in match.pairs]
    target_cols = [target.metric_index(name) for _, name, _ in match.pairs]
    model = train_logistic(source.values[:, source_cols], source.labels)
    scores = predict_proba(model, target.values[:, target_cols])
    return HdpOutcome(predictions=Prediction(scores, scores > DECISION_THRESHOLD))


DISTRIBUTION_STATS = (
    "mode", "median", "mean", "harmonic_mean", "minimum", "maximum", "range",
    "variation_ratio", "interquartile_range", "variance", "standard_deviation",
    "coefficient_of_variation", "skewness", "kurtosis",
)


def _linear_quantile(ordered: list[float], q: float) -> float:
    """numpy's default ("linear") quantile of an ascending list, bit for bit.

    The virtual index is (n - 1) * q; the two neighbouring order statistics
    are interpolated with numpy's ``_lerp``, which works from the upper
    neighbour when the weight is at least 0.5.
    """
    n = len(ordered)
    if n == 1:
        return ordered[0]
    virtual = (n - 1) * q
    i = math.floor(virtual)
    t = virtual - i
    lo, hi = ordered[i], ordered[i + 1]
    diff = hi - lo
    return hi - diff * (1 - t) if t >= 0.5 else lo + diff * t


def distribution_vector(module_row: Sequence[float]) -> np.ndarray:
    """The 14 distribution characteristics of one module's metric values.

    Degenerate cases: harmonic mean is 0 when any value is <= 0, the
    coefficient of variation is 0 at zero mean, and skewness/kurtosis are 0
    at zero standard deviation. The mode breaks frequency ties toward the
    smallest value; kurtosis is excess kurtosis. Variance is the population
    variance, the median of an even-length row is the mean of the middle
    pair, and the quartiles follow numpy's default linear rule.

    The row is sorted once into a list; mode, median and quartiles are read
    from it. The mode is the first value of the first longest run of equal
    values, found in one pass over the list; -0.0 and 0.0 count as one
    value.

    The sums, the minimum and the maximum must stay numpy's ufunc
    reductions on the unsorted row: the ones ``np.mean``, ``np.sum``,
    ``min`` and ``max`` call (``np.add.reduce``, ``np.minimum.reduce``,
    ``np.maximum.reduce``), called directly and in the same order, so every
    float equals theirs. A Python sum adds in another order than numpy's
    pairwise blocks, and the ends of the sorted list may carry the other
    sign of zero. The powers of the deviations are the products ``dev*dev``,
    ``sq*dev`` and ``sq*sq``, which every CPU rounds the same way; numpy's
    ``**`` takes its last bits from the SIMD kernel it dispatches to. The
    powers of the standard deviation stay Python's.
    """
    x = np.asarray(module_row, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("module row must be a non-empty 1-d vector")
    n = len(x)
    s = x.copy()
    s.sort()
    ordered = s.tolist()
    # the first longest run of equal sorted values holds the smallest value
    mode = start = ordered[0]
    mode_freq = run = 0
    for v in ordered:
        if v == start:
            run += 1
        else:
            start, run = v, 1
        if run > mode_freq:
            mode, mode_freq = start, run
    half = n // 2
    median = ordered[half] if n % 2 else (ordered[half - 1] + ordered[half]) / 2
    # np.mean is an add.reduce divided by n; the sums below add in that order
    mean = float(np.add.reduce(x)) / n
    minimum = float(np.minimum.reduce(x))
    maximum = float(np.maximum.reduce(x))
    harmonic = n / float(np.add.reduce(1.0 / x)) if minimum > 0 else 0.0
    dev = x - mean
    sq = dev * dev
    variance = float(np.add.reduce(sq)) / n
    std = math.sqrt(variance)
    cv = std / mean if mean != 0 else 0.0
    skew = float(np.add.reduce(sq * dev)) / n / std**3 if std > 0 else 0.0
    kurt = float(np.add.reduce(sq * sq)) / n / std**4 - 3.0 if std > 0 else 0.0
    return np.array([
        mode,
        median,
        mean,
        harmonic,
        minimum,
        maximum,
        maximum - minimum,
        1.0 - mode_freq / n,
        _linear_quantile(ordered, 0.75) - _linear_quantile(ordered, 0.25),
        variance,
        std,
        cv,
        skew,
        kurt,
    ])


def hdp5_predict(source: DefectDataset, target: DefectDataset) -> HdpOutcome:
    """Re-represent every module by its distribution characteristics and
    train the classifier on the source vectors; always succeeds."""
    x_source = np.array([distribution_vector(row) for row in source.values])
    x_target = np.array([distribution_vector(row) for row in target.values])
    model = train_logistic(x_source, source.labels)
    scores = predict_proba(model, x_target)
    return HdpOutcome(predictions=Prediction(scores, scores > DECISION_THRESHOLD))

