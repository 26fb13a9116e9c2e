"""Earlier implementations of hdp's per-plan kernels, kept as reference oracles.

``hdpbench.hdp`` now sorts each row or column once and reads the order
statistics, the mode and the bin x label table from it. These are the
versions built from ``np.unique``, ``np.median``, ``np.percentile`` and a
per-bin mask loop. The new code adds in the same order and takes the same
order statistics, so tests compare the two with ``==``, not with a
tolerance. ``equal_frequency_bins`` goes the other way: hdp takes its cuts
from ``np.quantile``, and the oracle is the hand-written index rule that
hdp used before.

``hdpbench.hdp`` also sorts each dataset's columns once and computes a
plan's KS weights as one matrix. ``ks_statistic`` sorts both samples on
every call, and ``match_metrics`` / ``hdp1_predict`` rank the source's
metrics and fill the weight matrix one pair at a time, as hdp1 did before.
``kolmogorov_sf`` is the hand-written series hdp1 used for the p-values
before ``scipy.special.kolmogorov``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import special

from hdpbench import hdp
from hdpbench.datasets import DefectDataset
from hdpbench.hdp import _entropy
from hdpbench.learner import predict_proba, train_logistic
from hdpbench.udp import Prediction


def equal_frequency_bins(feature: np.ndarray, n_bins: int = 10) -> np.ndarray:
    """The hand-written cut rule: the lower order statistic at the index
    floor((n - 1) * (k / b)), taken from one sort, repeats merged."""
    x = np.asarray(feature, dtype=float)
    index = np.floor((len(x) - 1) * (np.arange(1, n_bins) / n_bins)).astype(np.intp)
    order_stats = np.sort(x)[index]
    cuts = order_stats[np.concatenate(([True], order_stats[1:] != order_stats[:-1]))]
    return np.searchsorted(cuts, x, side="right")


def gain_ratio(feature: Sequence[float], labels: Sequence[bool]) -> float:
    x = np.asarray(feature, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("feature/labels must be equal-length with >= 2 samples")
    bins = equal_frequency_bins(x)
    bin_ids, bin_counts = np.unique(bins, return_counts=True)
    intrinsic = _entropy(bin_counts)
    if intrinsic == 0:
        return 0.0
    h_labels = _entropy(np.bincount(y.astype(int), minlength=2))
    conditional = sum(
        count / len(x) * _entropy(np.bincount(y[bins == b].astype(int), minlength=2))
        for b, count in zip(bin_ids, bin_counts)
    )
    return min(1.0, max(0.0, (h_labels - conditional) / intrinsic))


def distribution_vector(module_row: Sequence[float]) -> np.ndarray:
    x = np.asarray(module_row, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("module row must be a non-empty 1-d vector")
    n = len(x)
    values, counts = np.unique(x, return_counts=True)
    mode = float(values[np.argmax(counts)])
    mode_freq = int(counts.max())
    mean = float(x.mean())
    minimum = float(x.min())
    maximum = float(x.max())
    harmonic = n / float(np.sum(1.0 / x)) if minimum > 0 else 0.0
    dev = x - mean
    variance = float(np.mean(dev * dev))
    std = math.sqrt(variance)
    cv = std / mean if mean != 0 else 0.0
    skew = float(np.mean(dev * dev * dev)) / std**3 if std > 0 else 0.0
    kurt = float(np.mean((dev * dev) * (dev * dev))) / std**4 - 3.0 if std > 0 else 0.0
    return np.array([
        mode,
        float(np.median(x)),
        mean,
        harmonic,
        minimum,
        maximum,
        maximum - minimum,
        1.0 - mode_freq / n,
        float(np.percentile(x, 75) - np.percentile(x, 25)),
        variance,
        std,
        cv,
        skew,
        kurt,
    ])


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the asymptotic Kolmogorov distribution."""
    if lam <= 0:
        return 1.0
    if lam < 1.18:
        # dual theta series converges fast for small arguments
        total = 0.0
        k = 1
        while True:
            term = math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8 * lam * lam))
            total += term
            if term < 1e-16 * max(total, 1e-300) or k > 100:
                break
            k += 1
        return min(1.0, max(0.0, 1.0 - math.sqrt(2 * math.pi) / lam * total))
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-16:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    x = np.sort(np.asarray(a, dtype=float))
    y = np.sort(np.asarray(b, dtype=float))
    if len(x) == 0 or len(y) == 0:
        raise ValueError("both samples must be non-empty")
    points = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, points, side="right") / len(x)
    cdf_y = np.searchsorted(y, points, side="right") / len(y)
    return float(np.abs(cdf_x - cdf_y).max())


def ks_pvalue(a: Sequence[float], b: Sequence[float]) -> float:
    d = ks_statistic(a, b)
    n, m = len(a), len(b)
    effective = n * m / (n + m)
    return float(special.kolmogorov(math.sqrt(effective) * d))


def match_metrics(source: DefectDataset, target: DefectDataset) -> hdp.MetricMatch:
    selected = hdp.select_top_metrics(source)
    target_names = target.metric_names
    weights = np.zeros((len(selected), len(target_names)))
    for i, s_name in enumerate(selected):
        s_col = source.column(s_name)
        for j, t_name in enumerate(target_names):
            weights[i, j] = ks_pvalue(s_col, target.column(t_name))
    match = hdp.match_from_weights(weights, list(selected), list(target_names))
    pairs = sorted(match.pairs, key=lambda p: source.metric_index(p[0]))
    return hdp.MetricMatch(tuple(pairs))


def hdp1_predict(source: DefectDataset, target: DefectDataset) -> hdp.HdpOutcome:
    match = match_metrics(source, target)
    if not match.pairs:
        return hdp.HdpOutcome(failure="NoMatchedMetrics")
    source_cols = [source.metric_index(s) for s, _, _ in match.pairs]
    target_cols = [target.metric_index(t) for _, t, _ in match.pairs]
    model = train_logistic(source.values[:, source_cols], source.labels)
    scores = predict_proba(model, target.values[:, target_cols])
    return hdp.HdpOutcome(predictions=Prediction(scores, scores > 0.5))
