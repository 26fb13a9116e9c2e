"""Earlier implementations of hdp's per-plan kernels, kept as reference oracles.

``hdpbench.hdp`` now sorts each row or column once and reads the order
statistics, the mode and the bin x label table from it. These are the
versions built from ``np.unique``, ``np.median``, ``np.percentile``,
``np.quantile`` and a per-bin mask loop. The new code adds in the same
order and takes the same order statistics, so tests compare the two with
``==``, not with a tolerance.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from hdpbench.hdp import _entropy


def equal_frequency_bins(feature: np.ndarray, n_bins: int = 10) -> np.ndarray:
    x = np.asarray(feature, dtype=float)
    cuts = np.unique(np.quantile(x, np.arange(1, n_bins) / n_bins, method="lower"))
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
    variance = float(np.mean((x - mean) ** 2))
    std = math.sqrt(variance)
    cv = std / mean if mean != 0 else 0.0
    skew = float(np.mean((x - mean) ** 3)) / std**3 if std > 0 else 0.0
    kurt = float(np.mean((x - mean) ** 4)) / std**4 - 3.0 if std > 0 else 0.0
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
