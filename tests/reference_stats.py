"""Earlier implementation of stats' exact Wilcoxon path, kept as a reference oracle.

``hdpbench.stats.wilcoxon_signed_rank`` counts the null distribution of the
rank sum over doubled (integer) ranks. This version builds the 2^n x n sign
matrix and reads the tail shares from every sign assignment's rank sum.
Both count the same assignments, so tests compare them with ``==``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.stats import rankdata


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
