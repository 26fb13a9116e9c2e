"""Bit-exact agreement of hdp's sorted-row kernels with the earlier code.

``reference_hdp`` holds the ``np.unique`` / ``np.median`` /
``np.percentile`` versions of ``distribution_vector`` and ``gain_ratio``,
and the hand-written index rule of ``equal_frequency_bins``, whose cuts hdp
now takes from ``np.quantile``. Every comparison uses ``==``
(``np.array_equal``), and every input without ``-0.0`` must also give the
same bytes. With ``-0.0`` in a row, a zero median or quartile may carry the
other sign, because ``np.median`` and ``np.percentile`` partition the row
where the new code sorts it; those two fields are then compared with ``==``
only.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_hdp as ref
from hdpbench import hdp

MEDIAN, IQR = hdp.DISTRIBUTION_STATS.index("median"), hdp.DISTRIBUTION_STATS.index("interquartile_range")

# few distinct values force many-way frequency ties; 0 and negatives hit the
# harmonic-mean guard
TIED = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
WIDE = st.floats(1e-3, 1e6) | st.floats(-1e6, -1e-3)


@st.composite
def rows(draw, min_size=1, max_size=200):
    n = draw(st.integers(min_size, max_size))
    kind = draw(st.sampled_from(["constant", "tied", "wide", "mixed"]))
    if kind == "constant":
        return [draw(TIED | WIDE)] * n
    values = {"tied": TIED, "wide": WIDE, "mixed": TIED | WIDE}[kind]
    return draw(st.lists(values, min_size=n, max_size=n))


@st.composite
def labels_for(draw, n):
    kind = draw(st.sampled_from(["mixed", "all_defective", "none_defective"]))
    if kind == "mixed":
        return draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [kind == "all_defective"] * n


@st.composite
def gain_cases(draw):
    feature = draw(rows(min_size=2, max_size=200))
    return feature, draw(labels_for(len(feature)))


def has_negative_zero(values) -> bool:
    return any(v == 0 and math.copysign(1.0, v) < 0 for v in values)


# rows at numpy's 8-value pairwise-summation block, the promise, nasa37
# and aeeem metric counts, and past numpy's 128-value block, where the sums
# split in halves: distinct rows have only runs of one value, tied rows
# longer runs and ties for the mode
def distinct_row(width: int) -> list[float]:
    """Distinct non-integer values in scrambled order."""
    return [(7919 * v % 211) / 3 + 0.5 for v in range(width)]


def tied_row(width: int) -> list[float]:
    """Repeated integers 1, 2, 3 and 5; at widths 8, 20, 129 and 200 two or
    more of them tie for the mode."""
    return [float(v * v % 7 + 1) for v in range(width)]


@settings(max_examples=300)
@given(rows())
@example([7.0])
@example([-0.0])
@example([0.0, -0.0])
@example([1.0, 2.0])
@example([2.0, 2.0, 2.0])
@example([3.0, 3.0, 1.0, 1.0, 2.0, 2.0])
@example([3.0, 1.0, 3.0, 2.0, 2.0, 3.0])  # the longest run sorts last
@example([0.0, 1.0, 2.0])
@example([-1.0, 1.0, 2.0])
@example([1e-3, 1e6, 5.0, 1e6])
@example(distinct_row(8))
@example(distinct_row(20))
@example(distinct_row(37))
@example(distinct_row(61))
@example(distinct_row(129))
@example(distinct_row(200))
@example(tied_row(8))
@example(tied_row(20))
@example(tied_row(37))
@example(tied_row(61))
@example(tied_row(129))
@example(tied_row(200))
def test_distribution_vector_equals_reference(row):
    got = hdp.distribution_vector(row)
    want = ref.distribution_vector(row)
    assert np.array_equal(got, want, equal_nan=True)
    keep = np.ones(len(got), dtype=bool)
    if has_negative_zero(row):
        keep[[MEDIAN, IQR]] = False
    assert got[keep].tobytes() == want[keep].tobytes()


@settings(max_examples=300)
@given(gain_cases())
@example(([1.0] * 9 + [2.0], [True] * 5 + [False] * 5))  # a single occupied bin
@example(([0.0, -0.0, 1.0, -1.0], [True, False, True, False]))
@example(([float(v) for v in range(91)], [v % 3 == 0 for v in range(91)]))
def test_gain_ratio_equals_reference(case):
    feature, labels = case
    got = hdp.gain_ratio(feature, labels)
    want = ref.gain_ratio(feature, labels)
    assert got == want
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@given(rows(min_size=1, max_size=200))
@example([float(v) for v in range(91)])  # floor(90 * 0.7) is 62 in floating point
def test_equal_frequency_bins_equal_reference(feature):
    want = ref.equal_frequency_bins(feature, hdp.GAIN_RATIO_BINS)
    assert np.array_equal(hdp.equal_frequency_bins(feature), want)


def test_kernels_keep_their_input_checks():
    for bad_row in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            hdp.distribution_vector(bad_row)
    for feature, labels in (([1.0], [True]), ([1.0, 2.0], [True]), ([[1.0, 2.0]], [[True, False]])):
        with pytest.raises(ValueError):
            hdp.gain_ratio(feature, labels)


@st.composite
def sample_matrices(draw):
    """Two (n, k) and (m, l) matrices of samples, one sample per column."""
    n, m = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    k, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return (np.array([draw(rows(n, n)) for _ in range(k)]).T,
            np.array([draw(rows(m, m)) for _ in range(l)]).T)


@settings(max_examples=300)
@given(sample_matrices())
@example((np.array([[1.0]]), np.array([[1.0]])))  # n = m = 1
@example((np.array([[1.0]]), np.array([[0.0], [2.0]])))
@example((np.full((5, 2), 3.0), np.full((7, 3), 3.0)))  # all tied, constant
@example((np.full((4, 1), 3.0), np.array([[1.0], [2.0], [3.0], [3.0], [9.0]])))
@example((np.array([[-0.0], [0.0], [1.0]]), np.array([[0.0, -0.0], [-0.0, 0.0]])))
@example((np.array([[1.0], [4.0], [4.0]]),  # n < m
          np.array([[0.0, 5.0], [2.0, 4.0], [3.0, 4.0], [4.0, 1.0], [6.0, 1.0]])))
@example((np.array([[0.0, 9.0], [2.0, 1.0], [5.0, 1.0], [7.0, 3.0]]), np.array([[1.0], [6.0]])))  # n > m
@example((np.array([[1.0, 2.0], [3.0, 2.0], [5.0, 8.0]]),  # n = m
          np.array([[2.0, 0.0, 3.0], [4.0, 9.0, 3.0], [6.0, 1.0, 3.0]])))
@example((np.array([[1.0], [2.0], [2.0], [2.0], [3.0]]), np.array([[2.0], [2.0], [5.0]])))  # a tie group in both samples
@example((np.array([[1.0], [2.0], [3.0]]), np.array([[10.0]])))  # the largest gap only at a left limit
def test_ks_weight_matrix_equals_per_pair_loop(case):
    xs, ys = case
    stats = hdp.ks_statistics(*hdp._sorted_columns(xs), *hdp._sorted_columns(ys))
    weights = hdp.ks_pvalues(stats, len(xs), len(ys))
    for i in range(xs.shape[1]):
        for j in range(ys.shape[1]):
            assert stats[i, j] == ref.ks_statistic(xs[:, i], ys[:, j])
            assert weights[i, j] == hdp.ks_pvalue(xs[:, i], ys[:, j]) == ref.ks_pvalue(xs[:, i], ys[:, j])


def test_ks_keeps_its_input_checks():
    for a, b in (([], [1.0]), ([1.0], [])):
        with pytest.raises(ValueError):
            hdp.ks_pvalue(a, b)
