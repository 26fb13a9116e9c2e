"""Bit-exact agreement of stats' Wilcoxon, McNemar and Scott-Knott with the earlier code.

``reference_stats.wilcoxon_exact`` enumerates all 2^n sign assignments;
``hdpbench.stats.wilcoxon_signed_ranks`` counts them by doubled rank sum for
many parts at once, once per tie pattern, and
``reference_stats.wilcoxon_signed_rank`` counts them on every call, one pair
of samples at a time. ``reference_stats.mcnemar`` is the scalar McNemar test
on Python ints, and ``reference_stats.contingency_table`` counts one
module at a time what the diversity report counts with one integer product.
``reference_stats.cliffs_delta`` sums its comparisons with ``np.sum``, and
``reference_stats.scott_knott`` takes its means with ``ndarray.mean``. Every
comparison uses ``==``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_stats as ref
from hdpbench import stats
from helpers import diversity_report

# few distinct values give tied |differences| and zero differences
TIED = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
WIDE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def paired(draw, max_size=stats._EXACT_LIMIT):
    n = draw(st.integers(1, max_size))
    values = draw(st.sampled_from([TIED, WIDE, TIED | WIDE]))
    x = draw(st.lists(values, min_size=n, max_size=n))
    # some pairs are equal, so their zero differences are dropped
    y = [a if draw(st.booleans()) and draw(st.booleans()) else draw(values) for a in x]
    return x, y


@settings(max_examples=500)
@given(paired())
@example(([1.0], [0.0]))
@example(([1.0, 2.0], [1.0, 2.0]))  # all differences zero
@example(([1.0, -1.0, 2.0, -2.0], [0.0, 0.0, 0.0, 0.0]))  # tied magnitudes, both signs
@example(([1.0] * 12, [0.0] * 12))  # one 12-way tie
@example(([float(v) for v in range(1, 13)], [0.0] * 12))
@example(([float(v) for v in range(1, 13)], [0.0] * 6 + [20.0] * 6))
def test_exact_wilcoxon_equals_enumeration(case):
    x, y = case
    got = stats.wilcoxon_signed_rank(x, y)
    want = ref.wilcoxon_exact(x, y)
    assert got == want
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _same(got: float, want: float) -> bool:
    return got == want and np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=500)
@given(paired(max_size=20))
@example(([1.0] * 20, [0.0] * 20))  # one 20-way tie on the normal path
@example(([1.0, 2.0] * 10, [0.0, 3.0] * 10))  # two ties of ten, both signs
@example(([float(v) for v in range(1, 14)], [0.0] * 13))  # the first normal-path size
def test_cached_wilcoxon_equals_the_uncached_reference(case):
    x, y = case
    want = ref.wilcoxon_signed_rank(x, y)
    # the first call may fill the cache and the second reads it
    assert _same(stats.wilcoxon_signed_rank(x, y), want)
    assert _same(stats.wilcoxon_signed_rank(x, y), want)
    if sum(a != b for a, b in zip(x, y)) <= stats._EXACT_LIMIT:
        assert _same(want, ref.wilcoxon_exact(x, y))


def test_mcnemar_pvalues_equal_the_scalar_forms_on_every_count_up_to_60():
    n_cw, n_wc = (grid.ravel() for grid in np.meshgrid(np.arange(61), np.arange(61)))
    got = stats.mcnemar_pvalues(n_cw, n_wc).tolist()
    tables = [stats.ContingencyTable(0, int(a), int(b), 0) for a, b in zip(n_cw, n_wc)]
    assert got == [ref.mcnemar(t) for t in tables]
    assert got == [stats.mcnemar(t) for t in tables]
    # and in any array shape
    assert stats.mcnemar_pvalues(n_cw.reshape(61, 61), n_wc.reshape(61, 61)).ravel().tolist() == got


@st.composite
def label_triples(draw):
    """Two methods' flags and the truth over 1-40 modules."""
    n = draw(st.integers(1, 40))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    kind = draw(st.sampled_from(["mixed", "all_defective", "none_defective", "identical"]))
    a = draw(bits)
    b = a if kind == "identical" else draw(bits)
    if kind == "all_defective":
        return a, b, [True] * n
    if kind == "none_defective":
        return a, b, [False] * n
    return a, b, draw(bits)


@given(label_triples())
def test_diversity_report_counts_equal_the_loop_count(case):
    a, b, truth = case
    n_cw, n_wc, p, _ = diversity_report({"cla": a, "clami": b}, truth)
    table = ref.contingency_table(a, b, truth)
    assert (n_cw, n_wc) == ([table.n_cw], [table.n_wc])
    assert p == [ref.mcnemar(table)]


@given(
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=30),
    st.lists(st.integers(-3, 3).map(float) | st.sampled_from([-0.0, 1e300]), min_size=1, max_size=30),
)
def test_cliffs_delta_equals_the_summed_counts(x, y):
    assert stats.cliffs_delta(x, y) == ref.cliffs_delta(x, y)


ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def parts(draw):
    """Differences with parts of 1-15 values between gaps that belong to no part."""
    values = draw(st.sampled_from([TIED, WIDE, TIED | WIDE]))
    diffs, starts, stops = [], [], []
    for _ in range(draw(st.integers(0, 10))):
        diffs += draw(st.lists(values, max_size=2))
        n = draw(st.integers(1, 15))
        # some parts hold only zero differences, of either sign
        starts.append(len(diffs))
        kind = draw(st.sampled_from([values, values | ZEROS, ZEROS]))
        diffs += draw(st.lists(kind, min_size=n, max_size=n))
        stops.append(len(diffs))
    diffs += draw(st.lists(values, max_size=2))
    return diffs, starts, stops


@settings(max_examples=400)
@given(parts())
@example(([], [], []))  # no part
@example(([1.0], [], []))  # no part, but differences
@example(([0.0, -0.0, 1.0], [0, 2], [2, 3]))  # an all-zero part
@example(([float(v) for v in range(1, 13)] + [float(v) for v in range(1, 14)], [0, 12], [12, 25]))
@example(([1.0] * 13 + [-1.0, 2.0] * 7, [0, 13], [13, 27]))  # ties on the normal path
def test_batched_wilcoxon_equals_the_reference_part_by_part(case):
    diffs, starts, stops = case
    got = stats.wilcoxon_signed_ranks(diffs, starts, stops)
    assert got.shape == (len(starts),)
    for p, a, b in zip(got.tolist(), starts, stops):
        assert _same(p, ref.wilcoxon_signed_rank(diffs[a:b], [0.0] * (b - a)))


def test_batched_wilcoxon_rejects_nan_and_parts_outside_the_differences():
    with pytest.raises(ValueError, match="not NaN"):
        stats.wilcoxon_signed_ranks([1.0, float("nan")], [0], [1])
    for starts, stops in (([-1], [1]), ([1], [0]), ([0], [3])):
        with pytest.raises(ValueError, match="every part must lie within the differences"):
            stats.wilcoxon_signed_ranks([1.0, 2.0], starts, stops)


@st.composite
def method_samples(draw):
    """Tie-heavy samples of 2-226 values for 1-7 methods, some of them shifted apart."""
    values = draw(st.sampled_from([
        st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0]),
        st.integers(0, 3).map(float),
        st.floats(0, 1),
    ]))
    samples = {}
    for k in range(draw(st.integers(1, 7))):
        shift = draw(st.sampled_from([0.0, 0.1, 0.7, 3.0]))
        samples[f"m{k}"] = [v + shift for v in draw(st.lists(values, min_size=2, max_size=226))]
    return samples


@settings(max_examples=300)
@given(method_samples())
@example({"a": [0.5, 0.6, 0.7], "b": [0.5, 0.6, 0.7]})
@example({"a": [1e16, 1.0, 1.0], "b": [0.0, 0.0]})  # a sum that a prefix sum rounds differently
def test_scott_knott_equals_the_reference(samples):
    got = stats.scott_knott(samples)
    want = ref.scott_knott(samples)
    assert got.groups == want.groups
    assert got.means == want.means
