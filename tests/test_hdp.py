import itertools
import math
import statistics

import numpy as np
import pytest
from scipy.special import kolmogorov

from hdpbench import harness
from hdpbench.harness import register_external_method, unregister_external_method
from hdpbench.hdp import (
    HdpOutcome,
    MetricMatch,
    _ks_columns,
    _sorted_columns,
    distribution_vector,
    equal_frequency_bins,
    gain_ratio,
    hdp1_predict,
    hdp5_predict,
    ks_pvalue,
    ks_statistics,
    match_from_weights,
    max_weight_assignment,
    match_metrics,
    select_top_metrics,
)
from hdpbench.learner import predict_proba, train_logistic
import reference_hdp
from helpers import make_dataset

# ---------------------------------------------------------------------------
# gain ratio


def test_gain_ratio_perfect_balanced_split():
    assert gain_ratio([1, 1, 5, 5], [0, 0, 1, 1]) == 1.0


def test_gain_ratio_constant_feature_is_zero():
    assert gain_ratio([3, 3, 3, 3], [0, 1, 0, 1]) == 0.0


def brute_force_gain_ratio(feature, labels):
    bins = equal_frequency_bins(np.asarray(feature, float))

    def entropy(items):
        total = len(items)
        out = 0.0
        for v in set(items):
            p = sum(1 for i in items if i == v) / total
            out -= p * math.log2(p)
        return out

    labels = list(labels)
    iv = entropy(list(bins))
    if iv == 0:
        return 0.0
    ig = entropy(labels)
    for b in set(bins):
        subset = [lab for lab, bb in zip(labels, bins) if bb == b]
        ig -= len(subset) / len(labels) * entropy(subset)
    return ig / iv


def test_gain_ratio_matches_entropy_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=50)
        y = rng.random(50) < 0.4
        assert gain_ratio(x, y) == pytest.approx(brute_force_gain_ratio(x, y), abs=1e-12)


def test_gain_ratio_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    x = rng.lognormal(size=40)
    y = rng.random(40) < 0.5
    base = gain_ratio(x, y)
    for transform in (np.exp, np.sqrt, lambda v: 3 * v + 7, lambda v: v**3):
        assert gain_ratio(transform(x), y) == pytest.approx(base, abs=1e-12)


def test_select_top_metrics_ceil_rule():
    rng = np.random.default_rng(2)
    values = rng.random((30, 20))
    d = make_dataset("d", values, rng.random(30) < 0.5)
    # 0.15 * 20 is 3.0000000000000004: the 1e-9 slack keeps 3, not 4
    assert len(select_top_metrics(d)) == 3


def test_select_top_metrics_finds_label_copy():
    rng = np.random.default_rng(3)
    labels = rng.random(40) < 0.5
    values = rng.random((40, 4))
    values[:, 2] = labels.astype(float)
    d = make_dataset("d", values, labels)
    assert select_top_metrics(d)[0] == "d_m2"


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def ks_matrix(xs, ys):
    """KS statistics of every column of ``xs`` against every column of ``ys``."""
    return ks_statistics(*_sorted_columns(np.asarray(xs, dtype=float)),
                         *_sorted_columns(np.asarray(ys, dtype=float)))


def test_ks_columns_keep_int32_right_and_left_counts():
    d = make_dataset("d", [[3.0, 1.0], [1.0, 1.0], [3.0, 2.0], [2.0, 1.0]], [0, 1, 0, 1])
    columns, right, left = _ks_columns(d)
    assert right.dtype == left.dtype == np.int32
    assert columns.tolist() == [[1.0, 2.0, 3.0, 3.0], [1.0, 1.0, 1.0, 2.0]]
    for c, r, l in zip(columns, right, left):
        assert np.array_equal(r, np.searchsorted(c, c, side="right"))
        assert np.array_equal(l, np.searchsorted(c, c, side="left"))
    assert right.tolist() == [[1, 2, 4, 4], [3, 3, 3, 4]]
    assert left.tolist() == [[0, 1, 2, 2], [0, 0, 0, 3]]


def test_ks_identical_samples():
    assert ks_matrix([[1], [2], [3]], [[1], [2], [3]]).tolist() == [[0.0]]
    assert ks_pvalue([1, 2, 3], [1, 2, 3]) == 1.0


def test_ks_disjoint_supports():
    assert ks_matrix([[1], [2], [3]], [[10], [11], [12]]).tolist() == [[1.0]]


def brute_force_ks(a, b):
    best = 0.0
    for point in list(a) + list(b):
        fa = sum(1 for v in a if v <= point) / len(a)
        fb = sum(1 for v in b if v <= point) / len(b)
        best = max(best, abs(fa - fb))
    return best


def test_ks_statistic_matches_ecdf_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(5):
        xs = rng.normal(size=(30, 4))
        ys = rng.normal(0.3, 1.2, size=(30, 4))
        stats = ks_matrix(xs, ys)
        for i, j in itertools.product(range(4), range(4)):
            assert stats[i, j] == pytest.approx(brute_force_ks(xs[:, i], ys[:, j]), abs=1e-12)


def test_ks_symmetry_and_monotone_invariance():
    rng = np.random.default_rng(5)
    a = rng.lognormal(size=25)
    b = rng.lognormal(0.5, 1.0, size=35)
    assert ks_pvalue(a, b) == ks_pvalue(b, a)
    assert ks_pvalue(np.log(a), np.log(b)) == pytest.approx(ks_pvalue(a, b), abs=1e-12)


def test_kolmogorov_sf_matches_reference():
    for lam in [0.05, 0.3, 0.7, 1.0, 1.17, 1.18, 1.5, 2.5, 4.0]:
        assert reference_hdp.kolmogorov_sf(lam) == pytest.approx(float(kolmogorov(lam)), abs=1e-12)


# ---------------------------------------------------------------------------
# matching


def brute_force_matching_weight(weights, cutoff):
    # every injective row->column map is a choice of an ordered column subset
    if weights.shape[0] > weights.shape[1]:
        weights = weights.T
    r, c = weights.shape
    best = 0.0
    for cols in itertools.permutations(range(c), r):
        total = sum(weights[i, j] for i, j in enumerate(cols) if weights[i, j] > cutoff)
        best = max(best, total)
    return best


def total_weight(match):
    return sum(weight for _, _, weight in match.pairs)


def test_matching_total_weight_is_optimal():
    rng = np.random.default_rng(6)
    for _ in range(40):
        r = int(rng.integers(1, 8))
        c = int(rng.integers(1, 8))
        w = rng.random((r, c))
        names_r = [f"s{i}" for i in range(r)]
        names_c = [f"t{j}" for j in range(c)]
        match = match_from_weights(w, names_r, names_c)
        assert total_weight(match) == pytest.approx(
            brute_force_matching_weight(w, 0.05), abs=1e-12
        )


def test_matching_is_injective():
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.random((5, 5))
        match = match_from_weights(w, list("abcde"), list("vwxyz"))
        sources = [p[0] for p in match.pairs]
        targets = [p[1] for p in match.pairs]
        assert len(set(sources)) == len(sources)
        assert len(set(targets)) == len(targets)
        assert all(p[2] > 0.05 for p in match.pairs)


def test_sub_cutoff_edges_do_not_displace_real_ones():
    # greedy-on-total would prefer the two 0.05 edges and keep nothing
    w = np.array([[0.06, 0.05], [0.05, 0.0]])
    match = match_from_weights(w, ["s0", "s1"], ["t0", "t1"])
    assert match.pairs == (("s0", "t0", 0.06),)


def test_equal_weight_ties_pair_index_with_index():
    # hdp1's matchings depend on this rule; a solver that breaks ties
    # another way changes them without changing the total weight
    assert max_weight_assignment(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]
    assert max_weight_assignment(np.ones((2, 4))) == [(0, 0), (1, 1)]
    assert max_weight_assignment(np.ones((4, 2))) == [(0, 0), (1, 1)]
    assert max_weight_assignment(np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 2.0]])) == [(0, 0), (1, 1)]
    assert max_weight_assignment(np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])) == [(0, 1), (1, 2)]
    # scipy's linear_sum_assignment(maximize=True) returns [(0, 0), (1, 2), (2, 1)]
    tied = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert max_weight_assignment(tied) == [(0, 1), (1, 2), (2, 0)]
    match = match_from_weights(np.full((2, 3), 0.5), ["s0", "s1"], ["t0", "t1", "t2"])
    assert match.pairs == (("s0", "t0", 0.5), ("s1", "t1", 0.5))


def test_match_metrics_identical_distribution():
    rng = np.random.default_rng(8)
    col = rng.normal(size=50)
    src = make_dataset("s", np.column_stack([col]), rng.random(50) < 0.5)
    tgt = make_dataset("t", np.column_stack([col]), rng.random(50) < 0.5)
    match = match_metrics(src, tgt)
    assert match.pairs == (("s_m0", "t_m0", 1.0),)


def test_match_metrics_all_below_cutoff():
    rng = np.random.default_rng(9)
    src = make_dataset("s", np.column_stack([rng.normal(0, 1, 40)]), rng.random(40) < 0.5)
    tgt = make_dataset("t", np.column_stack([rng.normal(1000, 1, 40)]), rng.random(40) < 0.5)
    assert match_metrics(src, tgt).pairs == ()


def test_metric_match_rejects_duplicates():
    with pytest.raises(ValueError):
        MetricMatch((("a", "x", 0.5), ("a", "y", 0.5)))


# ---------------------------------------------------------------------------
# hdp1


def brute_force_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def synthetic_pair(seed=10, n=60):
    rng = np.random.default_rng(seed)
    ys = rng.random(n) < 0.4
    ys[0], ys[1] = True, False
    src = make_dataset(
        "src",
        np.column_stack([
            rng.lognormal(3, 0.8, n),
            np.where(ys, rng.normal(8, 1, n), rng.normal(2, 1, n)),
            rng.normal(500, 5, n),
        ]),
        ys,
    )
    yt = rng.random(n) < 0.4
    yt[0], yt[1] = True, False
    tgt = make_dataset(
        "tgt",
        np.column_stack([
            np.where(yt, rng.normal(8, 1, n), rng.normal(2, 1, n)),
            rng.lognormal(3, 0.8, n),
        ]),
        yt,
    )
    return src, tgt, yt


def test_hdp1_succeeds_on_shared_informative_metric():
    src, tgt, yt = synthetic_pair()
    out = hdp1_predict(src, tgt)
    assert out.ok
    assert len(out.predictions.scores) == tgt.n_modules
    scores = out.predictions.scores.tolist()
    assert brute_force_auc(scores, yt) > 0.5


def test_hdp1_fails_when_everything_is_disjoint():
    src, _, _ = synthetic_pair()
    rng = np.random.default_rng(11)
    tgt = make_dataset(
        "far",
        np.column_stack([rng.normal(1e5, 1, 60), rng.normal(-1e5, 1, 60)]),
        rng.random(60) < 0.5,
    )
    out = hdp1_predict(src, tgt)
    assert not out.ok and out.failure == "NoMatchedMetrics"


def test_hdp1_is_deterministic():
    src, tgt, _ = synthetic_pair()
    a = hdp1_predict(src, tgt)
    b = hdp1_predict(src, tgt)
    assert a.predictions.scores.tolist() == b.predictions.scores.tolist()
    assert a.predictions.predicted.tolist() == b.predictions.predicted.tolist()


def test_hdp_outcome_is_exclusive():
    with pytest.raises(ValueError):
        HdpOutcome(predictions=[], failure="x")
    with pytest.raises(ValueError):
        HdpOutcome()


# ---------------------------------------------------------------------------
# distribution characteristics


def test_distribution_vector_constant_row():
    v = distribution_vector([2, 2, 2])
    mode, median, mean, harmonic, mn, mx, rng_, vr, iqr, var, std, cv, skew, kurt = v
    assert (mode, median, mean, mn, mx, rng_, var) == (2, 2, 2, 2, 2, 0, 0)
    assert vr == 0 and std == 0 and skew == 0 and kurt == 0


def test_distribution_vector_simple_row():
    v = distribution_vector([1, 2, 3])
    assert v[1] == 2 and v[2] == 2 and v[4] == 1 and v[5] == 3 and v[6] == 2


def quantile_linear(xs, q):
    xs = sorted(xs)
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    return xs[lo] + (xs[hi] - xs[lo]) * (h - lo)


def oracle_distribution_vector(row):
    n = len(row)
    counts = {v: row.count(v) for v in set(row)}
    top = max(counts.values())
    mode = min(v for v, c in counts.items() if c == top)
    mean = sum(row) / n
    harmonic = n / sum(1 / v for v in row) if min(row) > 0 else 0.0
    var = sum((v - mean) ** 2 for v in row) / n
    std = math.sqrt(var)
    skew = sum((v - mean) ** 3 for v in row) / n / std**3 if std > 0 else 0.0
    kurt = sum((v - mean) ** 4 for v in row) / n / std**4 - 3 if std > 0 else 0.0
    return [
        mode,
        statistics.median(row),
        mean,
        harmonic,
        min(row),
        max(row),
        max(row) - min(row),
        1 - top / n,
        quantile_linear(row, 0.75) - quantile_linear(row, 0.25),
        var,
        std,
        std / mean if mean != 0 else 0.0,
        skew,
        kurt,
    ]


def test_distribution_vector_matches_textbook_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        row = [round(float(v), 3) for v in rng.lognormal(1, 0.8, size=10)]
        got = distribution_vector(row)
        want = oracle_distribution_vector(row)
        assert np.allclose(got, want, atol=1e-10), (row, got, want)


def test_distribution_vector_harmonic_mean_guard():
    assert distribution_vector([0, 1, 2])[3] == 0.0
    assert distribution_vector([-1, 1, 2])[3] == 0.0


# ---------------------------------------------------------------------------
# hdp5


def test_hdp5_output_length_and_signal():
    src, tgt, yt = synthetic_pair(seed=13)
    out = hdp5_predict(src, tgt)
    assert out.ok and len(out.predictions.scores) == tgt.n_modules


def test_hdp5_uniformly_larger_metrics_give_signal():
    # metric counts close enough that the distribution vectors of the two
    # projects live on comparable scales
    rng = np.random.default_rng(14)
    n = 80
    ys = rng.random(n) < 0.4
    ys[0], ys[1] = True, False
    base_s = rng.lognormal(1, 0.5, size=(n, 8))
    base_s[ys] *= 1.3
    yt = rng.random(n) < 0.4
    yt[0], yt[1] = True, False
    base_t = rng.lognormal(1, 0.5, size=(n, 9))
    base_t[yt] *= 1.3
    src = make_dataset("s", base_s, ys)
    tgt = make_dataset("t", base_t, yt)
    out = hdp5_predict(src, tgt)
    assert brute_force_auc(out.predictions.scores.tolist(), yt) > 0.5


def test_hdp5_equals_direct_training_on_vectors():
    src, _, _ = synthetic_pair(seed=15)
    out = hdp5_predict(src, src)
    vectors = np.vstack([distribution_vector(r) for r in src.values])
    model = train_logistic(vectors, src.labels)
    direct = predict_proba(model, vectors)
    assert np.allclose(out.predictions.scores.tolist(), direct, atol=0)


# ---------------------------------------------------------------------------
# external method registry


def test_register_and_duplicate():
    def constant(source, target):
        from hdpbench.udp import Prediction

        return HdpOutcome(predictions=Prediction(np.full(target.n_modules, 0.5),
                                                 np.zeros(target.n_modules, dtype=bool)))

    name = register_external_method("constant-half", constant)
    try:
        assert name in harness.external_methods()
        with pytest.raises(ValueError):
            register_external_method("constant-half", constant)
        with pytest.raises(ValueError):
            register_external_method("hdp1", constant)
    finally:
        unregister_external_method("constant-half")
    assert "constant-half" not in harness.external_methods()


@pytest.mark.parametrize("weights", [np.zeros((0, 3)), np.ones(3)], ids=["empty", "1-d"])
def test_max_weight_assignment_rejects_a_matrix_that_is_not_2d_and_non_empty(weights):
    with pytest.raises(ValueError) as caught:
        max_weight_assignment(weights)
    assert str(caught.value) == "weight matrix must be 2-d and non-empty"
