"""Bit-exact agreement of the array measures with the loop reference.

``reference_measures`` holds the loop implementations the array code
replaced. Every comparison here uses ``==``: the array code must add in
the same order and break ties the same way, not merely come close.
"""

import numpy as np
import pytest
from helpers import make_dataset, scorer_curve
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import rankdata

import reference_measures as ref
from hdpbench.datasets import effort_values
from hdpbench.measures import (
    CORE_MEASURES,
    MEASURE_IDS,
    NoDefects,
    Ranking,
    RankingScorer,
    acc_at,
    compute_measure,
    ifa,
    pmi_at,
    popt,
)
from hdpbench.udp import Prediction, best_metric_oracle

# LOC values <= 0 are clamped to effort 1; few distinct efforts make equal
# defect densities common
LOC_POOL = (-3.0, 0.0, 0.7, 1.0, 2.0, 2.3, 3.0, 4.0, 9.5)


@st.composite
def labels_of(draw, n):
    kind = draw(st.sampled_from(["mixed", "all_defective", "none_defective"]))
    if kind == "all_defective":
        return [True] * n
    if kind == "none_defective":
        return [False] * n
    return draw(st.lists(st.booleans(), min_size=n, max_size=n))


@st.composite
def prediction_cases(draw):
    n = draw(st.integers(1, 30))
    distinct = draw(st.sampled_from([1, 3, 1000]))  # few distinct scores force ties
    scores = np.array(draw(st.lists(st.integers(-distinct, distinct), min_size=n, max_size=n))) / 4.0
    loc = draw(st.lists(st.sampled_from(LOC_POOL), min_size=n, max_size=n))
    labels = draw(labels_of(n))
    predicted = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    d = make_dataset("t", np.column_stack([loc, scores]), labels)
    return scores, predicted, effort_values(d), d.labels


@given(prediction_cases())
def test_compute_measure_equals_loop_reference(case):
    scores, predicted, efforts, actual = case
    for measure in MEASURE_IDS:
        assert compute_measure(
            measure, scores, predicted, efforts, actual
        ) == ref.compute_measure(measure, scores, predicted, efforts, actual), measure


@given(prediction_cases())
def test_measure_functions_equal_loop_reference(case):
    """The public functions score through the same record as compute_measure."""
    scores, predicted, efforts, actual = case
    calls = {
        "acc": lambda: acc_at(scores, efforts, actual),
        "popt": lambda: popt(scores, efforts, actual),
        "pmi20": lambda: pmi_at(scores, efforts),
        "ifa": lambda: ifa(scores, actual),
    }
    for measure, call in calls.items():
        expected, reason = ref.compute_measure(measure, scores, predicted, efforts, actual)
        if reason == "NoDefects":
            with pytest.raises(NoDefects):
                call()
        else:
            assert call() == expected, measure
    assert type(ifa(scores, actual | True)) is int


@given(prediction_cases())
def test_effort_curve_points_equal_loop_reference(case):
    """The curves P_opt integrates, point by point, so that the tie rules of
    the optimal and the worst ranking show even where the areas agree."""
    scores, _, efforts, actual = case
    for ordering in ("by_score", "optimal", "worst"):
        if not actual.any():  # the loop reference raises NoDefects too
            with pytest.raises(NoDefects):
                scorer_curve(scores, efforts, actual, ordering)
            continue
        points, area = scorer_curve(scores, efforts, actual, ordering)
        expected = ref.effort_curve_points(scores, efforts, actual, ordering)
        assert points == expected, ordering
        assert area == ref.area(expected), ordering


@given(st.lists(st.integers(-4, 4).map(lambda v: v / 3.0), min_size=1, max_size=40))
def test_rankdata_equals_loop_average_ranks(values):
    values = np.array(values)
    assert np.array_equal(rankdata(values), ref.average_ranks(values))


def test_loop_average_ranks_give_nan_like_rankdata():
    # one NaN makes every rank NaN; the package rejects NaN scores instead
    with_nan = [2.0, np.nan, 1.0]
    assert np.isnan(ref.average_ranks(with_nan)).all() and np.isnan(rankdata(with_nan)).all()


TIED_VALUES = st.lists(
    st.integers(-4, 4).map(lambda v: v / 3.0)
    | st.sampled_from([0.0, -0.0, 1e300, -1e-300, np.inf, -np.inf]),
    min_size=0, max_size=60,
)


@given(TIED_VALUES)
@example([])
def test_ranking_ranks_equal_rankdata(values):
    values = np.array(values, dtype=float)
    ranks = Ranking(values).ranks
    assert ranks.dtype == np.float64
    assert np.array_equal(ranks, rankdata(values))
    assert np.array_equal(ranks, ref.average_ranks(values))
    # the descending ranks mirror the ascending ones exactly
    assert np.array_equal(Ranking(-values).ranks, len(values) + 1 - ranks)


@given(TIED_VALUES)
def test_ranking_order_and_top_half_equal_the_loop_order(values):
    values = np.array(values, dtype=float)
    ranking = Ranking(values)
    order = ref.score_order(values)
    assert ranking.order.tolist() == order
    assert np.flatnonzero(ranking.top_half).tolist() == sorted(order[: (len(values) + 1) // 2])


# bestmetric's flags: the first ceil(7/2) = 4 modules of the stable
# descending ranking 1, 3, 4, 0, 5, 2, 6, where modules 3 and 4 tie
TOP_HALF_CASE = (
    np.array([0.5, 1.0, -0.25, 0.75, 0.75, 0.0, -1.0]),
    np.array([True, True, False, True, True, False, False]),
    np.array([3.0, 1.0, 2.0, 2.0, 9.5, 1.0, 4.0]),
    np.array([False, True, False, False, True, True, False]),
)


@given(prediction_cases(), st.lists(st.sampled_from(MEASURE_IDS), min_size=1, unique=True))
@example(TOP_HALF_CASE, list(CORE_MEASURES))
def test_ranking_scorer_equals_compute_measure_on_the_top_half(case, measure_ids):
    """Any non-empty subset of the measures in any order, on arbitrary
    predicted flags, and bestmetric's request on its top half as an example."""
    scores, predicted, efforts, actual = case
    values = RankingScorer(efforts, actual).score(measure_ids, Ranking(scores), predicted)
    assert list(values) == measure_ids
    for measure in measure_ids:
        expected, _ = ref.compute_measure(measure, scores, predicted, efforts, actual)
        assert values[measure] == expected, measure


def brute_force_best_metric(d, measure):
    """Score every (metric, direction) candidate with compute_measure."""
    efforts = effort_values(d)
    n = d.n_modules
    best = None
    for name in d.metric_names:
        column = effort_values(d) if name == d.loc_metric else d.column(name)
        for sign in (1.0, -1.0):
            scores = sign * column
            order = sorted(range(n), key=lambda i: -scores[i])
            predicted = np.zeros(n, dtype=bool)
            predicted[order[: (n + 1) // 2]] = True
            value, _ = compute_measure(measure, scores, predicted, efforts, d.labels)
            if value is None:
                continue
            quality = -value if measure in ("pmi20", "ifa") else value
            if best is None or quality > best[0]:
                best = (quality, name, Prediction(scores, predicted), value)
    if best is None:
        column = d.column(d.metric_names[0])
        order = sorted(range(n), key=lambda i: -column[i])
        predicted = np.zeros(n, dtype=bool)
        predicted[order[: (n + 1) // 2]] = True
        return d.metric_names[0], Prediction(column, predicted), None
    return best[1], best[2], best[3]


@given(st.data())
def test_best_metric_oracle_equals_brute_force(data):
    n = data.draw(st.integers(1, 25))
    m = data.draw(st.integers(1, 4))
    loc = data.draw(st.lists(st.sampled_from(LOC_POOL), min_size=n, max_size=n))
    others = [
        data.draw(st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n))
        for _ in range(m - 1)
    ]
    labels = data.draw(labels_of(n))
    d = make_dataset("t", np.column_stack([loc, *others]), labels)
    results = best_metric_oracle(d)  # one call scores all six measures
    assert tuple(results) == CORE_MEASURES
    for measure in CORE_MEASURES:
        result = results[measure]
        metric, pred, value = brute_force_best_metric(d, measure)
        assert (result.metric, result.value) == (metric, value), measure
        assert np.array_equal(result.predictions.scores, pred.scores), measure
        assert np.array_equal(result.predictions.predicted, pred.predicted), measure


def test_best_metric_oracle_sorts_each_candidate_once(monkeypatch):
    """One stable sort per (metric, direction) candidate serves its top
    half, its AUC ranks and its effort-aware order, plus one for the
    fallback: at most 2k + 1 sorts on k metrics."""
    rng = np.random.default_rng(5)
    k, n = 4, 40
    d = make_dataset("t", np.column_stack([rng.integers(1, 9, n), rng.integers(0, 4, (n, k - 1))]),
                     rng.random(n) < 0.4)
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(1) or argsort(*a, **kw))
    best_metric_oracle(d)
    assert 0 < len(calls) <= 2 * k + 1
