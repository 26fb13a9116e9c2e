import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdpbench.measures import (
    MEASURE_IDS,
    ConfusionMatrix,
    NoDefects,
    Ranking,
    RankingScorer,
    acc_at,
    auc,
    compute_measure,
    confusion,
    ifa,
    pmi_at,
    popt,
    prf1,
)
from helpers import scorer_curve


def preds_from(scores, efforts):
    """(scores, efforts) as float vectors in module order."""
    return np.asarray(scores, dtype=float), np.asarray(efforts, dtype=float)


def truth_from(labels):
    return np.asarray(labels, dtype=bool)


# ---------------------------------------------------------------------------
# confusion / precision / recall / F1


def test_confusion_all_correct():
    cm = confusion(truth_from([True, False]), truth_from([True, False]))
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (1, 0, 1, 0)


def test_confusion_inversion_swaps_cells():
    labels = truth_from([True, False, True, False, False])
    predicted = truth_from([True, True, False, False, True])
    cm = confusion(predicted, labels)
    cm2 = confusion(~predicted, labels)
    assert (cm.tp, cm.fn) == (cm2.fn, cm2.tp)
    assert (cm.fp, cm.tn) == (cm2.tn, cm2.fp)


def test_confusion_predict_everything_defective():
    labels = [True] * 10 + [False] * 10
    cm = confusion(np.ones(20, dtype=bool), truth_from(labels))
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (10, 10, 0, 0)


def test_confusion_length_mismatch():
    with pytest.raises(ValueError):
        confusion(truth_from([True, False]), truth_from([True]))
    with pytest.raises(ValueError):  # length 1 against length n must not broadcast
        confusion(truth_from([True]), truth_from([True, False, True]))


def test_unequal_vectors_rejected_by_every_measure():
    short, long = np.ones(1), np.ones(4)
    flags = np.ones(4, dtype=bool)
    for scores, efforts, actual in (
        (short, long, flags),
        (long, short, flags),
        (long, long, flags[:1]),
    ):
        with pytest.raises(ValueError):
            popt(scores, efforts, actual)
        with pytest.raises(ValueError):
            acc_at(scores, efforts, actual)
        for measure in MEASURE_IDS:
            with pytest.raises(ValueError):
                compute_measure(measure, scores, flags, efforts, actual)
    with pytest.raises(ValueError):
        compute_measure("f1", long, flags[:1], long, flags)
    for scores, other in ((short, flags), (long, flags[:1])):
        with pytest.raises(ValueError):
            auc(scores, other)
        with pytest.raises(ValueError):
            ifa(scores, other)
        with pytest.raises(ValueError):
            pmi_at(scores, other.astype(float))
    with pytest.raises(ValueError):
        confusion(np.ones((2, 2), dtype=bool), np.ones((2, 2), dtype=bool))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_measures_reject_non_positive_effort(bad):
    # a NaN or infinite effort once gave popt 0.0, acc_at and pmi_at 1.0
    scores, efforts = preds_from([3, 2, 1], [1.0, bad, 2.0])
    actual = truth_from([1, 0, 1])
    for measure in MEASURE_IDS:
        with pytest.raises(ValueError, match="^efforts must be positive and finite$"):
            compute_measure(measure, scores, actual, efforts, actual)
    with pytest.raises(ValueError, match="^efforts must be positive and finite$"):
        popt(scores, efforts, actual)
    with pytest.raises(ValueError, match="^efforts must be positive and finite$"):
        acc_at(scores, efforts, actual)
    with pytest.raises(ValueError, match="^efforts must be positive and finite$"):
        pmi_at(scores, efforts)


@pytest.mark.parametrize("n_scores, n_flags", [(3, 5), (7, 5), (5, 3), (5, 7)])
def test_score_rejects_a_ranking_or_flags_of_another_length(n_scores, n_flags):
    # a 3-module ranking once scored AUC 0.5, ACC 1.0 and P_opt 1.0 on five
    # modules, and a 7-module one AUC 0.0 and an IndexError
    scorer = RankingScorer(np.ones(5), truth_from([1, 0, 1, 0, 0]))
    ranking, predicted = Ranking(np.arange(n_scores, dtype=float)), np.ones(n_flags, dtype=bool)
    message = (rf"^a record of 5 modules cannot score a ranking of shape \({n_scores},\) "
               rf"and flags of shape \({n_flags},\)$")
    for measure in MEASURE_IDS:
        with pytest.raises(ValueError, match=message):
            scorer.score((measure,), ranking, predicted)


@pytest.mark.parametrize("fault, message", [
    (lambda: ConfusionMatrix(1, -1, 0, 0), "^confusion counts must be non-negative$"),
    (lambda: compute_measure("mcc", [1.0], [True], [1.0], [True]), "^unknown measure 'mcc'$"),
])
def test_measure_input_errors(fault, message):
    with pytest.raises(ValueError, match=message):
        fault()


@pytest.mark.parametrize("score", [
    *[lambda m=m: compute_measure(m, [], [], [], []) for m in MEASURE_IDS],
    lambda: pmi_at([], []),
    lambda: auc([], []),
], ids=[*MEASURE_IDS, "pmi_at", "auc()"])
def test_empty_vectors_are_rejected(score):
    # pmi20 once divided by zero modules, and auc() returned None
    with pytest.raises(ValueError, match="^per-module vectors must not be empty$"):
        score()


NAN_SCORES, NAN_TRUTH, NAN_EFFORTS = [np.nan, 1.0, 0.5], [1, 0, 1], [1.0, 1.0, 1.0]


@pytest.mark.parametrize("score", [
    *[lambda m=m: compute_measure(m, NAN_SCORES, NAN_TRUTH, NAN_EFFORTS, NAN_TRUTH)
      for m in MEASURE_IDS],
    lambda: auc(NAN_SCORES, NAN_TRUTH),
    lambda: popt(NAN_SCORES, NAN_EFFORTS, NAN_TRUTH),
    lambda: acc_at(NAN_SCORES, NAN_EFFORTS, NAN_TRUTH),
    lambda: pmi_at(NAN_SCORES, NAN_EFFORTS),
    lambda: ifa(NAN_SCORES, NAN_TRUTH),
    lambda: Ranking(NAN_SCORES),
], ids=[*MEASURE_IDS, "auc()", "popt()", "acc_at", "pmi_at", "ifa()", "Ranking"])
def test_nan_scores_are_rejected(score):
    # auc() once returned nan, popt ranked the NaN module last and gave 0.0,
    # and ifa gave 1
    with pytest.raises(ValueError, match="^prediction scores must not be NaN$"):
        score()


def test_ranking_hand_trace():
    # descending: the tied modules 0, 2 and 4 in module order, then 3, then 1
    ranking = Ranking([3.0, 1.0, 3.0, 2.0, 3.0])
    assert ranking.order.tolist() == [0, 2, 4, 3, 1]
    assert ranking.ranks.tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]
    assert ranking.top_half.tolist() == [True, False, True, False, True]
    empty = Ranking([])
    assert (empty.order.tolist(), empty.ranks.tolist(), empty.top_half.tolist()) == ([], [], [])


def test_only_popt_computes_the_extreme_curves(monkeypatch):
    def fail(self, ordering):
        raise AssertionError(f"{ordering} curve computed")

    monkeypatch.setattr(RankingScorer, "_extreme_order", fail)
    scores, efforts = preds_from([3, 2, 1], [1.0, 2.0, 2.0])
    actual = truth_from([0, 1, 1])
    for measure in MEASURE_IDS:
        if measure != "popt":
            compute_measure(measure, scores, actual, efforts, actual)
    with pytest.raises(AssertionError, match="optimal curve computed"):
        compute_measure("popt", scores, actual, efforts, actual)


def test_prf1_balanced():
    assert prf1(ConfusionMatrix(10, 10, 0, 10)) == {
        "precision": 0.5, "recall": 0.5, "f1": 0.5,
    }


def test_prf1_zero_rule():
    out = prf1(ConfusionMatrix(0, 0, 3, 5))
    assert out == {"precision": 0.0, "recall": 0.0, "f1": 0.0}


def test_prf1_hand_computed():
    out = prf1(ConfusionMatrix(3, 1, 0, 2))
    assert out["precision"] == 0.75
    assert out["recall"] == pytest.approx(0.6)
    assert out["f1"] == pytest.approx(2 * 0.75 * 0.6 / 1.35)


# ---------------------------------------------------------------------------
# AUC


def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert auc([0.5] * 6, [1, 0, 1, 0, 0, 1]) == 0.5


def test_auc_pair_enumeration_example():
    assert auc([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0]) == 0.75


def test_auc_single_class_is_absent():
    assert auc([0.2, 0.4], [1, 1]) is None


def brute_force_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auc_matches_pair_counting():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(3, 20))
        scores = rng.integers(0, 6, size=n).astype(float)  # force ties
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        assert auc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12
        )


def test_auc_complement_without_ties():
    rng = np.random.default_rng(1)
    scores = rng.permutation(20).astype(float)
    labels = rng.random(20) < 0.5
    labels[0], labels[1] = True, False
    assert auc(scores, labels) + auc((-scores), labels) == pytest.approx(1.0)


def test_auc_invariant_under_increasing_transform():
    rng = np.random.default_rng(2)
    scores = rng.random(25)
    labels = rng.random(25) < 0.4
    labels[0], labels[1] = True, False
    base = auc(scores, labels)
    assert auc(np.exp(scores * 3), labels) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# effort curves and Popt


def test_effort_curve_single_defective_module():
    points, _ = scorer_curve(*preds_from([1.0], [7.0]), truth_from([True]), "by_score")
    assert points == ((0.0, 0.0), (1.0, 1.0))


def test_effort_curve_three_module_trapezoid():
    points, area = scorer_curve(*preds_from([3, 2, 1], [1, 2, 1]), truth_from([1, 0, 1]), "by_score")
    assert points == ((0.0, 0.0), (0.25, 0.5), (0.75, 0.5), (1.0, 1.0))
    assert area == pytest.approx(0.5)


def test_effort_curve_needs_defects():
    with pytest.raises(NoDefects):
        scorer_curve(*preds_from([1, 2], [1, 1]), truth_from([0, 0]), "by_score")


def test_optimal_curve_dominates_by_score_curve():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 25))
        efforts = rng.integers(1, 30, size=n).astype(float)
        labels = rng.random(n) < 0.4
        labels[int(rng.integers(0, n))] = True
        preds = preds_from(rng.random(n), efforts)
        truth = truth_from(labels)
        method, _ = scorer_curve(*preds, truth, "by_score")
        optimal, _ = scorer_curve(*preds, truth, "optimal")
        xs_o = [p[0] for p in optimal]
        ys_o = [p[1] for p in optimal]
        for x, y in method:
            assert np.interp(x, xs_o, ys_o) >= y - 1e-12


def independent_popt(efforts, labels, scores):
    """Trapezoid-rule evaluation written against the stated tie rules."""
    n = len(efforts)
    density = [l / e for l, e in zip(labels, efforts)]

    def curve(order):
        total_e, total_d = sum(efforts), sum(labels)
        points = [(0.0, 0.0)]
        ce = cd = 0.0
        for i in order:
            ce += efforts[i]
            cd += labels[i]
            points.append((ce / total_e, cd / total_d))
        points[-1] = (1.0, 1.0)
        return points

    def area(points):
        total = 0.0
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            total += (x1 - x0) * (y0 + y1) / 2
        return total

    a_m = area(curve(sorted(range(n), key=lambda i: -scores[i])))
    a_o = area(curve(sorted(range(n), key=lambda i: (-density[i], efforts[i]))))
    a_w = area(curve(sorted(range(n), key=lambda i: (density[i], -efforts[i]))))
    if a_o - a_w <= 0:
        return 1.0
    return min(1.0, max(0.0, 1 - (a_o - a_m) / (a_o - a_w)))


def test_popt_matches_independent_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        efforts = rng.integers(1, 9, size=n).astype(float)
        labels = (rng.random(n) < 0.5).astype(int)
        labels[int(rng.integers(0, n))] = 1
        scores = rng.random(n)
        preds = preds_from(scores, efforts)
        expected = independent_popt(efforts.tolist(), labels.tolist(), scores.tolist())
        assert popt(*preds, truth_from(labels)) == pytest.approx(expected, abs=1e-9)


def test_popt_optimal_and_worst_anchors():
    efforts = [4.0, 1.0, 2.0, 3.0, 1.0]
    labels = [1, 0, 1, 0, 1]
    density = [l / e for l, e in zip(labels, efforts)]
    order_opt = sorted(range(5), key=lambda i: (-density[i], efforts[i]))
    scores = np.empty(5)
    scores[order_opt] = np.arange(5, 0, -1)
    assert popt(*preds_from(scores, efforts), truth_from(labels)) == 1.0
    order_worst = sorted(range(5), key=lambda i: (density[i], -efforts[i]))
    scores[order_worst] = np.arange(5, 0, -1)
    assert popt(*preds_from(scores, efforts), truth_from(labels)) == 0.0


# ---------------------------------------------------------------------------
# ACC / PMI


def worked_example_preds():
    # 3000 total effort: 600 modules of effort 1 inspected within the 20%
    # budget, the 601st crosses it; 10 of the first 600 are defective
    efforts = np.concatenate([np.ones(600), np.full(1400, 2400 / 1400)])
    labels = np.zeros(2000, dtype=bool)
    labels[:10] = True
    labels[600:630] = True
    return preds_from(np.arange(2000, 0, -1), efforts), truth_from(labels)


def test_acc_and_pmi_worked_example():
    preds, truth = worked_example_preds()
    assert acc_at(*preds, truth) == 0.25
    assert pmi_at(*preds) == 0.30


# the budget is fixed at 20%; patching the constant checks the prefix rule
# at other budgets


def test_acc_full_budget(monkeypatch):
    monkeypatch.setattr("hdpbench.measures.EFFORT_FRACTION", 1.0)
    preds, truth = worked_example_preds()
    assert acc_at(*preds, truth) == 1.0
    assert pmi_at(*preds) == 1.0


def test_acc_pmi_monotone_in_fraction(monkeypatch):
    rng = np.random.default_rng(5)
    preds = preds_from(rng.random(30), rng.integers(1, 20, 30))
    truth = truth_from(rng.random(30) < 0.4)
    if not truth.any():
        truth[0] = True
    accs, pmis = [], []
    for fraction in [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]:
        monkeypatch.setattr("hdpbench.measures.EFFORT_FRACTION", fraction)
        accs.append(acc_at(*preds, truth))
        pmis.append(pmi_at(*preds))
    assert accs == sorted(accs)
    assert pmis == sorted(pmis)
    assert accs[-1] == pmis[-1] == 1.0


def test_acc_zero_when_first_module_exceeds_budget():
    preds = preds_from([2, 1], [90, 10])
    truth = truth_from([True, True])
    assert acc_at(*preds, truth) == 0.0
    assert pmi_at(*preds) == 0.0


def test_budget_has_a_relative_slack_of_1e_9():
    # twenty efforts of 0.7 total 13.999999999999996, whose 20% is
    # 2.7999999999999994, below the fourth running total 2.8: the slack
    # keeps the fourth module in
    assert pmi_at(np.arange(20, 0, -1), [0.7] * 20) == 0.2
    # 1e-7 above a budget of 2 is beyond the slack: the second module is out
    assert pmi_at([3, 2, 1], [2.0, 1e-7, 8.0 - 1e-7]) == 1 / 3


def test_a_running_total_equal_to_the_budget_is_inspected():
    # efforts[0] is set to the budget that its own total gives, until the
    # float total reproduces it; the first module's running total is then
    # exactly the budget, which the search for the inspected prefix includes
    efforts = np.array([1.0, 4.0])
    for _ in range(60):
        budget = RankingScorer(efforts, [True, False]).budget
        if budget == efforts[0]:
            break
        efforts[0] = budget
    assert RankingScorer(efforts, [True, False]).budget == efforts[0] == 1.00000000125
    preds = preds_from([2, 1], efforts)
    assert pmi_at(*preds) == 0.5
    assert acc_at(*preds, truth_from([True, False])) == 1.0


def test_pmi_uniform_efforts():
    preds = preds_from(np.arange(10), np.ones(10))
    assert pmi_at(*preds) == pytest.approx(0.2)


def test_acc_requires_defects():
    preds = preds_from([1, 2], [1, 1])
    with pytest.raises(NoDefects):
        acc_at(*preds, truth_from([0, 0]))


# ---------------------------------------------------------------------------
# IFA


def test_ifa_first_module_defective():
    assert ifa([3.0, 2.0, 1.0], truth_from([1, 0, 0])) == 0


def test_ifa_two_false_alarms():
    assert ifa([3.0, 2.0, 1.0], truth_from([0, 0, 1])) == 2


def test_ifa_matches_scan_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 20))
        scores = rng.permutation(n).astype(float)
        labels = rng.random(n) < 0.3
        labels[int(rng.integers(0, n))] = True
        order = sorted(range(n), key=lambda i: -scores[i])
        expected = 0
        for i in order:
            if labels[i]:
                break
            expected += 1
        assert ifa(scores, truth_from(labels)) == expected


def test_ifa_requires_defects():
    with pytest.raises(NoDefects):
        ifa([1.0], truth_from([0]))


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_f1_between_precision_and_recall(tp, fp, fn):
    out = prf1(ConfusionMatrix(tp, fp, 0, fn))
    if out["precision"] > 0 and out["recall"] > 0:
        lo = min(out["precision"], out["recall"])
        hi = max(out["precision"], out["recall"])
        assert lo - 1e-12 <= out["f1"] <= hi + 1e-12
