import itertools

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special
from scipy.stats import chi2

from hdpbench.stats import (
    ContingencyTable,
    WtlRecord,
    bh_adjust,
    cliffs_delta,
    mcnemar,
    satisfactory,
    satisfactory_ratio,
    scott_knott,
    wilcoxon_signed_rank,
    wilcoxon_signed_ranks,
    wtl_outcome,
)
from hdpbench.udp import Prediction
from helpers import diversity_report

# ---------------------------------------------------------------------------
# Wilcoxon signed-rank


def test_wilcoxon_identical_samples():
    assert wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


@pytest.mark.parametrize("x, y", [
    ([1.0, float("nan"), 3.0], [0.0, 1.0, 2.0]),
    ([1.0, 2.0, 3.0], [0.0, float("inf"), 2.0]),
    ([float("-inf"), 2.0], [float("-inf"), 1.0]),  # -inf - -inf is NaN
])
def test_wilcoxon_rejects_non_finite_values(x, y):
    # a NaN difference used to become a NaN rank, cast to an integer count index
    with pytest.raises(ValueError, match="^wilcoxon_signed_rank needs finite values$"):
        wilcoxon_signed_rank(x, y)


def test_wilcoxon_five_positive_differences():
    assert wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 1, 2, 3, 4]) == pytest.approx(2 / 32)


def oracle_exact_wilcoxon(x, y):
    """Full 2^n sign enumeration, independent of the implementation."""
    diffs = [a - b for a, b in zip(x, y) if a != b]
    n = len(diffs)
    if n == 0:
        return 1.0
    magnitudes = sorted(abs(d) for d in diffs)
    ranks = []
    for d in diffs:
        tied = [i for i, m in enumerate(magnitudes) if m == abs(d)]
        ranks.append(sum(t + 1 for t in tied) / len(tied))
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    ge = le = total = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        total += 1
        ge += w >= w_obs - 1e-9
        le += w <= w_obs + 1e-9
    return min(1.0, 2 * min(ge / total, le / total))


def test_wilcoxon_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 11))
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.integers(0, 6, size=n).astype(float)
        assert wilcoxon_signed_rank(x, y) == pytest.approx(
            oracle_exact_wilcoxon(x, y), abs=1e-12
        )


def test_wilcoxon_normal_path_tracks_exact():
    rng = np.random.default_rng(2)
    import hdpbench.stats as stats_module

    for _ in range(20):
        x = rng.normal(size=12)
        y = x + rng.normal(0.3, 1.0, size=12)
        exact = wilcoxon_signed_rank(x, y)
        original = stats_module._EXACT_LIMIT
        try:
            stats_module._EXACT_LIMIT = 0  # force the approximation
            approx = wilcoxon_signed_rank(x, y)
        finally:
            stats_module._EXACT_LIMIT = original
        assert abs(exact - approx) < 0.02


# ---------------------------------------------------------------------------
# Benjamini-Hochberg


def test_bh_single_value_unchanged():
    assert bh_adjust([0.04]) == [0.04]


def test_bh_step_up_example():
    assert bh_adjust([0.01, 0.02, 0.04]) == pytest.approx([0.03, 0.03, 0.04])


def test_bh_adjusted_at_least_raw():
    rng = np.random.default_rng(3)
    p = rng.random(20)
    adjusted = bh_adjust(p)
    assert all(a >= r - 1e-15 for a, r in zip(adjusted, p))
    assert all(a <= 1 for a in adjusted)


def test_bh_preserves_order_positions():
    p = [0.9, 0.001, 0.5]
    adjusted = bh_adjust(p)
    assert adjusted[1] == min(adjusted)


def test_bh_monotone_in_sorted_order():
    rng = np.random.default_rng(4)
    p = rng.random(15)
    adjusted = np.array(bh_adjust(p))
    order = np.argsort(p)
    assert np.all(np.diff(adjusted[order]) >= -1e-15)


def test_bh_fixed_point_on_constant_vectors():
    assert bh_adjust([0.2, 0.2, 0.2]) == pytest.approx([0.2, 0.2, 0.2])


@pytest.mark.parametrize("pvals", [[1.5], [-0.1, 0.2], [np.nan, 0.1], [0.1, np.nan]])
def test_bh_rejects_bad_input(pvals):
    # a NaN once passed the range check and spread through the running minimum
    with pytest.raises(ValueError, match=r"^p-values must lie in \[0, 1\]$"):
        bh_adjust(pvals)


# ---------------------------------------------------------------------------
# Cliff's delta


def test_cliffs_identical():
    assert cliffs_delta([1, 2, 3], [1, 2, 3]) == 0.0


def test_cliffs_fully_separated():
    assert cliffs_delta([10, 11], [1, 2]) == 1.0


def test_cliffs_enumerated_example():
    assert cliffs_delta([1, 2], [1, 3]) == -0.25


@pytest.mark.parametrize("x, y, message", [
    ([], [1.0], "both samples must be non-empty vectors"),
    ([1.0], [], "both samples must be non-empty vectors"),
    ([[1.0, 2.0]], [[0.5]], "both samples must be non-empty vectors"),  # once gave 2.0
    (1.0, [0.5], "both samples must be non-empty vectors"),
    ([np.nan, 1.0], [0.5], "samples must not be NaN"),  # once counted as a tie: 0.5
    ([1.0], [0.5, np.nan], "samples must not be NaN"),
])
def test_cliffs_rejects_bad_input(x, y, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cliffs_delta(x, y)


@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=8),
    st.lists(st.integers(-5, 5), min_size=1, max_size=8),
)
def test_cliffs_antisymmetry(x, y):
    assert cliffs_delta(x, y) == -cliffs_delta(y, x)


# ---------------------------------------------------------------------------
# win/tie/loss outcome


def outcome(x, y):
    """The report's call for one target, at its unadjusted p-value."""
    return wtl_outcome(wilcoxon_signed_rank(x, y), x, y)


def test_compare_identical_is_tie():
    x = list(range(20))
    assert outcome(x, x) == "tie"


def test_compare_large_shift_wins():
    rng = np.random.default_rng(5)
    y = rng.random(20).tolist()
    x = [v + 10 for v in y]
    assert outcome(x, y) == "win"
    assert outcome(y, x) == "loss"


def test_compare_negligible_effect_is_tie():
    # significant p but tiny delta: it stays a tie
    rng = np.random.default_rng(6)
    y = rng.normal(0, 1, 40)
    x = y + 1e-6
    assert wtl_outcome(0.001, x, y) == "tie"


def test_compare_invariant_under_affine_transform():
    rng = np.random.default_rng(7)
    for _ in range(10):
        y = rng.normal(size=15)
        x = y + rng.normal(0.5, 0.3, size=15)
        assert outcome(x, y) == outcome(3 * x + 11, 3 * y + 11)


# ---------------------------------------------------------------------------
# Scott-Knott


def test_scott_knott_identical_methods_one_group():
    samples = {"a": [0.5, 0.6, 0.7], "b": [0.5, 0.6, 0.7]}
    ranking = scott_knott(samples)
    assert ranking.groups == (("a", "b"),)


def test_scott_knott_clearly_separated_methods():
    rng = np.random.default_rng(8)
    samples = {
        "good": list(rng.normal(100, 0.1, 20)),
        "bad": list(rng.normal(0, 0.1, 20)),
    }
    ranking = scott_knott(samples)
    assert ranking.groups == (("good",), ("bad",))


def test_scott_knott_identically_distributed_usually_one_group():
    one_group = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        samples = {f"m{k}": list(rng.normal(0.5, 0.1, 30)) for k in range(5)}
        one_group += len(scott_knott(samples).groups) == 1
    assert one_group >= 95


def test_scott_knott_name_permutation_invariant():
    rng = np.random.default_rng(9)
    data = {f"m{k}": list(rng.normal(k * 0.5, 0.4, 15)) for k in range(4)}
    base = scott_knott(data)
    shuffled = dict(reversed(list(data.items())))
    assert scott_knott(shuffled).groups == base.groups


def test_scott_knott_requires_two_samples():
    with pytest.raises(ValueError):
        scott_knott({"a": [1.0]})


def test_scott_knott_three_tiers():
    rng = np.random.default_rng(10)
    samples = {
        "top": list(rng.normal(10, 0.2, 25)),
        "mid1": list(rng.normal(5, 0.2, 25)),
        "mid2": list(rng.normal(5.02, 0.2, 25)),
        "low": list(rng.normal(0, 0.2, 25)),
    }
    ranking = scott_knott(samples)
    assert len(ranking.groups) == 3
    assert ranking.groups[0] == ("top",)
    assert set(ranking.groups[1]) == {"mid1", "mid2"}
    assert ranking.groups[2] == ("low",)


def test_scott_knott_critical_value_equals_chi2_isf():
    # scott_knott calls the special function behind chi2.isf directly
    for alpha in (0.01, 0.05, 0.1):
        for k in range(2, 201):
            df = k / (math.pi - 2.0)
            assert special.chdtri(df, alpha) == chi2.isf(alpha, df)


# ---------------------------------------------------------------------------
# McNemar and diversity


PAPER_TABLE = {
    "method1": [0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
    "method2": [1, 1, 1, 1, 1, 0, 1, 1, 1, 1],
    "method3": [0, 0, 1, 1, 0, 0, 0, 1, 1, 0],
}


def paper_preds(key):
    return Prediction(PAPER_TABLE[key], PAPER_TABLE[key]).predicted


def paper_truth():
    return np.ones(10, dtype=bool)


def test_diversity_counts_for_worked_example():
    n_cw, n_wc, _, _ = diversity_report(
        {"cla": paper_preds("method1"), "clami": paper_preds("method2")}, paper_truth()
    )
    assert (n_cw, n_wc) == ([1], [8])


def test_mcnemar_reproduces_worked_p_values():
    # method1 against method2, then against method3
    assert mcnemar(ContingencyTable(1, 1, 8, 0)) == pytest.approx(0.0196, abs=1e-3)
    assert mcnemar(ContingencyTable(0, 2, 4, 4)) == pytest.approx(0.4142, abs=1e-3)


def test_mcnemar_balanced_discordants():
    assert mcnemar(ContingencyTable(3, 4, 4, 2)) == 1.0
    assert mcnemar(ContingencyTable(5, 0, 0, 5)) == 1.0


def test_mcnemar_equals_chi2_sf_on_a_grid():
    # mcnemar calls the special function behind chi2.sf directly
    n_cw, n_wc = (grid.ravel() for grid in np.meshgrid(np.arange(300), np.arange(300)))
    discordant = n_cw + n_wc
    keep = discordant > 0
    n_cw, n_wc, discordant = n_cw[keep], n_wc[keep], discordant[keep]
    expected = chi2.sf((n_cw - n_wc) ** 2 / discordant, 1)
    got = [mcnemar(ContingencyTable(0, int(a), int(b), 0)) for a, b in zip(n_cw, n_wc)]
    assert np.array_equal(got, expected)


def test_diversity_identical_predictions():
    n_cw, n_wc, p, text = diversity_report(
        {"cla": paper_preds("method1"), "clami": paper_preds("method1")}, paper_truth()
    )
    assert (n_cw, n_wc, p) == ([0], [0], [1.0])
    assert "cla vs clami | 0/1 |" in text


def test_diversity_ignores_non_defective_modules():
    n_cw, n_wc, _, _ = diversity_report({"cla": [True, False], "clami": [False, True]}, [True, False])
    assert (n_cw, n_wc) == ([1], [0])


# ---------------------------------------------------------------------------
# satisfactory criteria


def test_satisfactory_both_criteria():
    assert satisfactory(0.80, 0.80, "SC1")
    assert satisfactory(0.80, 0.80, "SC2")


def test_satisfactory_sc2_only():
    assert not satisfactory(0.60, 0.75, "SC1")
    assert satisfactory(0.60, 0.75, "SC2")


def test_satisfactory_boundaries_are_strict():
    assert not satisfactory(0.75, 0.75, "SC1")
    assert not satisfactory(0.50, 0.71, "SC2")
    assert not satisfactory(0.51, 0.70, "SC2")


def test_satisfactory_ratio_values():
    results = [(0.8, 0.8)] * 3 + [(0.1, 0.1)] * 28
    assert satisfactory_ratio(results, "SC1") == 9.68
    assert satisfactory_ratio([(0.0, 0.0)] * 5, "SC1") == 0.0
    assert satisfactory_ratio([(0.9, 0.9)] * 4, "SC2") == 100.0


def test_satisfactory_rejects_unknown_criterion():
    with pytest.raises(ValueError):
        satisfactory(0.5, 0.5, "SC3")


@pytest.mark.parametrize("fault, message", [
    (lambda: wilcoxon_signed_ranks(np.ones((2, 2)), [0], [1]),
     "need a vector of differences and equal-length part bounds"),
    (lambda: wilcoxon_signed_rank([1.0, 2.0], [1.0]), "x and y must be equal-length non-empty vectors"),
    (lambda: bh_adjust([]), "need a non-empty vector of p-values"),
    (lambda: WtlRecord(1, -1, 0), "counts must be non-negative"),
    (lambda: scott_knott({}), "need at least one method"),
    # a NaN once gave one group of mean nan
    (lambda: scott_knott({"a": [1.0, math.nan], "b": [1.0, 2.0]}), "method 'a' has a NaN sample"),
    (lambda: ContingencyTable(0, 0, -1, 0), "counts must be non-negative"),
    (lambda: satisfactory(1.5, 0.5, "SC1"), "precision/recall must lie in [0, 1]"),
    (lambda: satisfactory_ratio([], "SC1"), "need at least one combination"),
], ids=["wilcoxon-parts", "wilcoxon-pair", "bh-empty", "wtl-count", "sk-empty", "sk-nan",
        "contingency-count", "satisfactory-range", "satisfactory-empty"])
def test_stats_input_errors(fault, message):
    with pytest.raises(ValueError) as caught:
        fault()
    assert str(caught.value) == message
