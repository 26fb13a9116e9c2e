import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from hdpbench import measures, udp
from hdpbench.learner import zscore_apply, zscore_fit
from hdpbench.datasets import effort_values
from hdpbench.udp import (
    Prediction,
    best_metric_oracle,
    cla_predict,
    clami_predict,
    manual_rank,
    spectral_predict,
)
from helpers import make_dataset
import reference_udp
from reference_udp import connectivity_matrix, normalized_laplacian

# ---------------------------------------------------------------------------
# CLA


def test_cla_hand_trace():
    d = make_dataset("t", [[1, 9], [9, 1], [9, 9], [1, 1]], [0, 0, 1, 0])
    preds = cla_predict(d)
    assert preds.scores.tolist() == [1, 1, 2, 0]
    assert preds.predicted.tolist() == [False, False, True, False]


def test_cla_identical_rows_predict_nothing():
    d = make_dataset("t", np.ones((5, 3)), [0, 1, 0, 0, 0])
    assert not cla_predict(d).predicted.any()


def test_cla_score_is_k_ordering():
    rng = np.random.default_rng(0)
    d = make_dataset("t", rng.random((20, 4)), rng.random(20) < 0.3)
    preds = cla_predict(d)
    cutoffs = np.percentile(d.values, 50.0, axis=0)
    k = (d.values > cutoffs).sum(axis=1)
    assert preds.scores.tolist() == k.tolist()


def test_cla_invariant_under_monotone_transforms():
    rng = np.random.default_rng(1)
    transforms = [lambda c: 2 * c + 1, np.sqrt, lambda c: c**2, np.log1p]
    for _ in range(30):
        values = rng.lognormal(1, 0.8, size=(15, 4)) + 0.5
        d = make_dataset("t", values, rng.random(15) < 0.4)
        base = cla_predict(d).predicted.tolist()
        warped = np.column_stack(
            [transforms[j % len(transforms)](values[:, j]) for j in range(4)]
        )
        d2 = make_dataset("t", warped, d.labels)
        assert cla_predict(d2).predicted.tolist() == base


# ---------------------------------------------------------------------------
# CLAMI


def test_clami_keeps_zero_violation_metric():
    # metric 0 tracks the CLA labels perfectly, metric 1 violates them
    d = make_dataset("t", [[9, 1], [9, 9], [1, 1], [1, 9]], [1, 1, 0, 0])
    preds = clami_predict(d)
    assert len(preds.predicted) == 4
    assert preds.predicted[:2].tolist() != preds.predicted[2:].tolist()


def test_clami_falls_back_to_cla_when_class_vanishes():
    # K = [0, 1, 2, 1] flags module 2 alone; every metric has one
    # violation, so all are kept, and only module 0 (clean) survives
    d = make_dataset("t", [[3, 1, 7], [8, 1, 7], [9, 8, 7], [3, 5, 2]], [0, 0, 1, 0])
    cla = cla_predict(d)
    assert cla.scores.tolist() == [0, 1, 2, 1]
    clami = clami_predict(d)
    assert clami.scores.tolist() == cla.scores.tolist()
    assert clami.predicted.tolist() == cla.predicted.tolist()


def test_clami_prediction_count():
    rng = np.random.default_rng(2)
    d = make_dataset("t", rng.lognormal(1, 1, (30, 5)), rng.random(30) < 0.3)
    preds = clami_predict(d)
    assert preds.scores.shape == preds.predicted.shape == (d.n_modules,)


# ---------------------------------------------------------------------------
# spectral


def block_dataset(seed=3):
    rng = np.random.default_rng(seed)
    high = rng.normal(10, 0.3, size=(5, 4))
    low = rng.normal(1, 0.3, size=(5, 4))
    return make_dataset("b", np.vstack([high, low]), [1] * 5 + [0] * 5)


def test_spectral_labels_high_value_block_defective():
    preds = spectral_predict(block_dataset())
    assert preds.predicted.tolist() == [True] * 5 + [False] * 5


def test_spectral_degenerate_graph():
    d = make_dataset("t", np.ones((4, 2)), [0, 1, 0, 0])
    preds = spectral_predict(d)
    assert not preds.predicted.any()
    assert (preds.scores == 0).all()


def test_spectral_eigen_residual():
    d = block_dataset()
    w = connectivity_matrix(d)
    laplacian = normalized_laplacian(w)
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    v = eigenvectors[:, 1]
    assert np.linalg.norm(laplacian @ v - eigenvalues[1] * v) < 1e-8


def char_poly_coefficients(matrix):
    """det(M - x I) coefficients by cofactor expansion over polynomial arrays."""
    n = len(matrix)
    poly = {(): np.array([1.0])}

    def minor_det(rows, cols):
        if not rows:
            return np.array([1.0])
        r = rows[0]
        total = np.zeros(1)
        for k, c in enumerate(cols):
            entry = np.array([matrix[r][c]])
            if r == c:
                entry = np.array([-1.0, matrix[r][c]])  # (m_rc - x)
            sub = minor_det(rows[1:], cols[:k] + cols[k + 1 :])
            term = np.polymul(entry, sub)
            if k % 2 == 1:
                term = -term
            total = np.polyadd(total, term)
        return total

    return minor_det(tuple(range(n)), tuple(range(n)))


def test_spectral_split_matches_brute_force_eigendecomposition():
    rng = np.random.default_rng(4)
    values = np.vstack([rng.normal(8, 0.4, (2, 3)), rng.normal(0.5, 0.4, (2, 3))])
    d = make_dataset("t", values, [1, 1, 0, 0])
    w = connectivity_matrix(d)
    laplacian = normalized_laplacian(w)
    coeffs = char_poly_coefficients(laplacian.tolist())
    roots = np.sort(np.real(np.roots(coeffs)))
    eigenvalues = np.linalg.eigvalsh(laplacian)
    assert np.allclose(roots, eigenvalues, atol=1e-8)
    preds = spectral_predict(d)
    assert preds.predicted.tolist() == [True, True, False, False]


def test_spectral_scores_are_normalized_row_sums_and_permutation_invariant():
    d = block_dataset(seed=5)
    preds = spectral_predict(d)
    z = zscore_apply(zscore_fit(d.values), d.values)
    assert np.allclose(preds.scores.tolist(), z.sum(axis=1))
    perm = [2, 0, 3, 1]
    d2 = make_dataset("b", d.values[:, perm], d.labels)
    preds2 = spectral_predict(d2)
    # summation order shifts by a few ulps under permutation
    assert np.allclose(preds.scores.tolist(), preds2.scores.tolist(), atol=1e-12)
    assert preds.predicted.tolist() == preds2.predicted.tolist()


def test_spectral_needs_two_modules():
    with pytest.raises(ValueError):
        spectral_predict(make_dataset("t", [[1.0, 2.0]], [1]))


def components(d):
    """Connected components of the modules of nonzero degree, and the
    zero-degree modules, read from the dense similarity matrix."""
    w = connectivity_matrix(d)
    linked = w.sum(axis=1) > 0
    n_components, _ = connected_components(w[np.ix_(linked, linked)] > 0, directed=False)
    return n_components, np.flatnonzero(~linked).tolist()


@pytest.mark.parametrize("high_first", [True, False])
def test_spectral_two_components_split_by_component(high_first):
    d = block_dataset()
    if not high_first:
        d = make_dataset("b", d.values[::-1], d.labels[::-1])
    assert components(d) == (2, [])
    assert spectral_predict(d).predicted.tolist() == d.labels.tolist()


THREE_GROUPS = [  # three groups of three rows, 120 degrees apart once z-scored
    [[16.6, 29.4], [15.0, 28.7], [13.6, 27.7]],  # middle row sums
    [[29.8, 18.3], [30.0, 20.0], [29.8, 21.7]],  # the largest
    [[13.6, 12.3], [15.0, 11.3], [16.6, 10.6]],  # the smallest
]


@pytest.mark.parametrize("order, defective", [
    ((0, 1, 2), [0]),  # the middle group against the other two: it has the larger mean
    ((1, 2, 0), [1]),
    ((2, 0, 1), [0, 1]),  # the smallest group against the rest: the rest is defective
])
def test_spectral_three_components_first_linked_component_against_the_rest(order, defective):
    d = make_dataset("t", [row for g in order for row in THREE_GROUPS[g]], [0] * 9)
    assert components(d) == (3, [])
    expected = [g in defective for g in order for _ in range(3)]
    assert spectral_predict(d).predicted.tolist() == expected


@pytest.mark.parametrize("d", [
    block_dataset(),
    make_dataset("t", [row for g in (2, 0, 1) for row in THREE_GROUPS[g]], [0] * 9),
], ids=["two components", "three components"])
def test_spectral_component_search_does_not_depend_on_the_block_size(monkeypatch, d):
    """One frontier row per block and all rows in one block reach the same
    component from every start, so the split is the same."""
    n = d.n_modules
    w = connectivity_matrix(d)
    searches = []
    for cells in (1, n * n):
        monkeypatch.setattr(udp, "_COMPONENT_BLOCK", cells)
        reached = [udp._component_of(w, start, n).tolist() for start in range(n)]
        searches.append((reached, spectral_predict(d).predicted.tolist()))
    assert searches[0] == searches[1]
    assert components(d)[0] > 1 and not all(searches[0][0][0])


def test_spectral_zero_degree_module_is_never_defective():
    d = make_dataset("t", [[2, 8], [8, 1], [9, 9], [2, 4], [5, 6]], [0] * 5)
    assert components(d) == (1, [1])
    # the dense split put the zero-degree module on the defective side
    assert reference_udp.spectral_predict(d).predicted.tolist() == [False, True, True, False, True]
    assert spectral_predict(d).predicted.tolist() == [False, False, True, False, True]


def test_spectral_zero_fiedler_entry_joins_neither_cluster():
    # modules 0-1-2 form a path that swapping the first two metrics mirrors
    # (0 <-> 2); modules 3 and 4 have zero degree. Every value is a small
    # integer and each column's standard deviation a power of two, so the
    # mirror symmetry holds exactly and the middle module's Fiedler entry is 0.
    values = np.column_stack([[-4, 0, 4, -4, 4], [4, 0, -4, -4, 4], [1, 2, 1, -3, -1]])
    d = make_dataset("t", values, [0] * 5)
    w = connectivity_matrix(d)
    assert components(d) == (1, [3, 4])
    assert w[0, 1] == w[1, 2] > 0 and w[0, 2] == 0
    preds = spectral_predict(d)
    # the middle module has the largest row sum of the path; it joins
    # neither end, and the two ends have equal means, so nothing is defective
    assert preds.scores[1] > preds.scores[0] == preds.scores[2]
    assert not preds.predicted.any()
    # the dense split put the middle module on the ">= 0" side
    assert reference_udp.spectral_predict(d).predicted.tolist() == [False, False, True, False, False]


@pytest.mark.parametrize("n", [2, 3])
def test_spectral_tiny_inputs_run_without_warnings(n):
    rng = np.random.default_rng(n)
    for _ in range(40):
        d = make_dataset("t", rng.normal(size=(n, 3)), [0] * n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preds = spectral_predict(d)
        # two z-scored rows point in opposite directions and three rows have
        # at most one positive pair: the linked pair, if any, splits in two
        n_components, isolated = components(d)
        linked = [i for i in range(n) if i not in isolated]
        if not linked:
            assert not preds.predicted.any()
        else:
            assert n == 3 and n_components == 1 and len(linked) == 2
            top = max(linked, key=lambda i: preds.scores[i])
            assert preds.predicted.tolist() == [i == top for i in range(n)]


def connected_dataset(n=60, seed=11):
    rng = np.random.default_rng(seed)
    d = make_dataset("t", rng.lognormal(1.0, 0.7, size=(n, 5)), rng.random(n) < 0.3)
    assert components(d) == (1, [])
    return d


def test_spectral_repeat_calls_are_byte_identical():
    for d in (connected_dataset(), block_dataset()):
        first = spectral_predict(d)
        for _ in range(3):
            again = spectral_predict(d)
            assert again.scores.tobytes() == first.scores.tobytes()
            assert again.predicted.tobytes() == first.predicted.tobytes()


def test_spectral_matvec_reads_only_the_lower_triangle(monkeypatch):
    fiedler_vector = udp._fiedler_vector
    calls = []

    def recorded(w, degrees):
        calls.append((d, w.copy(), degrees.copy()))
        return fiedler_vector(w, degrees)

    monkeypatch.setattr(udp, "_fiedler_vector", recorded)
    for d in (connected_dataset(), block_dataset(), connected_dataset(120, seed=13)):
        spectral_predict(d)
    assert calls
    for d, w, degrees in calls:
        # the solve gets W itself, unscaled and symmetric to the bit
        assert w.tobytes() == w.T.copy().tobytes()
        assert not w.diagonal().any()
        assert w.tobytes() == connectivity_matrix(d).tobytes()
        want = fiedler_vector(w, degrees)
        w[np.triu_indices(len(w), 1)] = np.nan  # the triangle the matvec never reads
        assert fiedler_vector(w, degrees).tobytes() == want.tobytes()


def count_target(n=2000, n_metrics=21, seed=3):
    """A count-valued target drawn as ``write_count_benchmark_files`` draws
    a project: floored lognormal cells, 30% of them set to 0, metric
    columns 1 and 2 all 0, and the first quarter of the modules defective
    (their values 1.6x before the floor)."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) < n // 4
    values = rng.lognormal(1.0, 1.0, size=(n, n_metrics))
    values[labels] *= 1.6
    values = np.floor(values)
    values[rng.random((n, n_metrics)) < 0.3] = 0.0
    values[:, 1:3] = 0.0
    return make_dataset("count", values, labels)


def test_spectral_on_count_data_is_pinned_through_the_fiedler_path():
    d = count_target()
    assert components(d) == (1, [])  # one component: the Fiedler vector splits it
    preds = spectral_predict(d)
    assert np.count_nonzero(preds.predicted) == 921
    assert hashlib.sha256(preds.predicted.tobytes()).hexdigest() == (
        "80ed50d9c5764a97f90d9a54d8f39730cb15173cdcd15e057f7481c54b36f7d3"
    )
    assert hashlib.sha256(preds.scores.tobytes()).hexdigest() == (
        "e0ce0b488a7daad2908cce92f1f171ff65a419eb6edb959fcd118283f1def55f"
    )


def test_spectral_row_permutation_permutes_labels():
    rng = np.random.default_rng(12)
    for d in (connected_dataset(), block_dataset()):
        base = spectral_predict(d)
        assert base.predicted.any()
        for _ in range(5):
            perm = rng.permutation(d.n_modules)
            moved = spectral_predict(make_dataset("t", d.values[perm], d.labels[perm]))
            assert moved.predicted.tolist() == base.predicted[perm].tolist()
            assert np.allclose(moved.scores, base.scores[perm], atol=1e-12)


@st.composite
def connected_graphs(draw):
    """Random metric tables whose similarity graph is connected, with a simple
    Fiedler eigenvalue and no Fiedler entry near 0, so that the split is
    well defined."""
    n = draw(st.integers(4, 40))
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.lognormal(1.0, draw(st.floats(0.3, 1.5)), size=(n, m))
    else:
        values = rng.normal(size=(n, m))
    d = make_dataset("t", values, rng.random(n) < 0.3)
    assume(components(d) == (1, []))
    eigenvalues, vectors = np.linalg.eigh(normalized_laplacian(connectivity_matrix(d)))
    fiedler = vectors[:, 1]
    assume(eigenvalues[2] - eigenvalues[1] > 1e-6)
    assume(np.abs(fiedler).min() > 1e-6 * np.abs(fiedler).max())
    return d


@given(connected_graphs())
def test_spectral_matches_the_dense_oracle_on_connected_graphs(d):
    preds = spectral_predict(d)
    oracle = reference_udp.spectral_predict(d)
    assert preds.scores.tobytes() == oracle.scores.tobytes()
    assert preds.predicted.tolist() == oracle.predicted.tolist()


# ---------------------------------------------------------------------------
# manual ranking


def test_manual_down_and_up():
    d = make_dataset("t", [[100], [50], [200], [10]], [0, 0, 1, 0])
    preds = manual_rank(d)
    assert preds["down"].predicted.tolist() == [True, False, True, False]
    assert preds["up"].predicted.tolist() == [False, True, False, True]


def test_manual_down_reversed_equals_up_for_distinct_loc():
    rng = np.random.default_rng(6)
    loc = rng.permutation(np.arange(1, 12)).astype(float)
    d = make_dataset("t", loc[:, None], rng.random(11) < 0.5)
    down = manual_rank(d)["down"].scores
    up = manual_rank(d)["up"].scores
    down_order = sorted(range(11), key=lambda i: -down[i])
    up_order = sorted(range(11), key=lambda i: -up[i])
    assert down_order == up_order[::-1]


def test_manual_clamps_zero_loc_effort():
    d = make_dataset("t", [[0.0], [5.0]], [0, 1])
    preds = manual_rank(d)["up"]
    assert preds.scores.tolist() == [1.0, 0.2]  # 1 / clamped LOC, finite


def test_manual_invariant_under_monotone_loc_transform():
    rng = np.random.default_rng(7)
    for _ in range(30):
        loc = rng.integers(1, 500, size=13).astype(float)
        d = make_dataset("t", loc[:, None], rng.random(13) < 0.4)
        base = manual_rank(d)["down"].predicted.tolist()
        d2 = make_dataset("t", (3 * loc + 2)[:, None], d.labels)
        assert manual_rank(d2)["down"].predicted.tolist() == base


def test_manual_returns_both_directions():
    d = make_dataset("t", [[1.0], [2.0]], [0, 1])
    assert list(manual_rank(d)) == ["down", "up"]


# ---------------------------------------------------------------------------
# best-metric oracle


def test_oracle_picks_perfectly_separating_metric():
    labels = [1, 0, 1, 0, 1, 0]
    values = np.column_stack([
        [6, 5, 4, 3, 2, 1],                 # loc noise
        [9, 1, 8, 2, 7, 3],                 # separates perfectly
    ]).astype(float)
    d = make_dataset("t", values, labels)
    result = best_metric_oracle(d)["auc"]
    assert result.metric == "t_m1"
    assert result.value == 1.0


def test_oracle_single_metric_dataset():
    d = make_dataset("t", [[5.0], [1.0], [3.0]], [1, 0, 1])
    assert best_metric_oracle(d)["f1"].metric == "t_m0"


def test_oracle_scores_the_core_measures():
    d = make_dataset("t", [[1.0], [2.0]], [0, 1])
    assert tuple(best_metric_oracle(d)) == measures.CORE_MEASURES


def test_oracle_without_defects_falls_back_on_the_undefined_measures():
    # the first metric is LOC, with a 0 that efforts clamp to 1; the
    # fallback ranks the column as it is, unclamped
    d = make_dataset("t", [[0.0, 5.0], [3.0, 1.0], [2.0, 4.0]], [0, 0, 0])
    result = best_metric_oracle(d)
    for measure in ("auc", "acc", "popt", "ifa"):
        assert result[measure].metric == "t_m0" and result[measure].value is None, measure
        assert result[measure].predictions.scores.tolist() == [0.0, 3.0, 2.0]
        assert result[measure].predictions.predicted.tolist() == [False, True, True]
    assert result["f1"].value == 0.0 and result["f1"].metric == "t_m0"
    # PMI is defined without defects; the smallest share inspected wins
    assert result["pmi20"].value is not None


def test_oracle_single_class_target_has_no_auc():
    d = make_dataset("t", [[4.0, 1.0], [2.0, 3.0], [1.0, 2.0]], [1, 1, 1])
    result = best_metric_oracle(d)
    assert result["auc"].value is None and result["auc"].metric == "t_m0"
    assert result["auc"].predictions.predicted.tolist() == [True, True, False]
    assert result["acc"].value is not None and result["ifa"].value == 0.0


def test_oracle_ties_keep_schema_order_and_prefer_descending():
    # a constant column ties every module: both its directions score alike
    # and AUC 0.5; the perfectly separating m1 beats it only where strictly
    # better, and the constant LOC column comes first in schema order
    d = make_dataset("t", [[5.0, 9.0], [5.0, 1.0], [5.0, 8.0], [5.0, 2.0]], [1, 0, 1, 0])
    result = best_metric_oracle(d)
    assert (result["auc"].metric, result["auc"].value) == ("t_m1", 1.0)
    assert result["auc"].predictions.scores.tolist() == [9.0, 1.0, 8.0, 2.0]
    # PMI: every candidate inspects the same share, so LOC descending stays
    assert result["pmi20"].metric == "t_m0"
    assert result["pmi20"].predictions.scores.tolist() == [5.0] * 4
    assert result["pmi20"].predictions.predicted.tolist() == [True, True, False, False]
    # tied scores: the constant column's AUC is exactly 0.5 either way
    flat = make_dataset("t", [[5.0], [5.0], [5.0]], [1, 0, 0])
    assert best_metric_oracle(flat)["auc"].value == 0.5


def test_oracle_beats_or_ties_manual_ranking():
    rng = np.random.default_rng(8)
    for trial in range(15):
        values = rng.lognormal(1, 1, size=(14, 3)) + 1
        labels = rng.random(14) < 0.4
        labels[0] = True
        labels[1] = False
        d = make_dataset("t", values, labels)
        efforts = effort_values(d)
        for measure_id in measures.CORE_MEASURES:
            oracle_value = best_metric_oracle(d)[measure_id].value
            for manual in manual_rank(d).values():
                manual_value, _ = measures.compute_measure(
                    measure_id, manual.scores, manual.predicted, efforts, d.labels
                )
                if manual_value is None or oracle_value is None:
                    continue
                if measures.HIGHER_IS_BETTER[measure_id]:
                    assert oracle_value >= manual_value - 1e-12
                else:
                    assert oracle_value <= manual_value + 1e-12


def test_every_method_returns_one_prediction_per_module():
    rng = np.random.default_rng(9)
    d = make_dataset("t", rng.lognormal(1, 1, (12, 4)) + 1, rng.random(12) < 0.5)
    for preds in (
        cla_predict(d),
        clami_predict(d),
        spectral_predict(d),
        *manual_rank(d).values(),
        *(best.predictions for best in best_metric_oracle(d).values()),
    ):
        assert isinstance(preds, Prediction)
        assert preds.scores.dtype == np.float64 and preds.predicted.dtype == bool
        assert preds.scores.shape == preds.predicted.shape == (d.n_modules,)


def test_prediction_converts_and_checks_shapes():
    pred = Prediction([3, 1], [1, 0])
    assert pred.scores.dtype == np.float64 and pred.scores.tolist() == [3.0, 1.0]
    assert pred.predicted.dtype == bool and pred.predicted.tolist() == [True, False]
    with pytest.raises(ValueError):
        Prediction([0.5, 0.2], [True])  # unequal lengths
    with pytest.raises(ValueError):
        Prediction([0.5], [True, False])  # length 1 must not broadcast
    with pytest.raises(ValueError):
        Prediction([[0.5, 0.2]], [[True, False]])  # 2-d
    with pytest.raises(ValueError):
        Prediction(0.5, True)  # 0-d
    with pytest.raises(ValueError, match="prediction scores must not be NaN"):
        Prediction([0.5, np.nan], [True, False])
    assert Prediction([np.inf, -np.inf], [True, False]).scores.tolist() == [np.inf, -np.inf]
