import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hdpbench.learner import (
    LogisticModel,
    StandardizationParams,
    TrainConfig,
    _gd_fit,
    _loss_and_grad,
    predict_proba,
    train_logistic,
    zscore_apply,
    zscore_fit,
)


def test_zscore_fit_simple_column():
    p = zscore_fit(np.array([[1.0], [2.0], [3.0]]))
    assert p.means[0] == 2.0
    assert p.stds[0] == pytest.approx(1.0)


def test_zscore_fit_constant_column():
    p = zscore_fit(np.array([[5.0], [5.0], [5.0]]))
    assert p.means[0] == 5.0 and p.stds[0] == 0.0


def test_zscore_fit_two_points():
    p = zscore_fit(np.array([[-1.0], [1.0]]))
    assert p.means[0] == 0.0
    assert p.stds[0] == pytest.approx(math.sqrt(2))


def test_zscore_apply_centers_and_scales():
    p = StandardizationParams(np.array([2.0]), np.array([1.0]))
    z = zscore_apply(p, np.array([[1.0], [2.0], [3.0]]))
    assert z.ravel().tolist() == [-1.0, 0.0, 1.0]


def test_zscore_constant_column_maps_to_zero():
    X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    z = zscore_apply(zscore_fit(X), X)
    assert np.all(z[:, 0] == 0.0)


@given(st.lists(st.lists(st.floats(-100, 100), min_size=3, max_size=3),
                min_size=2, max_size=20))
@example(rows=[[0.0, 0.0, 0.0], [0.0, 0.0, 8.592352368730386e-160]])  # subnormal squares
def test_zscore_round_trip_normalizes(rows):
    X = np.array(rows)
    z = zscore_apply(zscore_fit(X), X)
    assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
    stds = z.std(axis=0, ddof=1)
    assert np.all((np.abs(stds - 1) < 1e-9) | (stds == 0))


def test_training_separable_data_is_perfect():
    X = np.array([[0.0, 0.0], [0.1, 0.2], [5.0, 5.0], [5.1, 4.8]])
    y = np.array([False, False, True, True])
    model = train_logistic(X, y)
    assert ((predict_proba(model, X) > 0.5) == y).all()


def test_single_class_predicts_prior():
    X = np.array([[1.0], [2.0], [3.0]])
    model = train_logistic(X, np.array([True, True, True]))
    assert np.all(predict_proba(model, np.array([[0.0], [100.0]])) > 0.5)
    model = train_logistic(X, np.array([False, False, False]))
    assert np.all(predict_proba(model, np.array([[0.0], [100.0]])) < 0.5)


def test_gradient_small_at_optimum():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = rng.random(40) < 0.5
    cfg = TrainConfig()
    Z = zscore_apply(zscore_fit(X), X)
    w, b, _ = _gd_fit(Z, y.astype(float), cfg)
    _, gw, gb = _loss_and_grad(w, b, Z, y.astype(float), cfg.l2_strength)
    assert math.sqrt(float(gw @ gw) + gb * gb) < cfg.tolerance


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(5):
        Z = rng.normal(size=(12, 4))
        y = (rng.random(12) < 0.5).astype(float)
        w = rng.normal(size=4) * 0.5
        b = float(rng.normal() * 0.5)
        l2 = 1e-4
        loss, gw, gb = _loss_and_grad(w, b, Z, y, l2)
        eps = 1e-6
        for j in range(4):
            dw = np.zeros(4)
            dw[j] = eps
            hi, _, _ = _loss_and_grad(w + dw, b, Z, y, l2)
            lo, _, _ = _loss_and_grad(w - dw, b, Z, y, l2)
            fd = (hi - lo) / (2 * eps)
            assert abs(fd - gw[j]) < 1e-5 * max(1.0, abs(gw[j]))
        hi, _, _ = _loss_and_grad(w, b + eps, Z, y, l2)
        lo, _, _ = _loss_and_grad(w, b - eps, Z, y, l2)
        assert abs((hi - lo) / (2 * eps) - gb) < 1e-5 * max(1.0, abs(gb))


def test_loss_is_non_increasing():
    rng = np.random.default_rng(2)
    X = rng.lognormal(1, 0.5, size=(30, 4))
    y = rng.random(30) < 0.4
    y[0], y[1] = True, False
    Z = zscore_apply(zscore_fit(X), X)
    _, _, losses = _gd_fit(Z, y.astype(float), TrainConfig())
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-15)


def test_training_is_deterministic():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 3))
    y = rng.random(25) < 0.5
    y[0], y[1] = True, False
    m1 = train_logistic(X, y)
    m2 = train_logistic(X, y)
    assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias


def test_predict_zero_model_gives_half():
    params = StandardizationParams(np.zeros(2), np.ones(2))
    model = LogisticModel(np.zeros(2), 0.0, params)
    assert np.all(predict_proba(model, np.array([[3.0, -4.0]])) == 0.5)


def test_negation_symmetry():
    params = StandardizationParams(np.zeros(2), np.ones(2))
    w = np.array([0.7, -1.2])
    X = np.array([[1.0, 2.0], [-3.0, 0.5]])
    a = predict_proba(LogisticModel(w, 0.3, params), X)
    b = predict_proba(LogisticModel(-w, 0.3, params), -X)
    assert np.allclose(a, b)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6))
def test_scores_strictly_inside_unit_interval(row):
    params = StandardizationParams(np.zeros(len(row)), np.ones(len(row)))
    model = LogisticModel(np.ones(len(row)), 0.0, params)
    p = predict_proba(model, np.array([row]))
    assert 0.0 < p[0] < 1.0


def test_dimension_mismatch_raises():
    model = train_logistic(np.array([[1.0], [2.0]]), np.array([True, False]))
    with pytest.raises(ValueError):
        predict_proba(model, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        train_logistic(np.array([[1.0], [2.0]]), np.array([True]))


def test_model_requires_finite_weights():
    params = StandardizationParams(np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        LogisticModel(np.array([np.inf]), 0.0, params)
