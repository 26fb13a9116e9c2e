import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hdpbench import learner
from hdpbench.learner import (
    LogisticModel,
    StandardizationParams,
    TrainConfig,
    _gradient,
    _log_loss,
    _newton_fit,
    _sigmoid,
    predict_proba,
    train_logistic,
    zscore_apply,
    zscore_fit,
)
import reference_learner
from reference_learner import _gd_fit


def _loss_and_grad(w, b, Z, y, l2):
    """The loss and the gradient at (w, b), from the functions the fitter runs."""
    t = Z @ w + b
    return (_log_loss(t, w, y, l2), *_gradient(_sigmoid(t), w, Z, y, l2))


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
@example(rows=[[0.0, 0.0, 100.0], [0.0, 0.0, 99.99999999999999]])  # the mean is one of the two
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
    w, b, _ = _newton_fit(Z, y.astype(float), cfg)
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
    _, _, losses = _newton_fit(Z, y.astype(float), TrainConfig())
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


def test_config_rejects_non_finite_l2():
    for l2 in (math.nan, math.inf):
        with pytest.raises(ValueError):
            TrainConfig(l2_strength=l2)


def test_config_rejects_non_positive_l2():
    # without a penalty separable data has no finite optimum to step to
    for l2 in (0.0, -1e-4):
        with pytest.raises(ValueError):
            TrainConfig(l2_strength=l2)


def test_config_rejects_max_iters_below_one():
    for max_iters in (0, -1):
        with pytest.raises(ValueError):
            TrainConfig(max_iters=max_iters)


def test_config_rejects_non_positive_tolerance():
    for tolerance in (0.0, -1e-8, math.nan):
        with pytest.raises(ValueError):
            TrainConfig(tolerance=tolerance)


@st.composite
def fit_inputs(draw):
    n = draw(st.integers(10, 30))
    d = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.lists(st.floats(-100, 100), min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assume(y.any() and not y.all())
    return X, y


@given(fit_inputs())
def test_newton_reaches_the_converged_reference_optimum(data):
    X, y = data
    Z = zscore_apply(zscore_fit(X), X)
    cfg = TrainConfig()
    # a short cap keeps the slow near-separable reference fits out
    ref_w, ref_b, ref_losses = _gd_fit(Z, y.astype(float), TrainConfig(max_iters=500))
    _, gw, gb = _loss_and_grad(ref_w, ref_b, Z, y.astype(float), cfg.l2_strength)
    assume(math.sqrt(float(gw @ gw) + gb * gb) < cfg.tolerance)
    w, b, losses = _newton_fit(Z, y.astype(float), cfg)
    assert losses[-1] <= ref_losses[-1] + 1e-12
    ref_scores = _sigmoid(Z @ ref_w + ref_b)
    decided = np.abs(ref_scores - 0.5) > 1e-6
    assert np.array_equal((_sigmoid(Z @ w + b) > 0.5)[decided], (ref_scores > 0.5)[decided])


def test_constant_column_weight_stays_exactly_zero():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 3))
    X[:, 1] = 7.0
    y = X[:, 0] + 0.5 * rng.normal(size=20) > 0
    model = train_logistic(X, y)
    assert model.weights[1] == 0.0
    assert model.weights[0] != 0.0 and model.weights[2] != 0.0


# a CLAMI fit of a plans226 benchmark run: one metric, nearly separable at
# about 1006, where gradient descent stopped at its 5000-iteration cap
CAPPED_X = [1606.2022937689737, 1601.9785365989476, 1606.9871983261137, 1609.851779044015,
            1000.7912159042163, 1001.2948591843272, 1002.0615406887675, 1001.6410369956853,
            1006.07944169294, 1004.0274892684565, 1005.0983213987505, 1002.6583038557712,
            1000.6478774485945, 1003.2194104373149, 1002.5479178503051, 1001.3311753851094]
CAPPED_Y = [1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0]


def test_near_separable_input_that_capped_gradient_descent_converges():
    X = np.array(CAPPED_X)[:, None]
    y = np.array(CAPPED_Y, dtype=float)
    Z = zscore_apply(zscore_fit(X), X)
    cfg = TrainConfig()
    _, _, ref_losses = _gd_fit(Z, y, cfg)
    assert len(ref_losses) - 1 == cfg.max_iters
    w, b, losses = _newton_fit(Z, y, cfg)
    _, gw, gb = _loss_and_grad(w, b, Z, y, cfg.l2_strength)
    assert math.sqrt(float(gw @ gw) + gb * gb) < cfg.tolerance
    assert len(losses) - 1 < cfg.max_iters
    assert losses[-1] < ref_losses[-1]


def test_backtracking_damps_a_newton_step_that_would_raise_the_loss():
    # here the full first Newton step overshoots and raises the loss
    X = np.array([[4.0, 3.8], [-2.2, -18.5], [-0.2, 0.7], [-0.5, -0.1], [-16.0, -2.4]])
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    Z = zscore_apply(zscore_fit(X), X)
    cfg = TrainConfig()
    w, b, losses = _newton_fit(Z, y, cfg)
    assert np.all(np.diff(losses) <= 1e-15)
    _, gw, gb = _loss_and_grad(w, b, Z, y, cfg.l2_strength)
    assert math.sqrt(float(gw @ gw) + gb * gb) < cfg.tolerance


# separable, with two points near the boundary: the line search halves the
# Newton step twice in each of two iterates, the most that a random search
# over fit_inputs-like data at the default tolerance found
BACKTRACKING_X = [[-41.8, -41.9], [1.8, -2.7], [-93.2, -95.2], [-6.3, 1.1], [-4.2, -1.2],
                  [-19.8, -83.5], [-0.0, -1.3], [-1.9, -0.5], [-9.8, 0.1], [9.6, 2.5]]
BACKTRACKING_Y = [0, 1, 0, 0, 0, 1, 1, 1, 0, 1]


@given(fit_inputs(), st.sampled_from([TrainConfig(), TrainConfig(max_iters=2)]))
@example((np.array(BACKTRACKING_X), np.array(BACKTRACKING_Y, dtype=bool)), TrainConfig())
@example((np.array(CAPPED_X)[:, None], np.array(CAPPED_Y, dtype=bool)), TrainConfig())
@example((np.array(CAPPED_X)[:, None], np.array(CAPPED_Y, dtype=bool)), TrainConfig(max_iters=2))
@example((np.column_stack([np.linspace(-5, 5, 12), np.full(12, 7.0)]),  # a constant column
          np.arange(12) % 3 == 0), TrainConfig())
def test_newton_fit_equals_the_reference_loop(data, cfg):
    X, y = data
    assert_same_fit_as_the_reference(zscore_apply(zscore_fit(X), X), y.astype(float), cfg)


def assert_same_fit_as_the_reference(Z, y, cfg):
    w, b, losses = _newton_fit(Z, y, cfg)
    ref_w, ref_b, ref_losses = reference_learner._newton_fit(Z, y, cfg)
    assert np.array_equal(w, ref_w) and w.tobytes() == ref_w.tobytes()
    assert b == ref_b and np.float64(b).tobytes() == np.float64(ref_b).tobytes()
    assert losses == ref_losses and np.array(losses).tobytes() == np.array(ref_losses).tobytes()


# BACKTRACKING_X's damping input with one value moved by bisection, from 3.8
# (the fifth full Newton step raises the loss) toward 4.18 (it passes with an
# Armijo ratio of 0.003): here that ratio is 7.9e-4, so the step passes the
# sufficient-decrease test at 1e-4 and would be halved at 1e-3
ARMIJO_X = [[4.0, 4.1789], [-2.2, -18.5], [-0.2, 0.7], [-0.5, -0.1], [-16.0, -2.4]]
ARMIJO_Y = [0.0, 1.0, 0.0, 1.0, 1.0]


def test_a_step_just_above_the_sufficient_decrease_is_taken_whole():
    X = np.array(ARMIJO_X)
    Z = zscore_apply(zscore_fit(X), X)
    y = np.array(ARMIJO_Y)
    cfg = TrainConfig()
    l2 = cfg.l2_strength
    # the Armijo ratio of each of the first five Newton steps, taken whole
    w, b, ratios = np.zeros(2), 0.0, []
    for _ in range(5):
        loss, gw, gb = reference_learner._loss_and_grad(w, b, Z, y, l2)
        p = _sigmoid(Z @ w + b)
        A = np.hstack([Z, np.ones((len(y), 1))])
        hessian = (A.T * (p * (1.0 - p))) @ A / len(y) + np.diag([l2, l2, 0.0])
        grad = np.append(gw, gb)
        step = np.linalg.solve(hessian, grad)
        w, b = w - step[:2], b - float(step[2])
        ratios.append((loss - reference_learner._loss(w, b, Z, y, l2)) / float(grad @ step))
    assert min(ratios[:4]) > 0.5 and 1e-4 <= ratios[4] < 1e-3
    assert_same_fit_as_the_reference(Z, y, cfg)


def test_newton_fit_equals_the_reference_loop_down_to_the_scale_floor(monkeypatch):
    """Once the gradient norm nears 1e-8, a Newton step lowers the loss by
    less than the loss's rounding, and the line search halves until the
    rounding lets a step through. A tolerance below that keeps the fit
    there: on this input the halvings per iterate climb to 54, where
    ``scale < 1e-16`` ends the search and the loss may rise. So the halving
    factor, the floor and the loss reused after deep backtracking all count
    toward the equality."""
    X = np.array([[3.0], [1.0], [6.0], [-2.0]])
    y = np.array([1.0, 0.0, 0.0, 1.0])
    Z = zscore_apply(zscore_fit(X), X)
    cfg = TrainConfig(max_iters=40, tolerance=1e-300)
    trials = [0]  # log-loss evaluations: the start, then each iterate's line search

    def next_iterate(t):
        trials.append(0)
        return _sigmoid(t)

    def line_search_trial(*args):
        trials[-1] += 1
        return _log_loss(*args)

    monkeypatch.setattr(learner, "_sigmoid", next_iterate)
    monkeypatch.setattr(learner, "_log_loss", line_search_trial)
    assert_same_fit_as_the_reference(Z, y, cfg)
    assert trials[0] == 1 and len(trials) - 1 == cfg.max_iters
    assert max(trials) - 1 == 54  # 2.0**-54 is the first scale below 1e-16
    losses = _newton_fit(Z, y, cfg)[2]
    # only the floor accepts a step that fails the Armijo test
    assert any(later > earlier for earlier, later in zip(losses, losses[1:]))


@pytest.mark.parametrize("fault, message", [
    (lambda: StandardizationParams([0.0, 1.0], [1.0]),
     "means/stds/offsets must be 1-d arrays of equal length"),
    (lambda: StandardizationParams([0.0], [-1.0]), "standard deviations must be non-negative"),
    (lambda: zscore_fit(np.ones((1, 2))), "zscore_fit needs a 2-d matrix with at least 2 rows"),
    (lambda: zscore_apply(StandardizationParams([0.0, 0.0], [1.0, 1.0]), np.ones((3, 3))),
     "column count does not match standardization params"),
    (lambda: train_logistic(np.ones((0, 2)), []), "need at least one training example"),
], ids=["shapes", "negative-std", "one-row", "columns", "no-examples"])
def test_learner_input_errors(fault, message):
    with pytest.raises(ValueError) as caught:
        fault()
    assert str(caught.value) == message
