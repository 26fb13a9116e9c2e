"""Shared preprocessing and the logistic-regression classifier.

Every supervised method in the benchmark trains the same classifier:
L2-regularized log-loss minimized by Newton's method with backtracking
line search from zero initialization, so fits are deterministic,
dependency-free and converge to the gradient-norm tolerance. Each Newton
iterate computes its margin ``Z @ w + b``, its log-loss and its sigmoid
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: A module is labelled defective when its predicted probability exceeds this
DECISION_THRESHOLD = 0.5
_PRIOR_CLIP = 1e-7
_SCORE_CLIP = 36.0  # |affine score| cap; past this the sigmoid saturates in float64


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column centre and scale. The centre is ``means + offsets``, kept
    as two floats: ``offsets`` is the mean of the residuals ``X - means``,
    which the rounded mean cannot absorb. Offsets default to 0."""

    means: np.ndarray
    stds: np.ndarray
    offsets: np.ndarray | None = None

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        stds = np.asarray(self.stds, dtype=float)
        offsets = np.zeros_like(means) if self.offsets is None else np.asarray(self.offsets, dtype=float)
        if means.shape != stds.shape or means.shape != offsets.shape or means.ndim != 1:
            raise ValueError("means/stds/offsets must be 1-d arrays of equal length")
        if np.any(stds < 0):
            raise ValueError("standard deviations must be non-negative")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        object.__setattr__(self, "offsets", offsets)


@dataclass(frozen=True)
class TrainConfig:
    """L2 penalty on the weights, Newton iteration cap and gradient-norm
    stopping tolerance. A positive penalty keeps Newton's Hessian positive
    definite."""

    l2_strength: float = 1e-4
    max_iters: int = 5000
    tolerance: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.l2_strength) and self.l2_strength > 0):
            raise ValueError("l2_strength must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    standardization: StandardizationParams

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if not (np.all(np.isfinite(weights)) and math.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "weights", weights)


def zscore_fit(X: np.ndarray) -> StandardizationParams:
    """Per-column mean and sample (n-1) standard deviation; needs >= 2 rows.

    The rounded mean can sit a whole ulp from a column's values, e.g.
    [100, 100 - ulp] has a mean on one of the two, so each column is centred
    on the rounded mean plus the mean of its residuals, and the deviation is
    measured from that centre. A constant column records std exactly 0 (mean
    rounding would otherwise leave a spurious tiny deviation).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("zscore_fit needs a 2-d matrix with at least 2 rows")
    means = X.mean(axis=0)
    residuals = X - means
    offsets = residuals.mean(axis=0)
    deviations = residuals - offsets
    stds = np.sqrt((deviations * deviations).sum(axis=0) / (X.shape[0] - 1))
    # squared deviations below ~1e-154 are subnormal and lose digits:
    # measure such columns in units of their largest deviation
    tiny = (stds > 0) & (stds < 1e-150)
    if tiny.any():
        scale = np.abs(deviations[:, tiny]).max(axis=0)
        stds[tiny] = (deviations[:, tiny] / scale).std(axis=0, ddof=1) * scale
    stds[(X == X[0]).all(axis=0)] = 0.0
    return StandardizationParams(means, stds, offsets)


def zscore_apply(params: StandardizationParams, X: np.ndarray) -> np.ndarray:
    """(x - mean - offset) / std per cell; columns with std 0 map to 0."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.means.shape[0]:
        raise ValueError("column count does not match standardization params")
    safe = np.where(params.stds > 0, params.stds, 1.0)
    Z = (X - params.means - params.offsets) / safe
    Z[:, params.stds == 0] = 0.0
    return Z


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(t, -_SCORE_CLIP), _SCORE_CLIP)))


def _log_loss(t: np.ndarray, w: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean log-loss of the margins ``t = Z @ w + b`` plus the L2 penalty on
    the weights (bias unpenalized)."""
    # log(1 + exp(-s*t)) computed stably via logaddexp
    signed = np.where(y > 0.5, t, -t)
    # np.mean bit for bit (a pairwise add.reduce over the count), without its overhead
    return float(np.add.reduce(np.logaddexp(0.0, -signed))) / len(t) + 0.5 * l2 * float(w @ w)


def _gradient(p: np.ndarray, w: np.ndarray, Z: np.ndarray, y: np.ndarray, l2: float):
    """Gradient of ``_log_loss`` in the weights and the bias, from the
    sigmoid ``p`` of the margins."""
    resid = p - y
    grad_w = Z.T @ resid / len(y) + l2 * w
    grad_b = float(np.add.reduce(resid)) / len(y)
    return grad_w, grad_b


def _newton_fit(Z: np.ndarray, y: np.ndarray, cfg: TrainConfig):
    """Damped Newton's method with backtracking line search from zero init.

    Each step solves H @ step = g, where H is the Hessian of the objective
    (positive definite because the weights are penalized and the clipped
    sigmoid keeps every p * (1 - p) above zero). The line search halves the
    step until the Armijo condition holds, so the loss sequence is
    non-increasing. Stops when the gradient norm falls below the tolerance
    or after ``max_iters`` Newton steps. Returns (weights, bias,
    per-iteration losses).

    Each iterate's margin ``Z @ w + b`` and log-loss are computed once, by
    the line search that accepts it, and its sigmoid once, for both the
    gradient and the Hessian.
    """
    n, d = Z.shape
    l2 = cfg.l2_strength
    A = np.hstack([Z, np.ones((n, 1))])
    penalty = np.diag(np.append(np.full(d, l2), 0.0))
    w = np.zeros(d)
    b = 0.0
    t = Z @ w + b
    loss = _log_loss(t, w, y, l2)
    losses = [loss]
    for _ in range(cfg.max_iters):
        p = _sigmoid(t)
        gw, gb = _gradient(p, w, Z, y, l2)
        gnorm2 = float(gw @ gw) + gb * gb
        if math.sqrt(gnorm2) < cfg.tolerance:
            break
        hessian = (A.T * (p * (1.0 - p))) @ A / n + penalty
        grad = np.concatenate((gw, [gb]))
        step = np.linalg.solve(hessian, grad)
        slope = float(grad @ step)
        scale = 1.0
        while True:
            w_new = w - scale * step[:d]
            b_new = b - scale * float(step[d])
            t = Z @ w_new + b_new
            new_loss = _log_loss(t, w_new, y, l2)
            if new_loss <= loss - 1e-4 * scale * slope or scale < 1e-16:
                break
            scale *= 0.5
        w, b, loss = w_new, b_new, new_loss
        losses.append(loss)
    return w, b, losses


def train_logistic(X: np.ndarray, y, cfg: TrainConfig = TrainConfig()) -> LogisticModel:
    """Deterministic logistic fit on standardized features.

    Single-class labels yield the constant model predicting that class's
    prior (clipped so the bias stays finite).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=bool)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X rows must match label count")
    if X.shape[0] == 0:
        raise ValueError("need at least one training example")
    n_features = X.shape[1]
    if y.all() or not y.any():
        prior = min(max(float(np.mean(y)), _PRIOR_CLIP), 1.0 - _PRIOR_CLIP)
        params = StandardizationParams(np.zeros(n_features), np.zeros(n_features))
        return LogisticModel(np.zeros(n_features), math.log(prior / (1.0 - prior)), params)
    params = zscore_fit(X)
    Z = zscore_apply(params, X)
    w, b, _ = _newton_fit(Z, y.astype(float), cfg)
    return LogisticModel(w, b, params)


def predict_proba(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """Defect-proneness scores strictly inside (0, 1)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise ValueError("feature count does not match model")
    Z = zscore_apply(model.standardization, X)
    return _sigmoid(Z @ model.weights + model.bias)
