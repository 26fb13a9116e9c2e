"""Earlier logistic fitters, kept as reference oracles.

``_newton_fit`` and the ``_loss`` / ``_loss_and_grad`` it calls are the
Newton loop ``hdpbench.learner`` ran before each iterate computed its margin
``Z @ w + b`` once: it recomputes the margin four times per iterate, the
log-loss twice and the sigmoid twice. The same expressions run on the same
operands, so tests compare the two with ``==``. ``_sigmoid`` is its own
copy, the ``np.clip`` form, so a change to the package's sigmoid shows.

``_gd_fit`` is the full-batch gradient descent that Newton's method
replaced: the same objective, the same zero start and the same stopping
test, but it may stop at the iteration cap before reaching the optimum.
Tests compare the two where this one converges.
"""

from __future__ import annotations

import math

import numpy as np

from hdpbench.learner import TrainConfig

_SCORE_CLIP = 36.0


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(t, -_SCORE_CLIP, _SCORE_CLIP)))


def _loss(w: np.ndarray, b: float, Z: np.ndarray, y: np.ndarray, l2: float) -> float:
    t = Z @ w + b
    # log(1 + exp(-s*t)) computed stably via logaddexp
    signed = np.where(y > 0.5, t, -t)
    return float(np.mean(np.logaddexp(0.0, -signed))) + 0.5 * l2 * float(w @ w)


def _loss_and_grad(w: np.ndarray, b: float, Z: np.ndarray, y: np.ndarray, l2: float):
    """Mean log-loss with L2 penalty on the weights (bias unpenalized)."""
    loss = _loss(w, b, Z, y, l2)
    resid = _sigmoid(Z @ w + b) - y
    grad_w = Z.T @ resid / len(y) + l2 * w
    grad_b = float(np.mean(resid))
    return loss, grad_w, grad_b


def _newton_fit(Z: np.ndarray, y: np.ndarray, cfg: TrainConfig):
    """Damped Newton's method with backtracking line search from zero init.

    Each step solves H @ step = g, where H is the Hessian of the objective
    (positive definite because the weights are penalized and the clipped
    sigmoid keeps every p * (1 - p) above zero). The line search halves the
    step until the Armijo condition holds, so the loss sequence is
    non-increasing. Stops when the gradient norm falls below the tolerance
    or after ``max_iters`` Newton steps. Returns (weights, bias,
    per-iteration losses).
    """
    n, d = Z.shape
    A = np.hstack([Z, np.ones((n, 1))])
    penalty = np.diag(np.append(np.full(d, cfg.l2_strength), 0.0))
    w = np.zeros(d)
    b = 0.0
    loss, gw, gb = _loss_and_grad(w, b, Z, y, cfg.l2_strength)
    losses = [loss]
    for _ in range(cfg.max_iters):
        gnorm2 = float(gw @ gw) + gb * gb
        if math.sqrt(gnorm2) < cfg.tolerance:
            break
        p = _sigmoid(Z @ w + b)
        hessian = (A.T * (p * (1.0 - p))) @ A / n + penalty
        grad = np.append(gw, gb)
        step = np.linalg.solve(hessian, grad)
        slope = float(grad @ step)
        t = 1.0
        while True:
            w_new = w - t * step[:d]
            b_new = b - t * float(step[d])
            new_loss = _loss(w_new, b_new, Z, y, cfg.l2_strength)
            if new_loss <= loss - 1e-4 * t * slope or t < 1e-16:
                break
            t *= 0.5
        w, b = w_new, b_new
        loss, gw, gb = _loss_and_grad(w, b, Z, y, cfg.l2_strength)
        losses.append(loss)
    return w, b, losses


def _gd_fit(Z: np.ndarray, y: np.ndarray, cfg: TrainConfig):
    """Gradient descent with backtracking line search from zero init.

    Returns (weights, bias, per-iteration losses). The line search halves
    the step until the Armijo condition holds, so the loss sequence is
    non-increasing.
    """
    w = np.zeros(Z.shape[1])
    b = 0.0
    loss, gw, gb = _loss_and_grad(w, b, Z, y, cfg.l2_strength)
    losses = [loss]
    step = 1.0
    for _ in range(cfg.max_iters):
        gnorm2 = float(gw @ gw) + gb * gb
        if math.sqrt(gnorm2) < cfg.tolerance:
            break
        step = min(step * 2.0, 1e8)
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            new_loss = _loss(w_new, b_new, Z, y, cfg.l2_strength)
            if new_loss <= loss - 1e-4 * step * gnorm2 or step < 1e-16:
                break
            step *= 0.5
        w, b = w_new, b_new
        loss, gw, gb = _loss_and_grad(w, b, Z, y, cfg.l2_strength)
        losses.append(loss)
    return w, b, losses
