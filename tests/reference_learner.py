"""The earlier logistic fitter, kept as a reference oracle.

``hdpbench.learner`` now minimizes the L2-regularized log-loss by Newton's
method. This is the full-batch gradient descent it replaced: the same
objective, the same zero start and the same stopping test, but it may stop
at the iteration cap before reaching the optimum. Tests compare the two
where this one converges.
"""

from __future__ import annotations

import math

import numpy as np

from hdpbench.learner import TrainConfig, _loss, _loss_and_grad


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
