"""The earlier dense spectral clustering, kept as a reference oracle.

``hdpbench.udp.spectral_predict`` builds one similarity array, scales it in
place and takes the Fiedler vector from ``eigsh``; a disconnected graph is
split by its components. This is the version it replaced: the full
normalized Laplacian and every eigenpair from ``np.linalg.eigh``, with the
modules split by ``fiedler >= 0``. On a connected graph whose Fiedler
eigenvalue is simple and whose Fiedler vector has no zero entry, both give
the same labels.
"""

from __future__ import annotations

import numpy as np

from hdpbench.datasets import DefectDataset
from hdpbench.learner import zscore_apply, zscore_fit
from hdpbench.udp import Prediction


def normalized_laplacian(weights: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^(-1/2) W D^(-1/2); zero-degree
    nodes keep a zero off-diagonal row."""
    degrees = weights.sum(axis=1)
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)
    return np.eye(len(weights)) - inv_sqrt[:, None] * weights * inv_sqrt[None, :]


def connectivity_matrix(d: DefectDataset) -> np.ndarray:
    """Nonnegative dot-product similarity of z-scored metric rows, zero diagonal."""
    z = zscore_apply(zscore_fit(d.values), d.values)
    w = np.maximum(z @ z.T, 0.0)
    np.fill_diagonal(w, 0.0)
    return w


def fiedler_vector(weights: np.ndarray) -> np.ndarray:
    """The eigenvector of the Laplacian's second-smallest eigenvalue."""
    _, vectors = np.linalg.eigh(normalized_laplacian(weights))
    return vectors[:, 1]


def spectral_predict(d: DefectDataset) -> Prediction:
    """Split by the sign of the Fiedler vector (``>= 0`` against ``< 0``);
    the cluster with the larger mean z row sum is defective."""
    if d.n_modules < 2:
        raise ValueError("spectral clustering needs at least 2 modules")
    row_sums = zscore_apply(zscore_fit(d.values), d.values).sum(axis=1)
    w = connectivity_matrix(d)
    predicted = np.zeros(d.n_modules, dtype=bool)
    if np.any(w > 0):
        in_a = fiedler_vector(w) >= 0
        if in_a.any() and (~in_a).any():
            mean_a = row_sums[in_a].mean()
            mean_b = row_sums[~in_a].mean()
            if mean_a > mean_b:
                predicted = in_a
            elif mean_b > mean_a:
                predicted = ~in_a
    return Prediction(row_sums, predicted)
