"""Unsupervised defect predictors.

All five methods share the assumption that defective modules tend to have
larger metric values. Every method returns one ``Prediction``: a score
vector (higher means inspect earlier) and a defective-flag vector, both in
the target's row order. Inspection effort is not part of it; the measures
take the target's LOC column with values <= 0 clamped to 1
(``datasets.effort_values``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import measures
from .datasets import DefectDataset, effort_values
from .learner import TrainConfig, predict_proba, train_logistic, zscore_apply, zscore_fit


@dataclass(frozen=True, eq=False)
class Prediction:
    """Per-module output in target row order: float64 defect-proneness
    ``scores`` and bool ``predicted`` flags (True = defective)."""

    scores: np.ndarray
    predicted: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        predicted = np.asarray(self.predicted, dtype=bool)
        if scores.ndim != 1 or scores.shape != predicted.shape:
            raise ValueError(
                f"scores and predicted must be equal-length vectors, got shapes "
                f"{scores.shape} and {predicted.shape}"
            )
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "predicted", predicted)


def _cla_parts(d: DefectDataset, cutoff_percentile: float):
    """Per-metric percentile cutoffs, per-module K counts, and CLA labels."""
    if not 0 < cutoff_percentile < 100:
        raise ValueError("cutoff percentile must be in (0, 100)")
    cutoffs = np.percentile(d.values, cutoff_percentile, axis=0)
    k = (d.values > cutoffs).sum(axis=1)
    labels = k > np.median(k)
    return cutoffs, k, labels


def cla_predict(d: DefectDataset, cutoff_percentile: float = 50.0) -> Prediction:
    """Cluster-and-label by magnitude: K = number of metrics above their
    percentile cutoff; modules with K strictly above the median K are
    labeled defective."""
    _, k, labels = _cla_parts(d, cutoff_percentile)
    return Prediction(k.astype(float), labels)


def clami_predict(
    d: DefectDataset,
    cutoff_percentile: float = 50.0,
    cfg: TrainConfig = TrainConfig(),
) -> Prediction:
    """CLA labeling plus metric and instance selection, then a logistic fit.

    A violation is a cell whose magnitude disagrees with its module's CLA
    label (defective module at or below the cutoff, or non-defective module
    above it). Metrics with the minimum violation count are kept, instances
    with any violation on kept metrics are dropped, and the classifier is
    trained on the survivors and scored on all modules. If either class
    vanishes after filtering, the CLA output is returned unchanged.
    """
    cutoffs, _, labels = _cla_parts(d, cutoff_percentile)
    above = d.values > cutoffs
    violations = np.where(labels[:, None], ~above, above)
    per_metric = violations.sum(axis=0)
    kept = per_metric == per_metric.min()
    survivors = ~violations[:, kept].any(axis=1)
    survivor_labels = labels[survivors]
    if not (survivor_labels.any() and not survivor_labels.all()):
        return cla_predict(d, cutoff_percentile)
    model = train_logistic(d.values[survivors][:, kept], survivor_labels, cfg)
    scores = predict_proba(model, d.values[:, kept])
    return Prediction(scores, scores > 0.5)


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


def spectral_predict(d: DefectDataset) -> Prediction:
    """Connectivity-based clustering via the normalized Laplacian.

    Modules are split by the sign of the eigenvector of the second-smallest
    eigenvalue; the cluster with the larger average normalized row sum is
    defective. Scores are the normalized-metric row sums. A degenerate
    all-zero similarity graph labels nothing defective.
    """
    if d.n_modules < 2:
        raise ValueError("spectral clustering needs at least 2 modules")
    row_sums = zscore_apply(zscore_fit(d.values), d.values).sum(axis=1)
    w = connectivity_matrix(d)
    predicted = np.zeros(d.n_modules, dtype=bool)
    if np.any(w > 0):
        laplacian = normalized_laplacian(w)
        _, vectors = np.linalg.eigh(laplacian)
        fiedler = vectors[:, 1]
        in_a = fiedler >= 0
        if in_a.any() and (~in_a).any():
            mean_a = row_sums[in_a].mean()
            mean_b = row_sums[~in_a].mean()
            if mean_a > mean_b:
                predicted = in_a
            elif mean_b > mean_a:
                predicted = ~in_a
    return Prediction(row_sums, predicted)


def _top_half(scores: np.ndarray) -> np.ndarray:
    """Defective flags for the top ceil(n/2) modules of the stable
    descending ranking (ties keep module order)."""
    order = np.argsort(-scores, kind="stable")
    predicted = np.zeros(len(scores), dtype=bool)
    predicted[order[: (len(scores) + 1) // 2]] = True
    return predicted


def manual_rank(d: DefectDataset, direction: str = "down") -> Prediction:
    """Size-only ranking: ``down`` scores by LOC (larger first), ``up`` by
    1/LOC (smaller first); the top half of the ranking is labeled defective."""
    loc = effort_values(d)
    if direction == "down":
        scores = loc.astype(float)
    elif direction == "up":
        scores = 1.0 / loc
    else:
        raise ValueError("direction must be 'down' or 'up'")
    return Prediction(scores, _top_half(scores))


class BestMetric(NamedTuple):
    metric: str
    predictions: Prediction
    value: float | None


def best_metric_oracle(
    d: DefectDataset, measure: str, effort_fraction: float = 0.2
) -> BestMetric:
    """Target-side oracle: the single metric (and ranking direction) whose
    top-half ranking scores best on the given measure against true labels.

    Both directions are tried per metric because the winning metric is
    direction-dependent; ties fall back to schema order with descending
    preferred. The LOC column is clamped like every effort computation.
    """
    if measure not in measures.CORE_MEASURES:
        raise ValueError(f"measure must be one of {measures.CORE_MEASURES}")
    higher_better = measures.HIGHER_IS_BETTER[measure]
    efforts = effort_values(d)
    best = None  # (metric, scores, predicted, value)
    best_quality = -np.inf
    for name in d.schema.metric_names:
        column = efforts if name == d.schema.loc_metric else d.column(name)
        for sign in (1.0, -1.0):
            scores = sign * column
            predicted = _top_half(scores)
            value, _ = measures.compute_measure(
                measure, scores, predicted, efforts, d.labels, effort_fraction
            )
            if value is None:
                continue
            quality = value if higher_better else -value
            if quality > best_quality:
                best_quality = quality
                best = (name, scores, predicted, value)
    if best is None:
        # every candidate was undefined (e.g. no defective modules): keep
        # the first metric's descending ranking so output cardinality holds
        scores = d.column(d.schema.metric_names[0])
        best = (d.schema.metric_names[0], scores, _top_half(scores), None)
    name, scores, predicted, value = best
    return BestMetric(name, Prediction(scores, predicted), value)
