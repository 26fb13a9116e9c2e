"""Unsupervised defect predictors.

All five methods share the assumption that defective modules tend to have
larger metric values. A ``Prediction`` is a score vector (higher means
inspect earlier) and a defective-flag vector, both in the target's row
order; NaN scores are rejected. ``cla``, ``clami`` and ``spectral`` return
one; ``manual_rank`` returns one per ranking direction and
``best_metric_oracle`` one winner per core measure, each from a single call
per target. ``manual_rank`` and ``best_metric_oracle`` rank modules with
``measures.Ranking``, the one sort the measures rank by, and flag its
``top_half``; ``best_metric_oracle`` scores every candidate's one
``Ranking`` on the core measures with one ``measures.RankingScorer``, the
rule every measure is computed by. Inspection effort is not part of a
prediction: it is the target's LOC column with values <= 0 clamped to 1
(``datasets.effort_values``). The efforts, and the CLA split ``cla`` and
``clami`` share (``_cla_parts``), are kept with the target
(``DefectDataset.derived``), so a run computes each once per target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import measures
from .datasets import DefectDataset, effort_values
from .learner import DECISION_THRESHOLD, predict_proba, train_logistic, zscore_apply, zscore_fit


@dataclass(frozen=True, eq=False)
class Prediction:
    """Per-module output in target row order: float64 defect-proneness
    ``scores``, none of them NaN, and bool ``predicted`` flags (True =
    defective)."""

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
        if np.isnan(scores).any():
            raise ValueError("prediction scores must not be NaN")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "predicted", predicted)


def _cla_parts(d: DefectDataset):
    """The cells above their metric's median, per-module K counts, and CLA labels."""
    # np.percentile, not np.median: the two can round an even-length midpoint apart
    above = d.values > np.percentile(d.values, 50.0, axis=0)
    k = above.sum(axis=1)
    labels = k > np.median(k)
    return above, k, labels


def cla_predict(d: DefectDataset) -> Prediction:
    """Cluster-and-label by magnitude: K = number of metrics above their
    median; modules with K strictly above the median K are labeled defective."""
    _, k, labels = d.derived(_cla_parts)
    return Prediction(k.astype(float), labels)


def clami_predict(d: DefectDataset) -> Prediction:
    """CLA labeling plus metric and instance selection, then a logistic fit.

    A violation is a cell whose magnitude disagrees with its module's CLA
    label (defective module at or below the cutoff, or non-defective module
    above it). Metrics with the minimum violation count are kept, instances
    with any violation on kept metrics are dropped, and the classifier is
    trained on the survivors and scored on all modules. If either class
    vanishes after filtering, the CLA output is returned unchanged.
    """
    above, k, labels = d.derived(_cla_parts)
    violations = np.where(labels[:, None], ~above, above)
    per_metric = violations.sum(axis=0)
    kept = per_metric == per_metric.min()
    survivors = ~violations[:, kept].any(axis=1)
    survivor_labels = labels[survivors]
    if not (survivor_labels.any() and not survivor_labels.all()):
        return Prediction(k.astype(float), labels)
    model = train_logistic(d.values[survivors][:, kept], survivor_labels)
    scores = predict_proba(model, d.values[:, kept])
    return Prediction(scores, scores > DECISION_THRESHOLD)


_COMPONENT_BLOCK = 1 << 18  # similarity cells one block of the component search copies: 2 MiB
_DEFLATION_SHIFT = 3.0  # moves A's top eigenvalue from 1 to -2, below all others


def _component_of(w: np.ndarray, start: int, n_linked: int) -> np.ndarray:
    """Bool mask of the modules joined to ``start`` by paths of positive
    similarity: a frontier search that reads each reached row once, in row
    blocks, and stops when all ``n_linked`` modules of nonzero degree are in."""
    n = len(w)
    block = max(1, _COMPONENT_BLOCK // n)
    reached = np.zeros(n, dtype=bool)
    reached[start] = True
    frontier = np.array([start])
    while frontier.size:
        found = np.zeros(n, dtype=bool)
        for lo in range(0, frontier.size, block):
            found |= w[frontier[lo : lo + block]].max(axis=0) > 0
            if np.count_nonzero(found | reached) == n_linked:
                return found | reached
        frontier = np.flatnonzero(found & ~reached)
        reached |= found
    return reached


def _fiedler_vector(w: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Second eigenvector of A = D^-1/2 W D^-1/2 restricted to the modules
    of nonzero degree (0 elsewhere).

    A's top eigenvector there is sqrt(d); it is shifted below -1, so the
    largest eigenpair left is the Fiedler pair. ``v0`` and the generator
    ARPACK draws restart vectors from are fixed, so repeat calls give the
    same bytes.

    A is never formed: the matvec scales x by D^-1/2, multiplies by W with
    the BLAS symmetric product ``dsymv`` and scales the result by D^-1/2
    again. ``dsymv`` runs on ``w.T``, the Fortran-ordered view of the
    C-ordered array, so nothing is copied, and it reads only W's lower
    triangle, the entries w[i, j] with i >= j.
    """
    from scipy.linalg.blas import dsymv
    from scipy.sparse.linalg import LinearOperator, eigsh

    rows = np.flatnonzero(degrees)
    top = np.sqrt(degrees[rows])
    s = 1.0 / top
    top /= np.linalg.norm(top)
    full = np.zeros(len(w))

    def deflated(x):
        x = x.ravel()
        full[rows] = s * x
        return s * dsymv(1.0, w.T, full, lower=0)[rows] - _DEFLATION_SHIFT * (top @ x) * top

    m = rows.size
    _, vectors = eigsh(
        LinearOperator((m, m), matvec=deflated, dtype=np.float64),
        k=1, which="LA", v0=np.random.default_rng(0).uniform(-1.0, 1.0, m),
        tol=0.0, rng=np.random.default_rng(0),
    )
    fiedler = np.zeros(len(w))
    fiedler[rows] = vectors[:, 0]
    return fiedler


def spectral_predict(d: DefectDataset) -> Prediction:
    """Connectivity-based clustering (Zhang et al., ICSE 2016).

    W = max(Z Z^T, 0) with a zero diagonal, over the z-scored metric rows Z.
    The scores are the z row sums. The modules are split into two clusters,
    and the cluster with the larger mean score is labelled defective; equal
    means label nothing. The split, by these rules in order:

    1. A module of zero degree (no positive similarity to any other) joins
       neither cluster and is never defective. An all-zero W labels nothing.
    2. If the modules of nonzero degree form more than one connected
       component, the Laplacian's 0 eigenvalue is repeated and the Fiedler
       vector is undefined. The split is then the component of the first
       module of nonzero degree against all other modules of nonzero degree.
    3. Otherwise the Fiedler vector of the normalized Laplacian
       I - D^-1/2 W D^-1/2 splits them: its entries > 0 against its
       entries < 0. An entry of 0 joins neither cluster, so the labels do
       not depend on the eigenvector's sign. An entry counts as 0 when its
       magnitude is at most m * eps times the largest one (m modules of
       nonzero degree, eps the float64 epsilon): below that rounding level,
       e.g. the middle module of a mirror-symmetric path, it has no sign.

    W is the one n x n array, and it is never rescaled: ``eigsh`` takes the
    one eigenpair needed through a matvec that applies D^-1/2 on each side.
    """
    if d.n_modules < 2:
        raise ValueError("spectral clustering needs at least 2 modules")
    z = zscore_apply(zscore_fit(d.values), d.values)
    row_sums = z.sum(axis=1)
    predicted = np.zeros(d.n_modules, dtype=bool)
    w = z @ z.T
    np.maximum(w, 0.0, out=w)
    np.fill_diagonal(w, 0.0)
    degrees = w.sum(axis=1)
    linked = degrees > 0
    if not linked.any():
        return Prediction(row_sums, predicted)
    n_linked = np.count_nonzero(linked)
    side_a = _component_of(w, int(np.argmax(linked)), n_linked)
    if np.count_nonzero(side_a) < n_linked:
        side_b = linked & ~side_a
    else:
        fiedler = _fiedler_vector(w, degrees)
        # the rounding level of the entries: below it an entry has no sign
        floor = n_linked * np.finfo(np.float64).eps * np.abs(fiedler).max()
        side_a = fiedler > floor
        side_b = fiedler < -floor
    if side_a.any() and side_b.any():
        mean_a = row_sums[side_a].mean()
        mean_b = row_sums[side_b].mean()
        if mean_a > mean_b:
            predicted = side_a
        elif mean_b > mean_a:
            predicted = side_b
    return Prediction(row_sums, predicted)


def manual_rank(d: DefectDataset) -> dict[str, Prediction]:
    """Size-only rankings: ``down`` scores by LOC (larger first), ``up`` by
    1/LOC (smaller first); the top half of each stable descending ranking
    (ties keep module order) is labeled defective."""
    loc = d.derived(effort_values)
    rankings = {"down": loc.astype(float), "up": 1.0 / loc}
    return {key: Prediction(s, measures.Ranking(s).top_half) for key, s in rankings.items()}


class BestMetric(NamedTuple):
    metric: str
    predictions: Prediction
    value: float | None


def best_metric_oracle(d: DefectDataset) -> dict[str, BestMetric]:
    """Target-side oracle: for each core measure, the single metric (and
    ranking direction) whose top-half ranking scores best on that measure
    against true labels.

    Both directions are tried per metric because the winning metric is
    direction-dependent; ties fall back to column order with descending
    preferred. A measure undefined on every candidate (e.g. no defective
    modules) keeps the first metric's descending ranking with value None.
    The LOC column is clamped like every effort computation.
    """
    efforts = d.derived(effort_values)
    scorer = measures.RankingScorer(efforts, d.labels)
    best: dict[str, tuple] = {}  # measure -> (quality, metric, scores, predicted, value)
    for name in d.metric_names:
        column = efforts if name == d.loc_metric else d.column(name)
        for scores in (column, -column):
            ranking = measures.Ranking(scores)
            predicted = ranking.top_half
            for measure, value in scorer.score(measures.CORE_MEASURES, ranking, predicted).items():
                if value is None:
                    continue
                quality = measures.oriented(measure, value)
                if quality > best.get(measure, (-np.inf,))[0]:
                    best[measure] = (quality, name, scores, predicted, value)
    first = d.metric_names[0]
    raw = d.column(first)
    fallback = (None, first, raw, measures.Ranking(raw).top_half, None)
    results = {}
    for measure in measures.CORE_MEASURES:
        _, name, scores, predicted, value = best.get(measure, fallback)
        results[measure] = BestMetric(name, Prediction(scores, predicted), value)
    return results
