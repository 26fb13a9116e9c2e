"""Evaluation measures: precision/recall/F1, AUC, and the effort-aware
ACC, PMI, Popt, and IFA.

Effort-aware measures charge inspection cost proportional to module LOC:
modules are visited in score order and the budget is a fraction of the
total effort. The module that would cross the budget is excluded, which
makes ACC and PMI consistent with each other.

``compute_measure_arrays`` is the one implementation: it works on numpy
arrays in target row order. The public functions that take a
``ScoredPrediction`` list and a module-id truth map convert them once and
call the same array code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
from scipy.stats import rankdata

if TYPE_CHECKING:  # only the dataclass type; udp imports this module at runtime
    from .udp import ScoredPrediction

#: Canonical measure order; the first two exist for the satisfactory-ratio
#: analysis, the remaining six are the benchmark's headline measures.
MEASURE_IDS = ("precision", "recall", "f1", "auc", "acc", "popt", "pmi20", "ifa")
CORE_MEASURES = ("f1", "auc", "acc", "popt", "pmi20", "ifa")
HIGHER_IS_BETTER = {
    "precision": True,
    "recall": True,
    "f1": True,
    "auc": True,
    "acc": True,
    "popt": True,
    "pmi20": False,
    "ifa": False,
}


class NoDefects(ValueError):
    """Raised by effort-aware measures when the target has no defective module."""


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True, eq=False)
class EffortCurve:
    """Cumulative effort fractions ``x`` and defect fractions ``y``, from
    (0,0) to (1,1)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise ValueError("curve coordinates must be two equal-length vectors of >= 2 points")
        if (x[0], y[0]) != (0.0, 0.0) or (x[-1], y[-1]) != (1.0, 1.0):
            raise ValueError("curve must run from (0,0) to (1,1)")
        if not (
            np.all(np.diff(x) >= 0)
            and np.all(np.diff(y) >= 0)
            and np.all((x >= 0) & (x <= 1))
            and np.all((y >= 0) & (y <= 1))
        ):
            raise ValueError("curve coordinates must be non-decreasing in [0,1]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.x.tolist(), self.y.tolist()))

    def area(self) -> float:
        return float(np.trapezoid(self.y, self.x))


def _truth_vector(preds: Sequence[ScoredPrediction], truth: Mapping[str, bool]) -> np.ndarray:
    if len(preds) != len(truth):
        raise ValueError(f"{len(preds)} predictions vs {len(truth)} truth labels")
    try:
        return np.array([truth[p.module_id] for p in preds], dtype=bool)
    except KeyError as exc:
        raise ValueError(f"prediction for unknown module id {exc.args[0]!r}") from None


def _prediction_arrays(preds: Sequence[ScoredPrediction]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scores, predicted, efforts) in list order."""
    n = len(preds)
    return (
        np.fromiter((p.score for p in preds), dtype=float, count=n),
        np.fromiter((p.predicted for p in preds), dtype=bool, count=n),
        np.fromiter((p.effort for p in preds), dtype=float, count=n),
    )


# ---------------------------------------------------------------------------
# array code: every argument is a vector in target row order


def _confusion(predicted: np.ndarray, actual: np.ndarray) -> ConfusionMatrix:
    return ConfusionMatrix(
        tp=int(np.sum(predicted & actual)),
        fp=int(np.sum(predicted & ~actual)),
        tn=int(np.sum(~predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
    )


def _check_efforts(efforts: np.ndarray) -> None:
    if np.any(efforts <= 0):
        raise ValueError("efforts must be positive")


def _by_score(scores: np.ndarray) -> np.ndarray:
    """Indices by score descending; ties keep module order."""
    return np.argsort(-scores, kind="stable")


def _effort_curve(
    scores: np.ndarray, efforts: np.ndarray, actual: np.ndarray, ordering: str
) -> EffortCurve:
    _check_efforts(efforts)
    n_defective = int(actual.sum())
    if n_defective == 0:
        raise NoDefects("effort curve needs at least one defective module")
    if ordering == "by_score":
        order = _by_score(scores)
    elif ordering in ("optimal", "worst"):
        density = actual / efforts
        # lexsort sorts by its last key first and is stable
        if ordering == "optimal":
            order = np.lexsort((efforts, -density))
        else:
            order = np.lexsort((-efforts, density))
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    # cumsum adds left to right, so each point is the running sum of the
    # ranked efforts; running float sums can overshoot 1 by an ulp before
    # the last point
    x = np.concatenate(([0.0], np.minimum(1.0, np.cumsum(efforts[order]) / efforts.sum())))
    y = np.concatenate(([0.0], np.minimum(1.0, np.cumsum(actual[order]) / n_defective)))
    x[-1] = y[-1] = 1.0
    return EffortCurve(x, y)


def _popt(scores: np.ndarray, efforts: np.ndarray, actual: np.ndarray) -> float:
    area_m = _effort_curve(scores, efforts, actual, "by_score").area()
    area_opt = _effort_curve(scores, efforts, actual, "optimal").area()
    area_worst = _effort_curve(scores, efforts, actual, "worst").area()
    denom = area_opt - area_worst
    if denom <= 0:
        return 1.0
    value = 1.0 - (area_opt - area_m) / denom
    return min(1.0, max(0.0, value))


def _inspected(scores: np.ndarray, efforts: np.ndarray, effort_fraction: float) -> np.ndarray:
    """Ranked indices inspectable within the budget; the module crossing it is excluded."""
    if not 0 < effort_fraction <= 1:
        raise ValueError("effort fraction must be in (0, 1]")
    _check_efforts(efforts)
    order = _by_score(scores)
    budget = effort_fraction * float(efforts.sum()) * (1 + 1e-9)
    # positive efforts make the running total increasing, so the prefix
    # ends before the first running total above the budget
    return order[: np.searchsorted(np.cumsum(efforts[order]), budget, side="right")]


def _acc(scores: np.ndarray, efforts: np.ndarray, actual: np.ndarray, effort_fraction: float) -> float:
    n_defective = int(actual.sum())
    if n_defective == 0:
        raise NoDefects("ACC needs at least one defective module")
    return int(actual[_inspected(scores, efforts, effort_fraction)].sum()) / n_defective


def _pmi(scores: np.ndarray, efforts: np.ndarray, effort_fraction: float) -> float:
    return len(_inspected(scores, efforts, effort_fraction)) / len(scores)


def _ifa(scores: np.ndarray, actual: np.ndarray) -> int:
    if not actual.any():
        raise NoDefects("IFA needs at least one defective module")
    return int(np.argmax(actual[_by_score(scores)]))


def compute_measure_arrays(
    measure: str,
    scores: np.ndarray,
    predicted: np.ndarray,
    efforts: np.ndarray,
    actual: np.ndarray,
    effort_fraction: float = 0.2,
) -> tuple[float | None, str | None]:
    """Evaluate one measure on per-module arrays in target row order:
    float scores, bool predictions, positive float efforts and bool truth.
    Undefined cases yield (None, reason)."""
    if measure in ("precision", "recall", "f1"):
        return prf1(_confusion(predicted, actual))[measure], None
    if measure == "auc":
        value = auc(scores, actual)
        return (value, None) if value is not None else (None, "SingleClassTruth")
    try:
        if measure == "acc":
            return _acc(scores, efforts, actual, effort_fraction), None
        if measure == "popt":
            return _popt(scores, efforts, actual), None
        if measure == "pmi20":
            return _pmi(scores, efforts, effort_fraction), None
        if measure == "ifa":
            return float(_ifa(scores, actual)), None
    except NoDefects:
        return None, "NoDefects"
    raise ValueError(f"unknown measure {measure!r}")


# ---------------------------------------------------------------------------
# list-and-truth-map API


def confusion(preds: Sequence[ScoredPrediction], truth: Mapping[str, bool]) -> ConfusionMatrix:
    """Counts with defective as the positive class, aligned by module id."""
    actual = _truth_vector(preds, truth)
    _, predicted, _ = _prediction_arrays(preds)
    return _confusion(predicted, actual)


def prf1(cm: ConfusionMatrix) -> dict[str, float]:
    """Precision, recall, and their harmonic mean; any 0/0 is defined as 0."""
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def auc(scores: Sequence[float], truth: Sequence[bool]) -> float | None:
    """Rank-based AUC: P(positive scored above negative), ties counted 0.5.

    Returns None when only one class is present.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(truth, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = rankdata(scores)  # tied scores share the average rank
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def effort_curve(
    preds: Sequence[ScoredPrediction],
    truth: Mapping[str, bool],
    ordering: str = "by_score",
) -> EffortCurve:
    """Cumulative defect-discovery curve over cumulative inspection effort.

    ``optimal`` sorts by actual defect density (label/effort) descending with
    smaller effort first on ties; ``worst`` is the ascending mirror, larger
    effort first on ties; ``by_score`` follows the prediction ranking, score
    descending with ties in module order.
    """
    actual = _truth_vector(preds, truth)
    scores, _, efforts = _prediction_arrays(preds)
    return _effort_curve(scores, efforts, actual, ordering)


def popt(preds: Sequence[ScoredPrediction], truth: Mapping[str, bool]) -> float:
    """Normalized effort-aware indicator in [0, 1].

    1 - (area(optimal) - area(method)) / (area(optimal) - area(worst)),
    with trapezoid areas; degenerate equal optimal/worst areas give 1.
    """
    actual = _truth_vector(preds, truth)
    scores, _, efforts = _prediction_arrays(preds)
    return _popt(scores, efforts, actual)


def acc_at(
    preds: Sequence[ScoredPrediction],
    truth: Mapping[str, bool],
    effort_fraction: float = 0.2,
) -> float:
    """Recall of defective modules within the given fraction of total effort."""
    actual = _truth_vector(preds, truth)
    scores, _, efforts = _prediction_arrays(preds)
    return _acc(scores, efforts, actual, effort_fraction)


def pmi_at(preds: Sequence[ScoredPrediction], effort_fraction: float = 0.2) -> float:
    """Proportion of modules inspected within the given fraction of total effort."""
    scores, _, efforts = _prediction_arrays(preds)
    return _pmi(scores, efforts, effort_fraction)


def ifa(preds: Sequence[ScoredPrediction], truth: Mapping[str, bool]) -> int:
    """Non-defective modules ranked before the first defective one."""
    actual = _truth_vector(preds, truth)
    scores, _, _ = _prediction_arrays(preds)
    return _ifa(scores, actual)


def compute_measure(
    measure: str,
    preds: Sequence[ScoredPrediction],
    truth: Mapping[str, bool],
    effort_fraction: float = 0.2,
) -> tuple[float | None, str | None]:
    """Evaluate one measure; undefined cases yield (None, reason)."""
    actual = _truth_vector(preds, truth)
    scores, predicted, efforts = _prediction_arrays(preds)
    return compute_measure_arrays(measure, scores, predicted, efforts, actual, effort_fraction)
