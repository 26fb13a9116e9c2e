"""Evaluation measures: precision/recall/F1, AUC, and the effort-aware
ACC, PMI, Popt, and IFA.

Effort-aware measures charge inspection cost proportional to module LOC:
modules are visited in score order and the budget is a fraction of the
total effort. The module that would cross the budget is excluded, which
makes ACC and PMI consistent with each other.

Every function takes per-module vectors in target row order: float
``scores`` (higher means inspect earlier), bool ``predicted`` flags,
positive float ``efforts`` and bool ``actual`` truth. Vectors of unequal
length are rejected rather than broadcast. ``compute_measure`` evaluates
one measure by id and turns undefined cases into absent values.
``RankingScorer`` scores many rankings of one target on the six core
measures, with one ordering per ranking and the target's totals computed
once; it adds in the same order as the per-measure functions, so both give
the same floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stats import average_ranks

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


def _vectors(*columns: tuple[Sequence, type]) -> tuple[np.ndarray, ...]:
    """Each (values, dtype) pair as a 1-d array; all must have one length,
    since numpy would broadcast a length-1 vector against a length-n one."""
    arrays = tuple(np.asarray(values, dtype=dtype) for values, dtype in columns)
    if any(a.ndim != 1 for a in arrays) or len({len(a) for a in arrays}) > 1:
        raise ValueError(
            f"per-module vectors must be 1-d and of equal length, got shapes "
            f"{[a.shape for a in arrays]}"
        )
    return arrays


def confusion(predicted: Sequence[bool], actual: Sequence[bool]) -> ConfusionMatrix:
    """Counts with defective as the positive class."""
    predicted, actual = _vectors((predicted, bool), (actual, bool))
    return ConfusionMatrix(
        tp=int(np.sum(predicted & actual)),
        fp=int(np.sum(predicted & ~actual)),
        tn=int(np.sum(~predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
    )


def prf1(cm: ConfusionMatrix) -> dict[str, float]:
    """Precision, recall, and their harmonic mean; any 0/0 is defined as 0."""
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def auc(scores: Sequence[float], actual: Sequence[bool]) -> float | None:
    """Rank-based AUC: P(positive scored above negative), ties counted 0.5.

    Returns None when only one class is present.
    """
    scores, labels = _vectors((scores, float), (actual, bool))
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    return _auc_from_ranks(average_ranks(scores), labels, n_pos, n_neg)


def _auc_from_ranks(ranks: np.ndarray, labels: np.ndarray, n_pos: int, n_neg: int) -> float:
    """Mann-Whitney AUC from average ranks (ascending in score); tied
    scores share a rank, so a tie counts 0.5."""
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _check_efforts(efforts: np.ndarray) -> None:
    if np.any(efforts <= 0):
        raise ValueError("efforts must be positive")


def _by_score(scores: np.ndarray) -> np.ndarray:
    """Indices by score descending; ties keep module order."""
    return np.argsort(-scores, kind="stable")


def effort_curve(
    scores: Sequence[float],
    efforts: Sequence[float],
    actual: Sequence[bool],
    ordering: str = "by_score",
) -> EffortCurve:
    """Cumulative defect-discovery curve over cumulative inspection effort.

    ``optimal`` sorts by actual defect density (label/effort) descending with
    smaller effort first on ties; ``worst`` is the ascending mirror, larger
    effort first on ties; ``by_score`` follows the prediction ranking, score
    descending with ties in module order.
    """
    scores, efforts, actual = _vectors((scores, float), (efforts, float), (actual, bool))
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
    return EffortCurve(*_curve_points(
        np.cumsum(efforts[order]), efforts.sum(), np.cumsum(actual[order]), n_defective
    ))


def _curve_points(
    cum_efforts: np.ndarray, total_effort: float, cum_defects: np.ndarray, n_defective: int
) -> tuple[np.ndarray, np.ndarray]:
    """An effort curve's x and y from the running sums of the ranked
    efforts and defect flags."""
    # cumsum adds left to right, so each point is the running sum of the
    # ranked efforts; running float sums can overshoot 1 by an ulp before
    # the last point
    x = np.concatenate(([0.0], np.minimum(1.0, cum_efforts / total_effort)))
    y = np.concatenate(([0.0], np.minimum(1.0, cum_defects / n_defective)))
    x[-1] = y[-1] = 1.0
    return x, y


def popt(scores: Sequence[float], efforts: Sequence[float], actual: Sequence[bool]) -> float:
    """Normalized effort-aware indicator in [0, 1].

    1 - (area(optimal) - area(method)) / (area(optimal) - area(worst)),
    with trapezoid areas; degenerate equal optimal/worst areas give 1.
    """
    area_m = effort_curve(scores, efforts, actual, "by_score").area()
    area_opt = effort_curve(scores, efforts, actual, "optimal").area()
    area_worst = effort_curve(scores, efforts, actual, "worst").area()
    return _popt_from_areas(area_m, area_opt, area_worst)


def _popt_from_areas(area_m: float, area_opt: float, area_worst: float) -> float:
    denom = area_opt - area_worst
    if denom <= 0:
        return 1.0
    value = 1.0 - (area_opt - area_m) / denom
    return min(1.0, max(0.0, value))


def _check_fraction(effort_fraction: float) -> None:
    if not 0 < effort_fraction <= 1:
        raise ValueError("effort fraction must be in (0, 1]")


def _budget(efforts: np.ndarray, effort_fraction: float) -> float:
    """The effort inspectable within the fraction, with a relative slack
    of 1e-9 so that rounding does not exclude a module that fits exactly."""
    return effort_fraction * float(efforts.sum()) * (1 + 1e-9)


def _inspected(scores: np.ndarray, efforts: np.ndarray, effort_fraction: float) -> np.ndarray:
    """Ranked indices inspectable within the budget; the module crossing it is excluded."""
    _check_fraction(effort_fraction)
    _check_efforts(efforts)
    order = _by_score(scores)
    return order[: _n_inspected(np.cumsum(efforts[order]), _budget(efforts, effort_fraction))]


def _n_inspected(cum_efforts: np.ndarray, budget: float) -> int:
    """Length of the ranked prefix that fits the budget."""
    # positive efforts make the running total increasing, so the prefix
    # ends before the first running total above the budget
    return int(np.searchsorted(cum_efforts, budget, side="right"))


def acc_at(
    scores: Sequence[float],
    efforts: Sequence[float],
    actual: Sequence[bool],
    effort_fraction: float = 0.2,
) -> float:
    """Recall of defective modules within the given fraction of total effort."""
    scores, efforts, actual = _vectors((scores, float), (efforts, float), (actual, bool))
    n_defective = int(actual.sum())
    if n_defective == 0:
        raise NoDefects("ACC needs at least one defective module")
    return int(actual[_inspected(scores, efforts, effort_fraction)].sum()) / n_defective


def pmi_at(scores: Sequence[float], efforts: Sequence[float], effort_fraction: float = 0.2) -> float:
    """Proportion of modules inspected within the given fraction of total effort."""
    scores, efforts = _vectors((scores, float), (efforts, float))
    return len(_inspected(scores, efforts, effort_fraction)) / len(scores)


def ifa(scores: Sequence[float], actual: Sequence[bool]) -> int:
    """Non-defective modules ranked before the first defective one."""
    scores, actual = _vectors((scores, float), (actual, bool))
    if not actual.any():
        raise NoDefects("IFA needs at least one defective module")
    return int(np.argmax(actual[_by_score(scores)]))


def compute_measure(
    measure: str,
    scores: Sequence[float],
    predicted: Sequence[bool],
    efforts: Sequence[float],
    actual: Sequence[bool],
    effort_fraction: float = 0.2,
) -> tuple[float | None, str | None]:
    """Evaluate one measure on per-module vectors in target row order.
    Efforts must be positive for every measure. Undefined cases yield
    (None, reason)."""
    scores, predicted, efforts, actual = _vectors(
        (scores, float), (predicted, bool), (efforts, float), (actual, bool)
    )
    _check_efforts(efforts)
    if measure in ("precision", "recall", "f1"):
        return prf1(confusion(predicted, actual))[measure], None
    if measure == "auc":
        value = auc(scores, actual)
        return (value, None) if value is not None else (None, "SingleClassTruth")
    try:
        if measure == "acc":
            return acc_at(scores, efforts, actual, effort_fraction), None
        if measure == "popt":
            return popt(scores, efforts, actual), None
        if measure == "pmi20":
            return pmi_at(scores, efforts, effort_fraction), None
        if measure == "ifa":
            return float(ifa(scores, actual)), None
    except NoDefects:
        return None, "NoDefects"
    raise ValueError(f"unknown measure {measure!r}")


class RankingScorer:
    """Scores rankings of one target on the six core measures.

    The target's efforts and truth, their totals, the inspection budget and
    the optimal and worst P_opt areas are computed once, at construction.
    ``score`` then reads F1, ACC, P_opt, PMI and IFA from one ordering of the
    modules and AUC from their average ranks, with the same arithmetic, in
    the same order, as ``compute_measure``.
    """

    def __init__(self, efforts: Sequence[float], actual: Sequence[bool], effort_fraction: float = 0.2):
        self.efforts, self.actual = _vectors((efforts, float), (actual, bool))
        _check_efforts(self.efforts)
        _check_fraction(effort_fraction)
        self.n_pos = int(self.actual.sum())
        self.n_neg = len(self.actual) - self.n_pos
        self.total_effort = self.efforts.sum()
        self.budget = _budget(self.efforts, effort_fraction)
        if self.n_pos:  # the optimal and worst orderings ignore the scores
            self.area_opt = effort_curve(self.efforts, self.efforts, self.actual, "optimal").area()
            self.area_worst = effort_curve(self.efforts, self.efforts, self.actual, "worst").area()

    def score(self, order: np.ndarray, ranks: np.ndarray, n_flagged: int) -> dict[str, float | None]:
        """The core measures of one ranking, None where undefined.

        ``order`` visits the modules by score descending, ties in module
        order; ``ranks`` are the scores' average ranks, ascending; the first
        ``n_flagged`` modules of ``order`` are the ones labelled defective.
        """
        n, n_pos = len(order), self.n_pos
        ranked_actual = self.actual[order]
        cum_defects = np.cumsum(ranked_actual)
        cum_efforts = np.cumsum(self.efforts[order])
        tp = int(cum_defects[n_flagged - 1]) if n_flagged else 0
        fn = n_pos - tp
        cm = ConfusionMatrix(tp=tp, fp=n_flagged - tp, tn=n - n_flagged - fn, fn=fn)
        n_inspected = _n_inspected(cum_efforts, self.budget)
        values: dict[str, float | None] = dict.fromkeys(CORE_MEASURES)
        values["f1"] = prf1(cm)["f1"]
        values["pmi20"] = n_inspected / n
        if self.n_neg and n_pos:
            values["auc"] = _auc_from_ranks(ranks, self.actual, n_pos, self.n_neg)
        if n_pos:
            values["acc"] = (int(cum_defects[n_inspected - 1]) if n_inspected else 0) / n_pos
            x, y = _curve_points(cum_efforts, self.total_effort, cum_defects, n_pos)
            values["popt"] = _popt_from_areas(
                float(np.trapezoid(y, x)), self.area_opt, self.area_worst
            )
            values["ifa"] = float(np.argmax(ranked_actual))
        return values
