"""Evaluation measures: precision/recall/F1, AUC, and the effort-aware
ACC, PMI, Popt, and IFA.

Effort-aware measures charge inspection cost proportional to module LOC:
modules are visited in score order (``Ranking.order``) and the budget is
``EFFORT_FRACTION`` of the total effort. The module that would cross the
budget is excluded, which makes ACC and PMI consistent with each other.

Every function takes per-module vectors in target row order: float
``scores`` (higher means inspect earlier), bool ``predicted`` flags,
positive, finite float ``efforts`` and bool ``actual`` truth. Vectors of
unequal length, and NaN scores, are rejected. ``Ranking`` sorts one score
vector. ``RankingScorer``, a target's checked record, holds the one rule
and the one input check of every measure: its ``score``, the one
dispatch over measure ids, gives each requested measure of one ``Ranking``
and predicted flags, None where undefined. ``compute_measure`` reads one value from it, ``auc`` and the
effort-aware functions call ``compute_measure``, and bestmetric scores each
candidate ranking of a target with one record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

#: Canonical measure order; the first two exist for the satisfactory-ratio
#: analysis, the remaining six are the benchmark's headline measures.
MEASURE_IDS = ("precision", "recall", "f1", "auc", "acc", "popt", "pmi20", "ifa")
CORE_MEASURES = ("f1", "auc", "acc", "popt", "pmi20", "ifa")
#: The inspection budget of ACC and PMI@20%, as a fraction of total effort
EFFORT_FRACTION = 0.2


def oriented(measure: str, values):
    """``values`` (a float or an array) of ``measure`` turned so that larger is
    better: negated for pmi20 and ifa, unchanged for every other measure."""
    return -values if measure in ("pmi20", "ifa") else values


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


def _vectors(*columns: tuple[Sequence, type]) -> tuple[np.ndarray, ...]:
    """Each (values, dtype) pair as a 1-d array; all must have one length,
    since numpy would broadcast a length-1 vector against a length-n one."""
    arrays = tuple([np.asarray(values, dtype=dtype) for values, dtype in columns])
    if arrays[0].ndim != 1 or len({a.shape for a in arrays}) > 1:
        raise ValueError(
            f"per-module vectors must be 1-d and of equal length, got shapes "
            f"{[a.shape for a in arrays]}"
        )
    return arrays


def confusion(predicted: Sequence[bool], actual: Sequence[bool]) -> ConfusionMatrix:
    """Counts with defective as the positive class."""
    predicted, actual = _vectors((predicted, bool), (actual, bool))
    tp = int(np.count_nonzero(predicted & actual))
    n_flagged, n_pos = int(np.count_nonzero(predicted)), int(np.count_nonzero(actual))
    return ConfusionMatrix(tp, n_flagged - tp, len(actual) - n_flagged - n_pos + tp, n_pos - tp)


def prf1(cm: ConfusionMatrix) -> dict[str, float]:
    """Precision, recall, and their harmonic mean; any 0/0 is defined as 0."""
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


class Ranking:
    """One score vector's ranking of the modules, and the one place it is
    sorted: ``order``, ``ranks`` and ``top_half`` derive from one stable sort."""

    def __init__(self, scores: Sequence[float]):
        self.scores = np.asarray(scores, dtype=float)
        if np.isnan(self.scores).any():
            raise ValueError("prediction scores must not be NaN")

    @cached_property
    def order(self) -> np.ndarray:
        """Module indices by score descending; ties keep module order."""
        return np.argsort(-self.scores, kind="stable")

    @cached_property
    def ranks(self) -> np.ndarray:
        """1-based ascending ranks as ``scipy.stats.rankdata`` gives them: a
        run of ties at descending positions [s, e) of n values ranks
        (2n - s - e + 1) / 2, a multiple of 1/2 and so exact."""
        n = len(self.scores)
        ordered = self.scores[self.order]
        starts = np.flatnonzero(np.concatenate(([n > 0], ordered[1:] != ordered[:-1])))
        ends = np.append(starts[1:], n)
        ranks = np.empty(n)
        ranks[self.order] = np.repeat((2 * n - starts - ends + 1) / 2, ends - starts)
        return ranks

    @cached_property
    def top_half(self) -> np.ndarray:
        """Defective flags for the first ceil(n/2) modules of ``order``."""
        predicted = np.zeros(len(self.scores), dtype=bool)
        predicted[self.order[: (len(self.scores) + 1) // 2]] = True
        return predicted


def auc(scores: Sequence[float], actual: Sequence[bool]) -> float | None:
    """Rank-based AUC: P(positive scored above negative), ties counted 0.5;
    None when only one class is present."""
    # AUC never reads the efforts or the predicted flags
    return compute_measure("auc", scores, actual, np.ones_like(scores, dtype=float), actual)[0]


def _effort_aware(
    measure: str, scores: Sequence[float], efforts: Sequence[float], actual: Sequence[bool]
) -> float:
    value, _ = compute_measure(measure, scores, actual, efforts, actual)
    if value is None:
        raise NoDefects(f"{measure.upper()} needs at least one defective module")
    return value


def popt(scores: Sequence[float], efforts: Sequence[float], actual: Sequence[bool]) -> float:
    """Normalized effort-aware indicator in [0, 1].

    1 - (area(optimal) - area(method)) / (area(optimal) - area(worst)),
    with trapezoid areas; degenerate equal optimal/worst areas give 1.
    """
    return _effort_aware("popt", scores, efforts, actual)


def acc_at(scores: Sequence[float], efforts: Sequence[float], actual: Sequence[bool]) -> float:
    """Recall of defective modules within ``EFFORT_FRACTION`` of total effort."""
    return _effort_aware("acc", scores, efforts, actual)


def pmi_at(scores: Sequence[float], efforts: Sequence[float]) -> float:
    """Proportion of modules inspected within ``EFFORT_FRACTION`` of total effort."""
    # PMI never reads the truth
    return _effort_aware("pmi20", scores, efforts, np.zeros_like(scores, dtype=bool))


def ifa(scores: Sequence[float], actual: Sequence[bool]) -> int:
    """Non-defective modules ranked before the first defective one."""
    # IFA never reads the efforts
    return int(_effort_aware("ifa", scores, np.ones_like(scores, dtype=float), actual))


def compute_measure(
    measure: str, scores: Sequence[float], predicted: Sequence[bool],
    efforts: Sequence[float], actual: Sequence[bool]
) -> tuple[float | None, str | None]:
    """Evaluate one measure on per-module vectors in target row order: one
    ``RankingScorer.score`` call, whose record checks the efforts and the
    truth and whose ``score`` checks the lengths of the scores and the
    predicted flags. Undefined cases yield (None, reason)."""
    value = RankingScorer(efforts, actual).score((measure,), Ranking(scores), predicted)[measure]
    if value is None:
        return None, "SingleClassTruth" if measure == "auc" else "NoDefects"
    return value, None


class _Ranked(NamedTuple):
    """A ranking's truth flags, their and its efforts' running sums, and
    the length of its prefix that fits the inspection budget."""

    actual: np.ndarray
    cum_defects: np.ndarray
    cum_efforts: np.ndarray
    n_inspected: int


class RankingScorer:
    """One target's record, and the one implementation of every rule that
    scores a prediction of its modules: ``score`` is the one dispatch over
    measure ids, and holds each measure's rule.

    The constructor checks the efforts (positive and finite) and the truth
    (at least one module), and keeps the totals and the inspection budget.
    The optimal and worst P_opt areas ignore the scores; they are computed
    on first use. ACC, P_opt, PMI and IFA all read one ranking's running sums.
    """

    def __init__(self, efforts: Sequence[float], actual: Sequence[bool]):
        self.efforts, self.actual = _vectors((efforts, float), (actual, bool))
        if not len(self.actual):
            raise ValueError("per-module vectors must not be empty")
        if not ((self.efforts > 0) & (self.efforts < np.inf)).all():  # NaN fails both
            raise ValueError("efforts must be positive and finite")
        self.positives = np.flatnonzero(self.actual)  # an index array reads faster than a mask
        self.n_pos = len(self.positives)
        self.n_neg = len(self.actual) - self.n_pos
        self.total_effort = self.efforts.sum()
        # a relative slack of 1e-9 keeps rounding from excluding a module
        # that fits the budget exactly
        self.budget = EFFORT_FRACTION * float(self.total_effort) * (1 + 1e-9)

    def score(
        self, measure_ids: Sequence[str], ranking: Ranking, predicted: np.ndarray
    ) -> dict[str, float | None]:
        """The measures ``measure_ids`` of one prediction, in that order,
        None where undefined. ``ranking`` ranks the modules and ``predicted``
        flags the modules labelled defective; each must have one entry per
        module of the record. Each input of a rule (confusion counts, the
        average ranks, the order and its running sums) is computed only if a
        measure needs it."""
        if ranking.scores.shape != self.actual.shape or np.shape(predicted) != self.actual.shape:
            raise ValueError(
                f"a record of {len(self.actual)} modules cannot score a ranking of shape "
                f"{ranking.scores.shape} and flags of shape {np.shape(predicted)}")
        values: dict[str, float | None] = {}
        counts = ranked = None
        for measure in measure_ids:
            if measure in ("precision", "recall", "f1"):
                counts = counts or prf1(confusion(predicted, self.actual))
                values[measure] = counts[measure]
            elif measure == "auc":  # Mann-Whitney; a tie shares its rank, so it counts 0.5
                n, pairs = self.n_pos, self.n_pos * self.n_neg
                values[measure] = float((ranking.ranks[self.positives].sum() - n * (n + 1) / 2)
                                        / pairs) if pairs else None
            elif measure in ("acc", "popt", "pmi20", "ifa"):
                ranked = ranked or self._ranked(ranking.order)
                if measure == "pmi20":
                    values[measure] = ranked.n_inspected / len(ranked.actual)
                elif not self.n_pos:  # the other three need a defective module
                    values[measure] = None
                elif measure == "popt":
                    area_opt, area_worst = self._extreme_areas
                    denom = area_opt - area_worst
                    values[measure] = 1.0 if denom <= 0 else min(
                        1.0, max(0.0, 1.0 - (area_opt - self._area(ranked)) / denom))
                elif measure == "acc":
                    found = int(ranked.cum_defects[ranked.n_inspected - 1]) if ranked.n_inspected else 0
                    values[measure] = found / self.n_pos
                else:  # ifa
                    values[measure] = float(ranked.actual.argmax())
            else:
                raise ValueError(f"unknown measure {measure!r}")
        return values

    def _ranked(self, order: np.ndarray) -> _Ranked:
        # cumsum adds in ranking order; positive efforts make it increasing, so the
        # inspected prefix ends before the first running total above the budget.
        # Array methods skip the np.* wrappers, whose dispatch outweighs small work
        actual, cum_efforts = self.actual[order], self.efforts[order].cumsum()
        n_inspected = int(cum_efforts.searchsorted(self.budget, side="right"))
        return _Ranked(actual, actual.cumsum(), cum_efforts, n_inspected)

    def _extreme_order(self, ordering: str) -> np.ndarray:
        """The ``optimal`` ranking, by defect density (label / effort)
        descending with smaller effort first on ties, or else the ``worst``
        one: density ascending, larger effort first on ties."""
        density = self.actual / self.efforts
        # lexsort sorts by its last key first and is stable
        if ordering == "optimal":
            return np.lexsort((self.efforts, -density))
        return np.lexsort((-self.efforts, density))

    @cached_property
    def _extreme_areas(self) -> tuple[float, float]:
        return tuple(self._area(self._ranked(self._extreme_order(o))) for o in ("optimal", "worst"))

    def _curve(self, ranked: _Ranked) -> tuple[np.ndarray, np.ndarray]:
        """The effort curve's x and y."""
        if not self.n_pos:
            raise NoDefects("effort curve needs at least one defective module")
        # running float sums can overshoot 1 by an ulp before the last point
        x = np.concatenate(([0.0], np.minimum(1.0, ranked.cum_efforts / self.total_effort)))
        y = np.concatenate(([0.0], np.minimum(1.0, ranked.cum_defects / self.n_pos)))
        x[-1] = y[-1] = 1.0
        return x, y

    def _area(self, ranked: _Ranked) -> float:
        x, y = self._curve(ranked)
        return float(np.trapezoid(y, x))
