"""Loop implementations of the eight measures, kept as reference oracles.

These are the pure-Python versions that ``hdpbench.measures`` replaced
with numpy array code. The array code adds efforts in the same order,
sorts with the same tie rules and computes exact half-integer ranks, so
tests compare the two with ``==``, not with a tolerance. Inputs are
per-module arrays in row order: scores, predicted flags, efforts, truth.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from hdpbench.measures import ConfusionMatrix, NoDefects, prf1


def score_order(scores: np.ndarray) -> list[int]:
    """Indices sorted by score descending, stable on the original module order."""
    return sorted(range(len(scores)), key=lambda i: -scores[i])


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the group average; as with
    ``scipy.stats.rankdata``, any NaN makes every rank NaN."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(len(values), np.nan)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def auc(scores: Sequence[float], truth: Sequence[bool]) -> float | None:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(truth, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = average_ranks(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def effort_curve_points(
    scores: np.ndarray, efforts: np.ndarray, actual: np.ndarray, ordering: str
) -> tuple[tuple[float, float], ...]:
    n_defective = int(actual.sum())
    if n_defective == 0:
        raise NoDefects("effort curve needs at least one defective module")
    density = actual / efforts
    if ordering == "by_score":
        order = score_order(scores)
    elif ordering == "optimal":
        order = sorted(range(len(scores)), key=lambda i: (-density[i], efforts[i]))
    else:
        order = sorted(range(len(scores)), key=lambda i: (density[i], -efforts[i]))
    total_effort = float(efforts.sum())
    points = [(0.0, 0.0)]
    cum_effort = 0.0
    cum_defects = 0
    for i in order:
        cum_effort += efforts[i]
        cum_defects += int(actual[i])
        points.append((min(1.0, cum_effort / total_effort), min(1.0, cum_defects / n_defective)))
    points[-1] = (1.0, 1.0)
    return tuple(points)


def area(points: Sequence[tuple[float, float]]) -> float:
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    return float(np.trapezoid(ys, xs))


def popt(scores: np.ndarray, efforts: np.ndarray, actual: np.ndarray) -> float:
    area_m = area(effort_curve_points(scores, efforts, actual, "by_score"))
    area_opt = area(effort_curve_points(scores, efforts, actual, "optimal"))
    area_worst = area(effort_curve_points(scores, efforts, actual, "worst"))
    denom = area_opt - area_worst
    if denom <= 0:
        return 1.0
    return min(1.0, max(0.0, 1.0 - (area_opt - area_m) / denom))


def inspected_prefix(scores: np.ndarray, efforts: np.ndarray, effort_fraction: float) -> list[int]:
    """Ranked indices inspectable within the budget; the module crossing it is excluded."""
    budget = effort_fraction * float(efforts.sum()) * (1 + 1e-9)
    inspected = []
    spent = 0.0
    for i in score_order(scores):
        if spent + efforts[i] > budget:
            break
        spent += efforts[i]
        inspected.append(i)
    return inspected


def compute_measure(
    measure: str,
    scores: np.ndarray,
    predicted: np.ndarray,
    efforts: np.ndarray,
    actual: np.ndarray,
    effort_fraction: float = 0.2,
) -> tuple[float | None, str | None]:
    if measure in ("precision", "recall", "f1"):
        cm = ConfusionMatrix(
            tp=int(np.sum(predicted & actual)),
            fp=int(np.sum(predicted & ~actual)),
            tn=int(np.sum(~predicted & ~actual)),
            fn=int(np.sum(~predicted & actual)),
        )
        return prf1(cm)[measure], None
    if measure == "auc":
        value = auc(scores, actual)
        return (value, None) if value is not None else (None, "SingleClassTruth")
    if measure == "pmi20":
        return len(inspected_prefix(scores, efforts, effort_fraction)) / len(scores), None
    if not actual.any():
        return None, "NoDefects"
    if measure == "acc":
        found = sum(int(actual[i]) for i in inspected_prefix(scores, efforts, effort_fraction))
        return found / int(actual.sum()), None
    if measure == "popt":
        return popt(scores, efforts, actual), None
    if measure == "ifa":
        count = 0
        for i in score_order(scores):
            if actual[i]:
                break
            count += 1
        return float(count), None
    raise ValueError(f"unknown measure {measure!r}")
