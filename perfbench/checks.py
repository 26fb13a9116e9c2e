"""Correctness checks on an exported results directory.

The checks read the files the program wrote, not its in-memory objects, so a
corrupted row on disk fails them. Each check returns a list of problems; an
empty list means the outputs are correct.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
from pathlib import Path

METHODS = ("hdp1", "hdp5", "cla", "clami", "spectral", "manual", "bestmetric")
MEASURES = ("precision", "recall", "f1", "auc", "acc", "popt", "pmi20", "ifa")
UNIT_RANGE = ("precision", "recall", "f1", "auc", "acc", "popt", "pmi20")
LABEL_COLUMN = "bug"


def expected_plans(manifest: Path) -> int:
    """Ordered (source, target) pairs whose metric-name sets differ, read
    from the generated CSV headers."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(manifest.read_text())
    metric_sets = []
    for section in parser.sections():
        for name in parser[section].get("files", "").replace(",", " ").split():
            with (manifest.parent / name).open(newline="") as fh:
                header = next(csv.reader(fh))
            if header[-1] != LABEL_COLUMN:
                raise ValueError(f"{name}: last column is not {LABEL_COLUMN!r}")
            metric_sets.append(frozenset(header[:-1]))
    return sum(a != b for a in metric_sets for b in metric_sets)


def _target_sizes(out_dir: Path) -> dict[str, int]:
    with (out_dir / "targets.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {row["target"]: len(row["labels"]) for row in rows}


def check_results(out_dir: Path, n_plans: int) -> tuple[list[str], int, int]:
    """Check ``results.csv``; returns (problems, cells attempted, error cells).

    A cell is one (method, plan) pair. Its failure is an error when the
    recorded reason starts with ``error:``; NoMatchedMetrics and undefined
    measures are method outcomes, not errors.
    """
    problems: list[str] = []
    sizes = _target_sizes(out_dir)
    with (out_dir / "results.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected_rows = n_plans * len(METHODS) * len(MEASURES)
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} result rows, expected {n_plans} plans x "
                        f"{len(METHODS)} methods x {len(MEASURES)} measures = {expected_rows}")
    cells: dict[tuple[str, str, str], bool] = {}
    for line, row in enumerate(rows, start=2):
        key = (row["method"], row["source"], row["target"])
        failure = row["failure"]
        cells[key] = cells.get(key, False) or failure.startswith("error:")
        problem = _row_problem(row, sizes)
        if problem:
            problems.append(f"results.csv line {line}: {problem}")
    if len(cells) != n_plans * len(METHODS):
        problems.append(f"{len(cells)} (method, plan) cells, expected {n_plans * len(METHODS)}")
    return problems, len(cells), sum(cells.values())


def _row_problem(row: dict[str, str], sizes: dict[str, int]) -> str | None:
    measure, raw, failure = row["measure"], row["value"], row["failure"]
    if row["method"] not in METHODS:
        return f"unknown method {row['method']!r}"
    if measure not in MEASURES:
        return f"unknown measure {measure!r}"
    if row["target"] not in sizes:
        return f"target {row['target']!r} missing from targets.csv"
    if raw == "":
        return None if failure else "value absent without a failure reason"
    if failure:
        return f"value {raw} present with failure {failure!r}"
    try:
        value = float(raw)
    except ValueError:
        return f"value {raw!r} is not a number"
    if measure in UNIT_RANGE:
        high = 1.0
    else:  # ifa: non-defective modules ranked before the first defective one
        high = sizes[row["target"]] - 1
        if value != int(value):
            return f"ifa {raw} is not a whole number"
    if not 0.0 <= value <= high:
        return f"{measure} {raw} outside [0, {high}]"
    return None


def check_reports(out_dir: Path, report: dict[str, str], regenerated: dict[str, str]) -> list[str]:
    """The written reports, the in-memory ones and the ones rebuilt from the
    exported directory must be byte-identical."""
    problems = []
    if sorted(report) != sorted(regenerated):
        problems.append(f"regenerated report names {sorted(regenerated)} != {sorted(report)}")
    for name, text in report.items():
        if regenerated.get(name) != text:
            problems.append(f"{name}: regenerated from the results directory differs")
        if (out_dir / name).read_bytes() != text.encode():
            problems.append(f"{name}: written file differs from the in-memory report")
    return problems


def digest(out_dir: Path) -> str:
    """SHA-256 over every exported file, by name, so runs can be compared."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.is_file():
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()
