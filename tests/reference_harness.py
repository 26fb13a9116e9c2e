"""Earlier report sections of ``hdpbench.harness``, kept as reference oracles.

Each section here reads a dict keyed by (method, source, target, measure)
and makes one statistics call per target, plan or pair: Scott-Knott and
win/tie/loss samples come from dict lookups, each plan pair gets its own
loop contingency count and scalar McNemar test, and each Wilcoxon call
ranks and counts its null distribution again. The harness builds the same
sections from one value table, one array pass per target and one batched
Wilcoxon call per report; tests require byte-equal text. Wilcoxon, the
contingency count, McNemar and Scott-Knott come from ``reference_stats``,
so the oracles share none of the new arithmetic. The unidentified section
counts each plan's missed defective modules one module at a time.

``load_results`` and ``value_table`` are the loader and the report table
from before ``ExperimentResult`` held the table: the loader parses one
``ResultRow`` per line, keys every cell in a dict and checks every plan's
cells again; ``value_table`` builds the (method, measure) -> plan-order
lists from those rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path
from typing import NamedTuple

import numpy as np

import reference_stats
from hdpbench import measures, stats
from hdpbench.harness import (
    PREDICTION_COLUMNS,
    RESULT_COLUMNS,
    TARGET_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    _method,
    _table,
    _variant_sides,
    load_config,
)


def _csv_records(path: Path, columns: tuple[str, ...]):
    """(line number, fields) of each record after the exact header ``columns``."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != columns:
            raise ValueError(f"{path}:1: expected header {','.join(columns)}, got {header}")
        for record in reader:
            if len(record) != len(columns):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {len(columns)} fields, got {len(record)}"
                )
            yield reader.line_num, record


def _flags(bits: str, n_modules: int | None, where: str):
    if bits.strip("01"):
        raise ValueError(f"{where}: labels must contain only 0 and 1")
    if n_modules is not None and len(bits) != n_modules:
        raise ValueError(f"{where}: {len(bits)} labels for a target of {n_modules} modules")
    return [c == "1" for c in bits]


class LoadedRows(NamedTuple):
    config: ExperimentConfig
    rows: list[ResultRow]
    plans: list[tuple[str, str]]  # in row order
    target_groups: dict[str, str]
    target_truth: dict[str, list[bool]]
    predictions: dict[tuple[str, str, str], list[bool]]
    n_plans_total: int


def load_results(results_dir) -> LoadedRows:
    """The loader's checks, one row at a time, with the rejection of a row
    whose method or measure is not configured, of a row without exactly one
    of a value in its measure's range and a failure, of an ifa value that is
    not a whole number, and of a target without a plan."""
    results_dir = Path(results_dir)
    cfg = replace(load_config(results_dir / "config.ini"), output_dir=str(results_dir))
    target_groups = {}
    target_truth = {}
    target_lines = {}
    path = results_dir / "targets.csv"
    for line, (target, group, bits) in _csv_records(path, TARGET_COLUMNS):
        target_lines[target] = line
        target_groups[target] = group
        target_truth[target] = _flags(bits, None, f"{path}:{line}")
    predictions = {}
    path = results_dir / "predictions.csv"
    for line, (variant, source, target, bits) in _csv_records(path, PREDICTION_COLUMNS):
        if target not in target_truth:
            raise ValueError(f"{path}:{line}: target {target!r} is not in targets.csv")
        predictions[(variant, source, target)] = _flags(
            bits, len(target_truth[target]), f"{path}:{line}"
        )
    rows = []
    cells: dict[tuple[str, str, str, str], int] = {}  # -> line
    path = results_dir / "results.csv"
    for line, (method, source, target, measure, value, failure) in _csv_records(path, RESULT_COLUMNS):
        if target not in target_groups:
            raise ValueError(f"{path}:{line}: target {target!r} is not in targets.csv")
        if method not in cfg.methods:
            raise ValueError(f"{path}:{line}: method {method!r} is not configured")
        if measure not in cfg.measures:
            raise ValueError(f"{path}:{line}: measure {measure!r} is not configured")
        cell = (method, source, target, measure)
        if (first := cells.setdefault(cell, line)) != line:
            raise ValueError(f"{path}:{line}: repeats line {first} ({' '.join(cell)})")
        try:
            number = float(value) if value else None
        except ValueError:
            raise ValueError(f"{path}:{line}: value {value!r} is not a number") from None
        if number is not None and not math.isfinite(number):
            raise ValueError(f"{path}:{line}: value {value!r} is not a finite number")
        if number is None and not failure:
            raise ValueError(f"{path}:{line}: holds neither a value nor a failure")
        if number is not None and failure:
            raise ValueError(f"{path}:{line}: holds both value {value!r} and failure {failure!r}")
        high = len(target_truth[target]) - 1 if measure == "ifa" else 1
        if number is not None and not 0 <= number <= high:
            raise ValueError(f"{path}:{line}: {measure} value {value!r} is outside [0, {high}]")
        if measure == "ifa" and number is not None and number != int(number):
            raise ValueError(f"{path}:{line}: ifa value {value!r} is not a whole number")
        rows.append(ResultRow(method, source, target, measure, number, failure or None))
    summary = results_dir / "summary.txt"
    totals = [
        (line, text.split(":", 1)[1].strip())
        for line, text in enumerate(summary.read_text().splitlines(), 1)
        if text.startswith("plans_total:")
    ]
    if not totals:
        raise ValueError(f"{summary}: missing plans_total line")
    line, total = totals[0]
    try:
        n_total = int(total)
    except ValueError:
        raise ValueError(f"{summary}:{line}: plans_total {total!r} is not an integer") from None
    plans = list(dict.fromkeys((row.source, row.target) for row in rows))
    if n_total < len(plans):
        raise ValueError(
            f"{summary}:{line}: plans_total {n_total} is below the {len(plans)} plans in results.csv")
    for source, target in plans:
        for method, measure in product(cfg.methods, cfg.measures):
            if (method, source, target, measure) not in cells:
                raise ValueError(f"{path}: plan {source} => {target} has no {method} {measure} row")
    planned = {target for _, target in plans}
    for target, line in target_lines.items():
        if target not in planned:
            raise ValueError(
                f"{results_dir / 'targets.csv'}:{line}: target {target!r} has no plan in results.csv")
    return LoadedRows(cfg, rows, plans, target_groups, target_truth, predictions, n_total)


def targets_sources(plans) -> dict[str, list[str]]:
    """Each target, sorted, -> its sources, sorted: the report's plan order."""
    by_target: dict[str, list[str]] = {}
    for source, target in plans:
        by_target.setdefault(target, []).append(source)
    return {t: sorted(s) for t, s in sorted(by_target.items())}


def value_table(
    rows, by_target: dict[str, list[str]]
) -> dict[tuple[str, str], list[float | None]]:
    """(method, measure) -> its value on every plan in the plan order of
    ``by_target``, None where the value is absent; one pass over the rows."""
    position = {}
    for target, sources in by_target.items():
        for source in sources:
            position[(source, target)] = len(position)
    table: dict[tuple[str, str], list[float | None]] = {}
    for row in rows:
        key = (row.method, row.measure)
        if key not in table:
            table[key] = [None] * len(position)
        table[key][position[(row.source, row.target)]] = row.value
    return table


def _value_index(result: ExperimentResult):
    index: dict[tuple[str, str, str, str], float | None] = {}
    for row in result.rows():
        index[(row.method, row.source, row.target, row.measure)] = row.value
    return index


def _arrays(samples: dict[str, list[float]]) -> dict[str, np.ndarray]:
    return {m: np.array(values, dtype=float) for m, values in samples.items()}


def _scott_knott_section(columns: dict[str, np.ndarray], title: str) -> list[str]:
    samples = {m: column[~np.isnan(column)] for m, column in columns.items()}
    usable = {m: v for m, v in samples.items() if len(v) >= 2}
    excluded = sorted(set(samples) - set(usable))
    lines = [f"[{title}]"]
    if not usable:
        lines.append("  no method has enough values")
        return lines
    ranking = reference_stats.scott_knott(usable)
    for rank, group in enumerate(ranking.groups, start=1):
        members = ", ".join(f"{m} (mean {ranking.means[m]:.4f})" for m in group)
        lines.append(f"  rank {rank}: {members}")
    if excluded:
        lines.append(f"  excluded (fewer than 2 values): {', '.join(excluded)}")
    return lines


def _report_scott_knott(result: ExperimentResult, index, by_target) -> str:
    cfg = result.config
    groups = sorted(set(result.target_groups.values()))
    out = [f"scott-knott rankings ({cfg.scenario})", ""]
    for measure in cfg.measures:
        out.append(f"== {measure} ==")
        samples = {
            m: [
                v
                for t, sources in by_target.items()
                for s in sources
                if (v := index[(m, s, t, measure)]) is not None
            ]
            for m in cfg.methods
        }
        out.extend(_scott_knott_section(_arrays(samples), "all subjects"))
        for group in groups:
            samples = {
                m: [
                    v
                    for t, sources in by_target.items()
                    if result.target_groups[t] == group
                    for s in sources
                    if (v := index[(m, s, t, measure)]) is not None
                ]
                for m in cfg.methods
            }
            out.extend(_scott_knott_section(_arrays(samples), f"group: {group}"))
        out.append("")
    return "\n".join(out) + "\n"


def wtl_matrix(
    by_target: dict[str, list[str]],
    measure: str,
    first: str,
    second: str,
    index: dict[tuple[str, str, str, str], float | None],
) -> stats.WtlRecord:
    orient = 1.0 if measures.HIGHER_IS_BETTER[measure] else -1.0
    paired: dict[str, tuple[list[float], list[float]]] = {}
    for target, sources in by_target.items():
        xs, ys = [], []
        for s in sources:
            a = index[(first, s, target, measure)]
            b = index[(second, s, target, measure)]
            if a is not None and b is not None:
                xs.append(orient * a)
                ys.append(orient * b)
        paired[target] = (xs, ys)
    testable = [t for t, (xs, _) in paired.items() if len(xs) >= 2]
    raw = [reference_stats.wilcoxon_signed_rank(*paired[t]) for t in testable]
    adjusted = dict(zip(testable, stats.bh_adjust(raw))) if testable else {}
    win = tie = loss = 0
    for target, (xs, ys) in paired.items():
        if target in adjusted:
            outcome = stats.wtl_outcome(adjusted[target], xs, ys)
        else:
            outcome = "tie"
        win += outcome == "win"
        tie += outcome == "tie"
        loss += outcome == "loss"
    return stats.WtlRecord(win, tie, loss)


def _report_wtl(result: ExperimentResult, index, by_target) -> str:
    cfg = result.config
    hdp_methods = [m for m in cfg.methods if _method(m).category == "hdp"]
    udp_methods = [m for m in cfg.methods if _method(m).category == "udp"]
    out = [f"win/tie/loss per target: rows vs columns ({cfg.scenario})", ""]
    if not hdp_methods or not udp_methods:
        out.append("needs at least one heterogeneous and one unsupervised method")
        return "\n".join(out) + "\n"
    for measure in cfg.measures:
        out.append(f"== {measure} ==")
        rows = []
        for h in hdp_methods:
            cells = [str(wtl_matrix(by_target, measure, h, u, index)) for u in udp_methods]
            rows.append([h, *cells])
        out.append(_table(["method", *udp_methods], rows))
        out.append("")
    return "\n".join(out) + "\n"


def _report_diversity(result: ExperimentResult) -> str:
    hdp_vars, udp_vars = _variant_sides(result.config.methods)
    groups = sorted(set(result.target_groups.values()))
    sections = (
        ("hdp vs hdp", list(combinations(hdp_vars, 2))),
        ("udp vs udp", list(combinations(udp_vars, 2))),
        ("hdp vs udp", list(product(hdp_vars, udp_vars))),
    )
    out = ["mcnemar diversity on defective modules: significant plans / comparable plans", ""]
    for title, pairs in sections:
        if not pairs:
            continue
        out.append(f"== {title} ==")
        rows = []
        for a, b in pairs:
            sig = {g: 0 for g in groups}
            total = {g: 0 for g in groups}
            for source, target in result.plans:
                flags_a = result.predictions.get((a, source, target))
                flags_b = result.predictions.get((b, source, target))
                if flags_a is None or flags_b is None:
                    continue
                group = result.target_groups[target]
                total[group] += 1
                table = reference_stats.contingency_table(flags_a, flags_b, result.target_truth[target])
                if reference_stats.mcnemar(table) < stats.ALPHA:
                    sig[group] += 1
            cells = [f"{sig[g]}/{total[g]}" for g in groups]
            cells.append(f"{sum(sig.values())}/{sum(total.values())}")
            rows.append([f"{a} vs {b}", *cells])
        out.append(_table(["comparison", *groups, "summary"], rows))
        out.append("")
    return "\n".join(out) + "\n"


def _report_unidentified(result: ExperimentResult) -> str:
    hdp_vars, udp_vars = _variant_sides(result.config.methods)
    out = [
        "defective modules no method identifies (plans where every method has predictions)",
        "",
    ]
    rows = []
    for source, target in sorted(result.plans):
        flags = {v: result.predictions.get((v, source, target)) for v in hdp_vars + udp_vars}
        defective = [i for i, bug in enumerate(result.target_truth[target]) if bug]
        if any(f is None for f in flags.values()) or not defective:
            continue
        cells = []
        for side in (hdp_vars, udp_vars, hdp_vars + udp_vars):
            # a side without a method has no count
            if not side:
                cells += ["n/a", "n/a"]
                continue
            missed = 0
            for i in defective:
                if not any(flags[v][i] for v in side):
                    missed += 1
            cells += [str(missed), f"{100 * missed / len(defective):.2f}%"]
        rows.append([f"{source} => {target}", *cells])
    if rows:
        out.append(_table(
            ["source => target", "=0 by HDP", "proportion",
             "=0 by UM", "proportion", "=0 by ALL", "proportion"],
            rows,
        ))
    else:
        out.append("no plan has predictions from every configured method")
    return "\n".join(out) + "\n"


def _report_satisfactory(result: ExperimentResult, index) -> str:
    cfg = result.config
    out = ["satisfactory ratio per dataset group (SC1: precision & recall > 75%;"
           " SC2: recall > 70% & precision > 50%)", ""]
    if "precision" not in cfg.measures or "recall" not in cfg.measures:
        out.append("requires the precision and recall measures in the configuration")
        return "\n".join(out) + "\n"
    groups = sorted(set(result.target_groups.values()))
    rows = []
    for method in cfg.methods:
        cells = []
        for group in groups:
            pairs = []
            for source, target in result.plans:
                if result.target_groups[target] != group:
                    continue
                precision = index[(method, source, target, "precision")]
                recall = index[(method, source, target, "recall")]
                if precision is not None and recall is not None:
                    pairs.append((precision, recall))
            for criterion in ("SC1", "SC2"):
                if pairs:
                    cells.append(f"{stats.satisfactory_ratio(pairs, criterion):.2f}%")
                else:
                    cells.append("n/a")
        rows.append([method, *cells])
    headers = ["method"]
    for group in groups:
        headers.extend([f"{group} SC1", f"{group} SC2"])
    out.append(_table(headers, rows))
    return "\n".join(out) + "\n"


def report_sections(result: ExperimentResult) -> dict[str, str]:
    """The sections above, named as in ``harness.build_report``'s bundle."""
    index = _value_index(result)
    by_target = targets_sources(result.plans)
    return {
        "report_scottknott.txt": _report_scott_knott(result, index, by_target),
        "report_wtl.txt": _report_wtl(result, index, by_target),
        "report_diversity.txt": _report_diversity(result),
        "report_unidentified.txt": _report_unidentified(result),
        "report_satisfactory.txt": _report_satisfactory(result, index),
    }
