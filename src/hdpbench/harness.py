"""Reproducible experiment harness.

Runs every configured method over every heterogeneous (source, target)
combination, records one row per (method, combination, measure), and turns
the rows into the benchmark's report tables: Scott-Knott rankings,
win/tie/loss matrices, McNemar diversity counts, unidentified-defective
counts, and satisfactory ratios.

``METHODS`` is the one table of the built-in methods: each ``Method`` gives a
method's category, how it is called, and the label variants it exports. Any
other name is a method registered here (``register_external_method``): a
heterogeneous method on the plan's source and target datasets that exports
its own name, so the reports read only the table, never the registry. Every
call goes through one guard (``_predict``): an exception, a failed
``hdp.HdpOutcome`` or a prediction that is not one label per target module
becomes the method's failure on that plan, recorded in every measure's row,
and the run goes on. One function (``_score``) scores the measures with
``measures.compute_measure`` and picks out the variants.

Unsupervised methods ignore the source project: each runs once per target,
and its result, a failure included, is copied to every plan of that target so
the rows align one-for-one with the heterogeneous methods' rows. hdp1 sorts
each dataset's columns and ranks a source's metrics once per dataset
(``hdp.DatasetProfile``); per plan it keeps only the KS weight matrix, the
assignment and the fit. scenario2 first runs hdp1 on every plan and keeps the
plans where it succeeds.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import combinations, product
from pathlib import Path
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

import numpy as np

from . import hdp, measures, stats, udp
from .datasets import (
    CombinationPlan,
    DefectDataset,
    effort_values,
    enumerate_combinations,
    load_manifest_datasets,
    read_ini,
)
from .measures import EFFORT_FRACTION

# scenario -> the method whose failed plans it leaves out
SCENARIOS = {"scenario1": None, "scenario2": "hdp1"}


@dataclass(frozen=True)
class Method:
    """A method's category, how it is called, and the label variants it exports.

    - ``category``: "hdp" learns from each plan's source; "udp" ignores the
      source, so it runs, and is scored, once per target.
    - ``function`` and ``inputs``: the call is ``function`` of the ``hdp``
      module ("hdp") or the ``udp`` module ("udp") on the named inputs:
      ``source``, ``target`` and ``effort_fraction``. The
      function is looked up in its module at each call, never stored, so a
      replaced module binding (a tracer's, a test's) is the one that runs.
      ``profiled`` passes ``hdp.DatasetProfile``s as source and target.
    - ``choice``: the call returns one prediction per choice, keyed by
      choice, and this maps each measure to the key of the prediction it
      scores. Without it, the call's one prediction serves every measure.
      Either way the method is called once per plan (per target for "udp").
    - ``variants``: exported label variant -> the measure whose prediction
      it is. By default a method exports its f1 prediction under its own name.
    """

    category: str
    function: str
    inputs: tuple[str, ...]
    profiled: bool = False
    choice: dict[str, str] | None = None
    variants: dict[str, str] | None = None


METHODS = {
    "hdp1": Method("hdp", "hdp1_predict", ("source", "target"), profiled=True),
    "hdp5": Method("hdp", "hdp5_predict", ("source", "target")),
    "cla": Method("udp", "cla_predict", ("target",)),
    "clami": Method("udp", "clami_predict", ("target",)),
    "spectral": Method("udp", "spectral_predict", ("target",)),
    # size ranking: larger-first for the classification measures,
    # smaller-first for the effort-aware ones
    "manual": Method("udp", "manual_rank", ("target",), choice={
        m: "down" if m in ("precision", "recall", "f1", "auc") else "up"
        for m in measures.MEASURE_IDS
    }),
    # precision and recall ride on the F1-oriented metric choice
    "bestmetric": Method(
        "udp", "best_metric_oracle", ("target", "effort_fraction"),
        choice={m: "f1" if m in ("precision", "recall") else m for m in measures.MEASURE_IDS},
        variants={"bestmetric-auc": "auc", "bestmetric-f1": "f1"},
    ),
}
# a registered method: _EXTERNAL_METHODS[name](source, target)
_REGISTERED = Method("hdp", "", ("source", "target"))

ExternalMethod = Callable[[DefectDataset, DefectDataset], hdp.HdpOutcome]

_EXTERNAL_METHODS: dict[str, ExternalMethod] = {}

RESULT_COLUMNS = ("method", "source", "target", "measure", "value", "failure")
PREDICTION_COLUMNS = ("variant", "source", "target", "labels")
TARGET_COLUMNS = ("target", "group", "labels")


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: str
    output_dir: str
    methods: tuple[str, ...] = tuple(METHODS)
    measures: tuple[str, ...] = measures.MEASURE_IDS
    effort_fraction: float = EFFORT_FRACTION  # by name: ``measures`` here is the field above
    scenario: str = "scenario1"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "measures", tuple(self.measures))
        if not self.methods or not self.measures:
            raise ValueError("methods and measures must be non-empty")
        if not 0 < self.effort_fraction <= 1:
            raise ValueError("effort fraction must be in (0, 1]")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {tuple(SCENARIOS)}")
        unknown = [m for m in self.measures if m not in measures.MEASURE_IDS]
        if unknown:
            raise ValueError(f"unknown measures: {unknown}")
        for key in ("methods", "measures"):
            names = getattr(self, key)
            repeated = [n for n in dict.fromkeys(names) if names.count(n) > 1]
            if repeated:
                raise ValueError(f"repeated {key}: {repeated}")


def _method(name: str) -> Method:
    """The table entry of a built-in method; any other name is a registered one."""
    return METHODS.get(name, _REGISTERED)


def _variants(name: str) -> dict[str, str]:
    """Exported label variant -> the measure whose prediction it is."""
    return _method(name).variants or {name: "f1"}


# the names a built-in method writes rows or label variants under
_RESERVED_NAMES = frozenset(METHODS).union(*map(_variants, METHODS))


def register_external_method(name: str, fn: ExternalMethod) -> str:
    """Register a pluggable heterogeneous method under a unique name.

    The callable receives (source, target) datasets and returns an
    HdpOutcome holding a Prediction in target row order (or a failure);
    it participates in harness runs identically to built-ins and exports
    its labels under its own name. Effort-aware measures use the target's
    clamped LOC column as effort. A built-in method's name or a variant
    one exports is refused.
    """
    if name in _RESERVED_NAMES:
        raise ValueError(f"method name {name!r} is reserved")
    if name in _EXTERNAL_METHODS:
        raise ValueError(f"method {name!r} already registered")
    _EXTERNAL_METHODS[name] = fn
    return name


def unregister_external_method(name: str) -> None:
    _EXTERNAL_METHODS.pop(name, None)


def external_methods() -> dict[str, ExternalMethod]:
    return dict(_EXTERNAL_METHODS)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a flat key-value experiment config ([experiment] section)."""
    path = Path(path)
    parser = read_ini(path, ValueError)
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    section = parser["experiment"]
    if "manifest" not in section:
        raise ValueError(f"{path}: missing manifest entry")

    def _parse(key: str, kind: type):
        if kind is tuple:
            return tuple(section[key].replace(",", " ").split())
        try:
            return kind(section[key])
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{path}: {key} = {section[key]!r} is not {noun}") from None

    manifest = section["manifest"]
    if not Path(manifest).is_absolute():
        manifest = str(path.parent / manifest)
    output_dir = section.get("output_dir", "results")
    if not Path(output_dir).is_absolute():
        output_dir = str(path.parent / output_dir)
    fields = dict(manifest=manifest, output_dir=output_dir)
    # a key the section leaves out keeps ExperimentConfig's default
    kinds = dict(methods=tuple, measures=tuple, effort_fraction=float, scenario=str, seed=int)
    fields.update((key, _parse(key, kind)) for key, kind in kinds.items() if key in section)
    try:
        return ExperimentConfig(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class ResultRow(NamedTuple):
    method: str
    source: str
    target: str
    measure: str
    value: float | None
    failure: str | None


@dataclass
class MethodResult:
    """One method's outcome on one plan, or on one target for an unsupervised
    method: a (value, failure) per measure, the exported label variants, and
    the method's own failure, if it failed."""

    values: dict[str, tuple[float | None, str | None]]
    variant_labels: dict[str, np.ndarray]  # variant name -> bool flag per module
    failure: str | None = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[ResultRow]
    target_groups: dict[str, str]
    target_truth: dict[str, np.ndarray]  # target -> bool defect flag per module
    predictions: dict[tuple[str, str, str], np.ndarray]  # (variant, source, target) -> flags
    n_plans_total: int = 0

    @cached_property
    def plans(self) -> list[tuple[str, str]]:
        """Distinct (source, target) pairs in row order; rows are never
        changed after construction, so this is computed once."""
        seen: dict[tuple[str, str], None] = {}
        for row in self.rows:
            seen.setdefault((row.source, row.target), None)
        return list(seen)


def _predict(
    name: str, inputs: dict[str, object], measure_ids: Sequence[str], n_modules: int
) -> dict[str, udp.Prediction] | str:
    """``name``'s prediction for each measure it is scored on or exports, or
    the reason it failed: its own (a failed ``HdpOutcome``), an exception, or
    a prediction that is not one label per target module."""
    method = _method(name)
    if method is _REGISTERED:
        fn = _EXTERNAL_METHODS[name]
    else:
        fn = getattr(hdp if method.category == "hdp" else udp, method.function)
    wanted = [*measure_ids, *_variants(name).values()]
    try:
        output = fn(*(inputs[k] for k in method.inputs))
        if isinstance(output, hdp.HdpOutcome) and not output.ok:
            return output.failure
        chosen = {m: output[method.choice[m]] if method.choice else output for m in wanted}
        # an HdpOutcome or udp.BestMetric holds its Prediction
        preds = {m: p if isinstance(p, udp.Prediction) else p.predictions for m, p in chosen.items()}
        if any(len(p.scores) != n_modules for p in preds.values()):
            return "error: prediction count mismatch"
    except Exception as exc:  # one bad method call must not abort the run
        return f"error: {exc}"
    return preds


def _score(
    name: str, output: dict[str, udp.Prediction] | str, target: DefectDataset,
    efforts: np.ndarray, measure_ids: Sequence[str], effort_fraction: float,
) -> MethodResult:
    """Score ``_predict``'s output on every measure of ``measure_ids`` and
    pick out the method's exported variants; a failure fills every measure."""
    if isinstance(output, str):
        return MethodResult({m: (None, output) for m in measure_ids}, {}, output)
    values = {
        m: measures.compute_measure(
            m, output[m].scores, output[m].predicted, efforts, target.labels, effort_fraction
        )
        for m in measure_ids
    }
    return MethodResult(values, {v: output[m].predicted for v, m in _variants(name).items()})


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Evaluate every configured method on every combination in the scenario.

    Per-plan method failures are recorded in the rows; the run itself never
    aborts on a single plan. Output is deterministic.
    """
    for m in cfg.methods:
        if m not in METHODS and m not in _EXTERNAL_METHODS:
            raise ValueError(f"unknown method {m!r}")
    datasets = {d.name: d for d in load_manifest_datasets(cfg.manifest)}
    all_plans = enumerate_combinations(list(datasets.values()))
    # hdp1's sorts and metric selection depend on one dataset: do them once
    profile = cache(lambda name: hdp.DatasetProfile(datasets[name]))
    efforts = {name: effort_values(d) for name, d in datasets.items()}
    results: dict[tuple[str, str, str], MethodResult] = {}

    def run(name: str, plan: CombinationPlan) -> MethodResult:
        """``name`` on ``plan``, run and scored once per plan, or once per
        target for an unsupervised method."""
        method = _method(name)
        key = (name, plan.source if method.category == "hdp" else "", plan.target)
        if key not in results:
            target = datasets[plan.target]
            inputs = {"source": datasets[plan.source], "target": target,
                      "effort_fraction": cfg.effort_fraction}
            if method.profiled:
                inputs.update(source=profile(plan.source), target=profile(plan.target))
            # scenario2's filter method writes no rows unless it is configured
            measure_ids = cfg.measures if name in cfg.methods else ()
            output = _predict(name, inputs, measure_ids, target.n_modules)
            results[key] = _score(
                name, output, target, efforts[plan.target], measure_ids, cfg.effort_fraction
            )
        return results[key]

    plans = all_plans
    if SCENARIOS[cfg.scenario] is not None:
        plans = [p for p in all_plans if run(SCENARIOS[cfg.scenario], p).failure is None]

    rows: list[ResultRow] = []
    predictions: dict[tuple[str, str, str], np.ndarray] = {}
    for p, method in product(plans, cfg.methods):
        res = run(method, p)
        for measure in cfg.measures:
            value, reason = res.values[measure]
            rows.append(ResultRow(method, p.source, p.target, measure, value, reason))
        for variant, flags in res.variant_labels.items():
            predictions[(variant, p.source, p.target)] = flags

    targets = sorted({p.target for p in plans})
    target_groups = {t: datasets[t].schema.group_name for t in targets}
    target_truth = {t: datasets[t].labels for t in targets}
    return ExperimentResult(cfg, rows, target_groups, target_truth, predictions, len(all_plans))


# ---------------------------------------------------------------------------
# persistence


def _config_lines(cfg: ExperimentConfig) -> str:
    # output_dir intentionally omitted: it is implied by file location and
    # would break byte-identical outputs across runs into different dirs
    return (
        "[experiment]\n"
        f"manifest = {cfg.manifest}\n"
        f"methods = {' '.join(cfg.methods)}\n"
        f"measures = {' '.join(cfg.measures)}\n"
        f"effort_fraction = {cfg.effort_fraction!r}\n"
        f"scenario = {cfg.scenario}\n"
        f"seed = {cfg.seed}\n"
    )


def _format_value(value: float | None) -> str:
    return "" if value is None else repr(value)


def method_failures(result: ExperimentResult) -> dict[str, int]:
    """Plans per method with at least one row that records a failure: the
    method's own failure on the plan, or a measure the target leaves
    undefined (``NoDefects``, ``SingleClassTruth``)."""
    failed: dict[str, set[tuple[str, str]]] = {}
    for row in result.rows:
        if row.failure is not None:
            failed.setdefault(row.method, set()).add((row.source, row.target))
    return {m: len(v) for m, v in sorted(failed.items())}


def _summary_text(result: ExperimentResult) -> str:
    cfg = result.config
    lines = [
        "experiment summary",
        f"scenario: {cfg.scenario}",
        f"plans_total: {result.n_plans_total}",
        f"plans_in_scenario: {len(result.plans)}",
        f"targets: {len(result.target_groups)}",
        f"methods: {' '.join(cfg.methods)}",
        f"measures: {' '.join(cfg.measures)}",
        f"rows: {len(result.rows)}",
        "failure_plans_per_method:",
    ]
    failures = method_failures(result)
    if failures:
        lines.extend(f"  {m}: {n}" for m, n in failures.items())
    else:
        lines.append("  none")
    return "\n".join(lines) + "\n"


def _bits(flags: np.ndarray) -> str:
    """A bool flag vector as its '0'/'1' label text."""
    return np.where(flags, b"1", b"0").tobytes().decode("ascii")


def _write_csv(path: Path, columns: tuple[str, ...], records: Iterable[Sequence[str]]) -> Path:
    """Write the header ``columns``, then ``records``: the writer that ``_csv_records`` reads."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(records)
    path.write_text(buffer.getvalue())
    return path


def export_results(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write the results directory: config echo, flat results file,
    prediction/truth label files, and the run summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.ini"
    config_path.write_text(_config_lines(result.config))
    results_path = _write_csv(out / "results.csv", RESULT_COLUMNS, (
        [row.method, row.source, row.target, row.measure,
         _format_value(row.value), row.failure or ""]
        for row in result.rows
    ))
    pred_path = _write_csv(out / "predictions.csv", PREDICTION_COLUMNS, (
        [*key, _bits(result.predictions[key])] for key in sorted(result.predictions)
    ))
    targets_path = _write_csv(out / "targets.csv", TARGET_COLUMNS, (
        [t, result.target_groups[t], _bits(result.target_truth[t])]
        for t in sorted(result.target_truth)
    ))
    summary_path = out / "summary.txt"
    summary_path.write_text(_summary_text(result))
    return [config_path, results_path, pred_path, targets_path, summary_path]


def _csv_records(path: Path, columns: tuple[str, ...]) -> Iterable[tuple[int, list[str]]]:
    """(line number, fields) of each record after the exact header ``columns``."""
    with path.open() as fh:
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


def _flags(bits: str, n_modules: int | None, where: str) -> np.ndarray:
    """The bool flag vector of a label text that holds only '0'/'1', one
    label per module of its target."""
    if bits.strip("01"):
        raise ValueError(f"{where}: labels must contain only 0 and 1")
    if n_modules is not None and len(bits) != n_modules:
        raise ValueError(f"{where}: {len(bits)} labels for a target of {n_modules} modules")
    return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) == ord("1")


def load_results(results_dir: str | Path) -> ExperimentResult:
    """Reconstruct an ExperimentResult from an exported results directory.

    The files are checked: exact headers; only '0'/'1' labels, and every
    prediction as long as its target's truth; in results.csv, a known
    target, a finite numeric value and no repeat on each row, and a row for every
    configured method and measure on each plan."""
    results_dir = Path(results_dir)
    cfg = replace(load_config(results_dir / "config.ini"), output_dir=str(results_dir))
    target_groups = {}
    target_truth = {}
    path = results_dir / "targets.csv"
    for line, (target, group, bits) in _csv_records(path, TARGET_COLUMNS):
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
        cell = (method, source, target, measure)
        if (first := cells.setdefault(cell, line)) != line:
            raise ValueError(f"{path}:{line}: repeats line {first} ({' '.join(cell)})")
        try:
            number = float(value) if value else None
        except ValueError:
            raise ValueError(f"{path}:{line}: value {value!r} is not a number") from None
        if number is not None and not math.isfinite(number):
            raise ValueError(f"{path}:{line}: value {value!r} is not a finite number")
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
    result = ExperimentResult(cfg, rows, target_groups, target_truth, predictions, n_total)
    for source, target in result.plans:
        for method, measure in product(cfg.methods, cfg.measures):
            if (method, source, target, measure) not in cells:
                raise ValueError(f"{path}: plan {source} => {target} has no {method} {measure} row")
    return result


# ---------------------------------------------------------------------------
# report generation


def _variant_sides(methods: Sequence[str]) -> tuple[list[str], list[str]]:
    """The hdp and the udp prediction variants of ``methods``, in config order."""
    sides: dict[str, list[str]] = {"hdp": [], "udp": []}
    for m in methods:
        sides[_method(m).category].extend(_variants(m))
    return sides["hdp"], sides["udp"]


def _targets_sources(result: ExperimentResult) -> dict[str, list[str]]:
    by_target: dict[str, list[str]] = {}
    for source, target in result.plans:
        by_target.setdefault(target, []).append(source)
    return {t: sorted(s) for t, s in sorted(by_target.items())}


def _target_slices(by_target: dict[str, list[str]]) -> dict[str, slice]:
    """Each target's plans as a slice of the plan order of ``by_target``:
    targets sorted, each target's sources sorted."""
    slices, start = {}, 0
    for target, sources in by_target.items():
        slices[target] = slice(start, start + len(sources))
        start += len(sources)
    return slices


def _value_table(
    result: ExperimentResult, by_target: dict[str, list[str]]
) -> dict[tuple[str, str], list[float | None]]:
    """(method, measure) -> its value on every plan in the plan order of
    ``by_target``, None where the value is absent; one pass over the rows."""
    position = {}
    for target, sources in by_target.items():
        for source in sources:
            position[(source, target)] = len(position)
    table: dict[tuple[str, str], list[float | None]] = {}
    for row in result.rows:
        key = (row.method, row.measure)
        if key not in table:
            table[key] = [None] * len(position)
        table[key][position[(row.source, row.target)]] = row.value
    return table


def _group_slices(result: ExperimentResult, slices: dict[str, slice]) -> dict[str, list[slice]]:
    """Each dataset group, sorted, -> the plan slices of its targets."""
    groups: dict[str, list[slice]] = {g: [] for g in sorted(set(result.target_groups.values()))}
    for target, part in slices.items():
        groups[result.target_groups[target]].append(part)
    return groups


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _scott_knott_section(
    samples: dict[str, list[float]], title: str
) -> list[str]:
    usable = {m: v for m, v in samples.items() if len(v) >= 2}
    excluded = sorted(set(samples) - set(usable))
    lines = [f"[{title}]"]
    if not usable:
        lines.append("  no method has enough values")
        return lines
    ranking = stats.scott_knott(usable)
    for rank, group in enumerate(ranking.groups, start=1):
        members = ", ".join(f"{m} (mean {ranking.means[m]:.4f})" for m in group)
        lines.append(f"  rank {rank}: {members}")
    if excluded:
        lines.append(f"  excluded (fewer than 2 values): {', '.join(excluded)}")
    return lines


def _report_scott_knott(result: ExperimentResult, table, group_slices) -> str:
    cfg = result.config
    out = [f"scott-knott rankings ({cfg.scenario})", ""]
    for measure in cfg.measures:
        out.append(f"== {measure} ==")
        columns = {m: table[(m, measure)] for m in cfg.methods}
        samples = {m: [v for v in column if v is not None] for m, column in columns.items()}
        out.extend(_scott_knott_section(samples, "all subjects"))
        for group, parts in group_slices.items():
            samples = {
                m: [v for part in parts for v in column[part] if v is not None]
                for m, column in columns.items()
            }
            out.extend(_scott_knott_section(samples, f"group: {group}"))
        out.append("")
    return "\n".join(out) + "\n"


def wtl_matrix(
    first: Sequence[float | None],
    second: Sequence[float | None],
    slices: Collection[slice],
    higher_is_better: bool,
) -> stats.WtlRecord:
    """Per-target win/tie/loss of the values ``first`` against ``second``.

    Both are value-table columns (``_value_table``) and ``slices`` holds one
    slice per target (``_target_slices``). For each target the paired
    samples are the plans where both values are present; raw Wilcoxon
    p-values are BH-corrected within this (measure, method pair) family, and
    a target with fewer than two pairs is a tie. Lower-is-better values are
    negated so 'win' always means 'performs better'.
    """
    orient = 1.0 if higher_is_better else -1.0
    testable = []
    for part in slices:
        xs, ys = [], []
        for a, b in zip(first[part], second[part]):
            if a is not None and b is not None:
                xs.append(orient * a)
                ys.append(orient * b)
        if len(xs) >= 2:
            testable.append((xs, ys))
    raw = [stats.wilcoxon_signed_rank(xs, ys) for xs, ys in testable]
    adjusted = stats.bh_adjust(raw) if testable else []
    outcomes = [stats.compare_pair(xs, ys, adjusted_p=p) for (xs, ys), p in zip(testable, adjusted)]
    win, loss = outcomes.count("win"), outcomes.count("loss")
    return stats.WtlRecord(win, len(slices) - win - loss, loss)


def _report_wtl(result: ExperimentResult, table, slices) -> str:
    cfg = result.config
    hdp_methods = [m for m in cfg.methods if _method(m).category == "hdp"]
    udp_methods = [m for m in cfg.methods if _method(m).category == "udp"]
    out = [f"win/tie/loss per target: rows vs columns ({cfg.scenario})", ""]
    if not hdp_methods or not udp_methods:
        out.append("needs at least one heterogeneous and one unsupervised method")
        return "\n".join(out) + "\n"
    for measure in cfg.measures:
        out.append(f"== {measure} ==")
        higher = measures.HIGHER_IS_BETTER[measure]
        rows = []
        for h in hdp_methods:
            cells = [
                str(wtl_matrix(table[(h, measure)], table[(u, measure)], slices.values(), higher))
                for u in udp_methods
            ]
            rows.append([h, *cells])
        out.append(_table(["method", *udp_methods], rows))
        out.append("")
    return "\n".join(out) + "\n"


def _report_diversity(result: ExperimentResult, by_target) -> str:
    hdp_vars, udp_vars = _variant_sides(result.config.methods)
    variants = hdp_vars + udp_vars
    groups = sorted(set(result.target_groups.values()))
    sections = (
        ("hdp vs hdp", list(combinations(hdp_vars, 2))),
        ("udp vs udp", list(combinations(udp_vars, 2))),
        ("hdp vs udp", list(product(hdp_vars, udp_vars))),
    )
    pairs = [pair for _, section in sections for pair in section]
    first = [variants.index(a) for a, _ in pairs]
    second = [variants.index(b) for _, b in pairs]
    # [pair, group] -> significant plans, comparable plans
    sig = np.zeros((len(pairs), len(groups)), dtype=np.int64)
    total = np.zeros_like(sig)
    for target, sources in by_target.items():
        truth = result.target_truth[target]
        # flags[plan, variant] on the defective modules; a variant without a
        # prediction on a plan is all False there and leaves the plan out
        flags = np.zeros((len(sources), len(variants), np.count_nonzero(truth)), dtype=np.int64)
        present = np.zeros((len(sources), len(variants)), dtype=bool)
        for i, source in enumerate(sources):
            for j, variant in enumerate(variants):
                labels = result.predictions.get((variant, source, target))
                if labels is not None:
                    flags[i, j] = labels[truth]
                    present[i, j] = True
        hits = flags.sum(axis=2)
        both = (flags @ flags.transpose(0, 2, 1))[:, first, second]  # n_cc of every pair and plan
        comparable = present[:, first] & present[:, second]
        p = stats.mcnemar_pvalues(hits[:, first] - both, hits[:, second] - both)
        g = groups.index(result.target_groups[target])
        total[:, g] += comparable.sum(axis=0)
        sig[:, g] += (comparable & (p < stats.ALPHA)).sum(axis=0)
    counts = dict(zip(pairs, zip(sig.tolist(), total.tolist())))
    out = ["mcnemar diversity on defective modules: significant plans / comparable plans", ""]
    for title, section in sections:
        if not section:
            continue
        out.append(f"== {title} ==")
        rows = []
        for a, b in section:
            pair_sig, pair_total = counts[(a, b)]
            cells = [f"{s}/{t}" for s, t in zip(pair_sig, pair_total)]
            cells.append(f"{sum(pair_sig)}/{sum(pair_total)}")
            rows.append([f"{a} vs {b}", *cells])
        out.append(_table(["comparison", *groups, "summary"], rows))
        out.append("")
    return "\n".join(out) + "\n"


def _report_unidentified(result: ExperimentResult) -> str:
    hdp_vars, udp_vars = _variant_sides(result.config.methods)
    variants = hdp_vars + udp_vars
    out = [
        "defective modules no method identifies (plans where every method has predictions)",
        "",
    ]
    rows = []
    for source, target in sorted(result.plans):
        flags = [result.predictions.get((v, source, target)) for v in variants]
        truth = result.target_truth[target]
        n = int(np.count_nonzero(truth))
        if any(f is None for f in flags) or not n:
            continue
        hdp_flags, udp_flags = flags[: len(hdp_vars)], flags[len(hdp_vars) :]
        missed_hdp, missed_udp, missed_all = (
            int(np.count_nonzero(truth & ~np.any(side, axis=0))) if side else 0
            for side in (hdp_flags, udp_flags, flags)
        )
        rows.append([
            f"{source} => {target}",
            str(missed_hdp), f"{100 * missed_hdp / n:.2f}%",
            str(missed_udp), f"{100 * missed_udp / n:.2f}%",
            str(missed_all), f"{100 * missed_all / n:.2f}%",
        ])
    if rows:
        out.append(_table(
            ["source => target", "=0 by HDP", "proportion",
             "=0 by UM", "proportion", "=0 by ALL", "proportion"],
            rows,
        ))
    else:
        out.append("no plan has predictions from every configured method")
    return "\n".join(out) + "\n"


def _report_satisfactory(result: ExperimentResult, table, group_slices) -> str:
    cfg = result.config
    out = ["satisfactory ratio per dataset group (SC1: precision & recall > 75%;"
           " SC2: recall > 70% & precision > 50%)", ""]
    if "precision" not in cfg.measures or "recall" not in cfg.measures:
        out.append("requires the precision and recall measures in the configuration")
        return "\n".join(out) + "\n"
    rows = []
    for method in cfg.methods:
        precision, recall = table[(method, "precision")], table[(method, "recall")]
        cells = []
        for parts in group_slices.values():
            pairs = [
                (p, r)
                for part in parts
                for p, r in zip(precision[part], recall[part])
                if p is not None and r is not None
            ]
            for criterion in ("SC1", "SC2"):
                if pairs:
                    cells.append(f"{stats.satisfactory_ratio(pairs, criterion):.2f}%")
                else:
                    cells.append("n/a")
        rows.append([method, *cells])
    headers = ["method"]
    for group in group_slices:
        headers.extend([f"{group} SC1", f"{group} SC2"])
    out.append(_table(headers, rows))
    return "\n".join(out) + "\n"


def build_report(result: ExperimentResult) -> dict[str, str]:
    """Render the report bundle: file name -> text content.

    Pure function of the exported result data; regenerating from a loaded
    results directory reproduces the bundle byte-for-byte.
    """
    methods = set(row.method for row in result.rows)
    if len(methods) < 2:
        raise ValueError("reports need results from at least two methods")
    by_target = _targets_sources(result)
    slices = _target_slices(by_target)
    table = _value_table(result, by_target)
    group_slices = _group_slices(result, slices)
    return {
        "report_scottknott.txt": _report_scott_knott(result, table, group_slices),
        "report_wtl.txt": _report_wtl(result, table, slices),
        "report_diversity.txt": _report_diversity(result, by_target),
        "report_unidentified.txt": _report_unidentified(result),
        "report_satisfactory.txt": _report_satisfactory(result, table, group_slices),
    }


def write_report(report: dict[str, str], out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in sorted(report):
        path = out / name
        path.write_text(report[name])
        paths.append(path)
    return paths
