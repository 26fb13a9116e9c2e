"""Reproducible experiment harness.

Runs every configured method over every heterogeneous (source, target)
combination, records one value per (method, measure) and combination in one
table (``ExperimentResult``), and reads the table into the report tables:
Scott-Knott rankings, win/tie/loss matrices, McNemar diversity counts,
unidentified-defective counts, and satisfactory ratios.

``METHODS`` is the one table of the built-in methods: each ``Method`` gives a
method's category, how it is called, and the label variants it exports. Any
other name is a method registered here (``register_external_method``): a
heterogeneous method on the plan's source and target datasets that exports
its own name, so the reports read only the table, never the registry. Every
call goes through one guard (``_outcome``): an exception, a failed
``hdp.HdpOutcome`` or a prediction that is not one label per target module
becomes the method's failure on that plan, recorded in every measure's row,
and the run goes on; otherwise it scores the measures with
``measures.compute_measure`` and picks out the variants.

Unsupervised methods ignore the source project: each runs once per target,
and its result, a failure included, is copied to every plan of that target so
the rows align one-for-one with the heterogeneous methods' rows. Work that
depends on one dataset is kept with it (``DefectDataset.derived``): hdp1's
sorted columns and metric selection, and a target's efforts. scenario2 first
runs hdp1 on every plan and keeps the plans where it succeeds.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import chain, combinations, compress, product, repeat
from operator import not_
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import hdp, measures, stats, udp
from .datasets import (
    DefectDataset,
    csv_records,
    effort_values,
    enumerate_combinations,
    load_manifest_datasets,
    plain_lines,
    read_ini,
    read_input,
)

# scenario -> the method whose failed plans it leaves out
SCENARIOS = {"scenario1": None, "scenario2": "hdp1"}


@dataclass(frozen=True)
class Method:
    """A method's category, how it is called, and the label variants it exports.

    - ``category``: "hdp" learns from each plan's source; "udp" ignores the
      source, so it runs, and is scored, once per target.
    - ``function``: the call is ``function`` of the ``hdp`` module on the
      plan's source and target ("hdp"), or of the ``udp`` module on the
      target alone ("udp"). The function is looked up in its module at each
      call, never stored, so a replaced module binding (a tracer's, a
      test's) is the one that runs.
    - ``choice``: the call returns one prediction per choice, keyed by
      choice, and this maps each measure to the key of the prediction it
      scores. Without it, the call's one prediction serves every measure.
      Either way the method is called once per plan (per target for "udp").
    - ``variants``: exported label variant -> the measure whose prediction
      it is. By default a method exports its f1 prediction under its own name.
    """

    category: str
    function: str
    choice: dict[str, str] | None = None
    variants: dict[str, str] | None = None


METHODS = {
    "hdp1": Method("hdp", "hdp1_predict"),
    "hdp5": Method("hdp", "hdp5_predict"),
    "cla": Method("udp", "cla_predict"),
    "clami": Method("udp", "clami_predict"),
    "spectral": Method("udp", "spectral_predict"),
    # size ranking: larger-first for the classification measures,
    # smaller-first for the effort-aware ones
    "manual": Method("udp", "manual_rank", choice={
        m: "down" if m in ("precision", "recall", "f1", "auc") else "up"
        for m in measures.MEASURE_IDS
    }),
    # precision and recall ride on the F1-oriented metric choice
    "bestmetric": Method(
        "udp", "best_metric_oracle",
        choice={m: "f1" if m in ("precision", "recall") else m for m in measures.MEASURE_IDS},
        variants={"bestmetric-auc": "auc", "bestmetric-f1": "f1"},
    ),
}
# a registered method: _EXTERNAL_METHODS[name](source, target)
_REGISTERED = Method("hdp", "")

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
    scenario: str = "scenario1"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "measures", tuple(self.measures))
        if not self.methods or not self.measures:
            raise ValueError("methods and measures must be non-empty")
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
    one exports is refused, and so is a name that a config file's
    ``methods`` list does not read back as one name: an empty one, or one
    holding whitespace or a comma.
    """
    if name.replace(",", " ").split() != [name]:
        raise ValueError(f"method name {name!r} must be one word without commas")
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
    """Read a flat key-value experiment config ([experiment] section).
    A key that is not a config field raises ``ValueError`` naming the file."""
    path = Path(path)
    parser = read_ini(path)
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    section = parser["experiment"]
    # a key the section leaves out keeps ExperimentConfig's default
    kinds = dict(methods=tuple, measures=tuple, scenario=str, seed=int)
    for key in section:
        if key not in ("manifest", "output_dir", "effort_fraction", *kinds):
            raise ValueError(f"{path}: unknown key {key!r} in [experiment]")
    # retired: every config.ini exported while the budget was a setting holds it at 0.2
    fixed = repr(measures.EFFORT_FRACTION)
    if section.get("effort_fraction", fixed) != fixed:
        raise ValueError(f"{path}: effort_fraction is fixed at {fixed}")
    if "manifest" not in section:
        raise ValueError(f"{path}: missing manifest entry")

    def _parse(key: str, kind: type):
        if kind is tuple:
            return tuple(section[key].replace(",", " ").split())
        try:
            return kind(section[key])
        except ValueError:  # only int() can fail
            raise ValueError(f"{path}: {key} = {section[key]!r} is not an integer") from None

    manifest = section["manifest"]
    if not Path(manifest).is_absolute():
        manifest = str(path.parent / manifest)
    output_dir = section.get("output_dir", "results")
    if not Path(output_dir).is_absolute():
        output_dir = str(path.parent / output_dir)
    fields = dict(manifest=manifest, output_dir=output_dir)
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
    method: its block of the value table (a value, NaN where absent, and a
    failure, "" where none, per measure), the exported label variants, and
    the method's own failure, if it failed."""

    values: list[float]
    failures: list[str]
    variant_labels: dict[str, np.ndarray]  # variant name -> bool flag per module
    failure: str | None = None


@dataclass
class ExperimentResult:
    """A run's results as one value table.

    ``plans`` is the report's plan order: targets sorted, each target's
    sources sorted. ``values[(method, measure)]`` holds the value on every
    plan in that order, NaN where it is absent, and ``failures[(method,
    measure)]`` the recorded failure, "" where there is none; both have one
    entry per configured (method, measure), in config order. results.csv
    writes one block of rows per plan in this order, each method x measure in
    config order.
    """

    config: ExperimentConfig
    plans: list[tuple[str, str]]  # (source, target)
    values: dict[tuple[str, str], np.ndarray]
    failures: dict[tuple[str, str], np.ndarray]
    target_groups: dict[str, str]
    target_truth: dict[str, np.ndarray]  # target -> bool defect flag per module
    predictions: dict[tuple[str, str, str], np.ndarray]  # (variant, source, target) -> flags
    n_plans_total: int = 0

    @classmethod
    def from_blocks(
        cls, config: ExperimentConfig, plans: Sequence[tuple[str, str]], values, failures,
        target_groups: dict[str, str], target_truth: dict[str, np.ndarray],
        predictions: dict[tuple[str, str, str], np.ndarray], n_plans_total: int,
    ) -> ExperimentResult:
        """The result of ``plans``, in any order, whose rows of ``values``
        (NaN where absent) and ``failures`` ("" where none) hold each plan's
        block: one entry per method x measure in config order."""
        cells = list(product(config.methods, config.measures))
        order = sorted(range(len(plans)), key=lambda k: plans[k][::-1])
        # one contiguous row per cell, in report plan order
        value_table = np.array(values, dtype=float).reshape(len(plans), len(cells))[order].T.copy()
        failure_table = np.array(failures, dtype=object).reshape(len(plans), len(cells))[order].T.copy()
        return cls(config, [plans[k] for k in order], dict(zip(cells, value_table)),
                   dict(zip(cells, failure_table)), target_groups, target_truth, predictions,
                   n_plans_total)

    def rows(self) -> Iterator[ResultRow]:
        """The results.csv rows, plan by plan, computed from the table."""
        columns = [(*cell, values.tolist(), failures.tolist())
                   for (cell, values), failures in zip(self.values.items(), self.failures.values())]
        for k, (source, target) in enumerate(self.plans):
            for method, measure, values, failures in columns:
                value = values[k]
                yield ResultRow(method, source, target, measure,
                                None if math.isnan(value) else value, failures[k] or None)


def _outcome(
    name: str, source: DefectDataset, target: DefectDataset, measure_ids: Sequence[str]
) -> MethodResult:
    """``name`` called on the plan and scored on every measure of
    ``measure_ids``, with its exported variants. If it fails (a failed
    ``HdpOutcome``, an exception, or a prediction that is not one label per
    target module), the failure fills every measure. An unsupervised method
    is called on ``target`` alone."""
    method = _method(name)
    if method is _REGISTERED:
        fn = _EXTERNAL_METHODS[name]
    else:
        fn = getattr(hdp if method.category == "hdp" else udp, method.function)
    wanted = [*measure_ids, *_variants(name).values()]
    failure = None
    try:
        output = fn(source, target) if method.category == "hdp" else fn(target)
        if isinstance(output, hdp.HdpOutcome) and not output.ok:
            failure = output.failure
        else:
            chosen = {m: output[method.choice[m]] if method.choice else output for m in wanted}
            # an HdpOutcome or udp.BestMetric holds its Prediction
            preds = {m: p if isinstance(p, udp.Prediction) else p.predictions for m, p in chosen.items()}
            if any(len(p.scores) != target.n_modules for p in preds.values()):
                failure = "error: prediction count mismatch"
    except Exception as exc:  # one bad method call must not abort the run
        failure = f"error: {exc}"
    if failure is not None:
        return MethodResult([math.nan] * len(measure_ids), [failure] * len(measure_ids), {}, failure)
    efforts = target.derived(effort_values)
    scored = [measures.compute_measure(m, preds[m].scores, preds[m].predicted, efforts, target.labels)
              for m in measure_ids]
    return MethodResult([math.nan if value is None else value for value, _ in scored],
                        [reason or "" for _, reason in scored],
                        {v: preds[m].predicted for v, m in _variants(name).items()})


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
    results: dict[tuple[str, str, str], MethodResult] = {}

    def run(name: str, source: str, target: str) -> MethodResult:
        """``name`` on the plan (``source``, ``target``), run and scored once
        per plan, or once per target for an unsupervised method."""
        method = _method(name)
        key = (name, source if method.category == "hdp" else "", target)
        if key not in results:
            # scenario2's filter method writes no rows unless it is configured
            measure_ids = cfg.measures if name in cfg.methods else ()
            results[key] = _outcome(name, datasets[source], datasets[target], measure_ids)
        return results[key]

    plans = all_plans
    if SCENARIOS[cfg.scenario] is not None:
        plans = [p for p in all_plans if run(SCENARIOS[cfg.scenario], *p).failure is None]

    values: list[float] = []
    failures: list[str] = []
    predictions: dict[tuple[str, str, str], np.ndarray] = {}
    for (source, target), method in product(plans, cfg.methods):
        res = run(method, source, target)
        values += res.values
        failures += res.failures
        for variant, flags in res.variant_labels.items():
            predictions[(variant, source, target)] = flags

    targets = sorted({target for _, target in plans})
    target_groups = {t: datasets[t].group_name for t in targets}
    target_truth = {t: datasets[t].labels for t in targets}
    return ExperimentResult.from_blocks(
        cfg, plans, values, failures, target_groups, target_truth, predictions, len(all_plans)
    )


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
        f"scenario = {cfg.scenario}\n"
        f"seed = {cfg.seed}\n"
    )


def method_failures(result: ExperimentResult) -> dict[str, int]:
    """Plans per method with at least one row that records a failure: the
    method's own failure on the plan, or a measure the target leaves
    undefined (``NoDefects``, ``SingleClassTruth``)."""
    failed = {m: np.zeros(len(result.plans), dtype=bool) for m in result.config.methods}
    for (method, _), reasons in result.failures.items():
        failed[method] |= reasons != ""
    return {m: n for m, plans in sorted(failed.items()) if (n := int(plans.sum()))}


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
        f"rows: {len(result.plans) * len(result.values)}",
        "failure_plans_per_method:",
    ]
    lines += [f"  {m}: {n}" for m, n in method_failures(result).items()] or ["  none"]
    return "\n".join(lines) + "\n"


def _bits(flags: np.ndarray) -> str:
    """A bool flag vector as its '0'/'1' label text."""
    return np.where(flags, b"1", b"0").tobytes().decode("ascii")


def _write_csv(path: Path, columns: tuple[str, ...], records: Iterable[Sequence[str]]) -> Path:
    """Write the header ``columns``, then ``records``: the writer that ``_csv_columns`` reads.

    csv.writer quotes a field with a comma, a quote or a line feed, but not
    one whose only line break is a carriage return, where a reader ends the
    record: a record with a carriage return is written with every field quoted.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    records = list(records)
    writer.writerows(records)
    if "\r" in buffer.getvalue():
        buffer = io.StringIO()
        plain = csv.writer(buffer, lineterminator="\n")
        quoted = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for record in [columns, *records]:
            (quoted if any("\r" in field for field in record) else plain).writerow(record)
    path.write_text(buffer.getvalue(), encoding="utf-8")
    return path


def export_results(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write the results directory, as UTF-8 whatever the locale: config
    echo, flat results file, prediction/truth label files, and the run summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.ini"
    config_path.write_text(_config_lines(result.config), encoding="utf-8")
    results_path = _write_csv(out / "results.csv", RESULT_COLUMNS, (
        [row.method, row.source, row.target, row.measure,
         "" if row.value is None else repr(row.value), row.failure or ""]
        for row in result.rows()
    ))
    pred_path = _write_csv(out / "predictions.csv", PREDICTION_COLUMNS, (
        [*key, _bits(result.predictions[key])] for key in sorted(result.predictions)
    ))
    targets_path = _write_csv(out / "targets.csv", TARGET_COLUMNS, (
        [t, result.target_groups[t], _bits(result.target_truth[t])]
        for t in sorted(result.target_truth)
    ))
    summary_path = out / "summary.txt"
    summary_path.write_text(_summary_text(result), encoding="utf-8")
    return [config_path, results_path, pred_path, targets_path, summary_path]


def _csv_columns(path: Path, columns: tuple[str, ...]) -> tuple[list[Sequence[str]], Sequence[int]]:
    """The fields of each column of the records after the exact header
    ``columns``, and the line on which each record ends, read in the one
    parse. A text that ``datasets.plain_lines`` accepts, whose first line is
    that header and whose every line holds ``len(columns) - 1`` commas, is
    split at its commas, and record k ends on line k + 2; any other text is
    read by ``datasets.csv_records``, whose errors name the file and line.
    The file is read by ``datasets.read_input``."""
    width = len(columns)
    text = read_input(path)
    if (lines := plain_lines(text)) is not None:
        if not lines[-1]:
            lines.pop()  # the text's last line end
        if lines[:1] == [",".join(columns)] and set(map(str.count, lines, repeat(","))) == {width - 1}:
            fields = ",".join(lines).split(",")
            return [fields[width + c::width] for c in range(width)], range(2, len(lines) + 1)
    (_, header), *rest = csv_records(path, text) or [(1, [])]
    if tuple(header) != columns:
        raise ValueError(f"{path}:1: expected header {','.join(columns)}, got {header}")
    lines, records = zip(*rest) if rest else ((), ())
    if set(map(len, records)) - {width}:
        k = _first(len(record) != width for record in records)
        raise ValueError(f"{path}:{lines[k]}: expected {width} fields, got {len(records[k])}")
    return list(zip(*records)) or [()] * width, lines


def _first(flags: Iterable[object]) -> int:
    """The index of the first true flag."""
    return next(k for k, flag in enumerate(flags) if flag)


def _reject_unknown(path: Path, lines: Sequence[int], noun: str, names: Sequence[str],
                    known: Collection[str], complaint: str) -> None:
    """Raise at the first record whose name in ``names`` is not in ``known``:
    ``path:line: noun 'name' complaint``, with each record's line from ``lines``."""
    if unknown := set(names).difference(known):
        k = _first(name in unknown for name in names)
        raise ValueError(f"{path}:{lines[k]}: {noun} {names[k]!r} {complaint}")


def _reject_repeats(path: Path, lines: Sequence[int], columns: Sequence[Sequence[str]]) -> None:
    """Raise at the first record whose key, its fields in ``columns``,
    repeats an earlier record's: ``path:line: repeats line N (key)``, with
    each record's line from ``lines``."""
    first: dict[tuple[str, ...], int] = {}
    for k, key in enumerate(zip(*columns)):
        if (j := first.setdefault(key, k)) != k:
            raise ValueError(f"{path}:{lines[k]}: repeats line {lines[j]} ({' '.join(key)})")


def _flags(path: Path, lines: Sequence[int], bits: Sequence[str]) -> list[np.ndarray]:
    """The bool flag vector of each label text, which must hold only '0'/'1';
    an error names the record's line from ``lines``."""
    text = "".join(bits)
    if text.strip("01"):
        k = _first(labels.strip("01") for labels in bits)
        raise ValueError(f"{path}:{lines[k]}: labels must contain only 0 and 1")
    flags = np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1")
    ends = np.cumsum(list(map(len, bits))).tolist()
    return [flags[start:end] for start, end in zip([0, *ends], ends)]


def _result_blocks(
    path: Path, cfg: ExperimentConfig, target_truth: dict[str, np.ndarray]
) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    """results.csv's plans in order of first appearance and their value and
    failure blocks (``ExperimentResult.from_blocks``), filled by position:
    plan index x cell index, where a cell is a configured (method, measure).

    Every row must name a target of ``target_truth`` and a configured method
    and measure, repeat no earlier row's cell and hold a finite number or no
    value, and every plan must have every cell. One count per position finds
    both a repeat (above 1) and a missing cell (0). Then every row must hold
    exactly one of a value and a failure reason, and a value must lie in
    [0, 1], or for ``ifa`` in [0, n - 1] on a target of n modules. Last, an
    ``ifa`` value must be a whole number.
    """
    (methods, sources, target_ids, measure_ids, texts, failures), lines = _csv_columns(
        path, RESULT_COLUMNS)
    _reject_unknown(path, lines, "target", target_ids, target_truth, "is not in targets.csv")
    _reject_unknown(path, lines, "method", methods, cfg.methods, "is not configured")
    _reject_unknown(path, lines, "measure", measure_ids, cfg.measures, "is not configured")
    cells = list(product(cfg.methods, cfg.measures))
    cell_ids = {cell: c for c, cell in enumerate(cells)}
    plans = list(dict.fromkeys(zip(sources, target_ids)))
    starts = {plan: p * len(cells) for p, plan in enumerate(plans)}
    positions = np.fromiter(map(int.__add__, map(starts.__getitem__, zip(sources, target_ids)),
                                map(cell_ids.__getitem__, zip(methods, measure_ids))),
                            np.intp, len(texts))
    fills = np.bincount(positions, minlength=len(plans) * len(cells))
    if (fills > 1).any():
        _reject_repeats(path, lines, (methods, sources, target_ids, measure_ids))
    try:
        numbers = np.array([float(text) if text else math.nan for text in texts])
    except ValueError:
        for k, text in enumerate(texts):
            try:
                float(text or 0)
            except ValueError:
                raise ValueError(f"{path}:{lines[k]}: value {text!r} is not a number") from None
    absent = np.fromiter(map(not_, texts), bool, len(texts))
    if not (finite := np.isfinite(numbers) | absent).all():
        k = _first(~finite)
        raise ValueError(f"{path}:{lines[k]}: value {texts[k]!r} is not a finite number")
    if not fills.all():
        plan, cell = divmod(_first(fills == 0), len(cells))
        (source, target), (method, measure) = plans[plan], cells[cell]
        raise ValueError(f"{path}: plan {source} => {target} has no {method} {measure} row")
    if not (one := absent == np.fromiter(map(bool, failures), bool, len(failures))).all():
        k = _first(~one)
        raise ValueError(f"{path}:{lines[k]}: " + (
            "holds neither a value nor a failure" if absent[k]
            else f"holds both value {texts[k]!r} and failure {failures[k]!r}"))
    # ifa counts the non-defective modules ranked before the first defective one
    is_ifa = np.array([m == "ifa" for _, m in cells])[positions % len(cells)]
    n_modules = np.array([len(target_truth[target]) for _, target in plans], dtype=int)
    highs = np.where(is_ifa, n_modules[positions // len(cells)] - 1, 1)
    if (outside := (numbers < 0) | (numbers > highs)).any():
        k = _first(outside)
        raise ValueError(f"{path}:{lines[k]}: {measure_ids[k]} value {texts[k]!r} "
                         f"is outside [0, {highs[k]}]")
    # an absent value is NaN, whose remainder is no fraction
    if (fraction := is_ifa & (numbers % 1 > 0)).any():
        k = _first(fraction)
        raise ValueError(f"{path}:{lines[k]}: ifa value {texts[k]!r} is not a whole number")
    values = np.empty(len(positions))
    values[positions] = numbers
    blocks = np.empty(len(positions), dtype=object)
    blocks[positions] = failures
    return plans, values, blocks


def load_results(results_dir: str | Path) -> ExperimentResult:
    """Reconstruct an ExperimentResult from an exported results directory.

    The files are checked: exact headers; only '0'/'1' labels, and every
    prediction as long as its target's truth; no repeated target in
    targets.csv and no repeated (variant, source, target) in
    predictions.csv; results.csv's rows as ``_result_blocks`` checks them;
    a plan in results.csv for every target; and last, predictions.csv
    against results.csv: every row names a configured method's variant and a
    plan of results.csv, and wherever a method has a value on a plan, each
    of its variants has a prediction there. With one fault in the files,
    the error names it and its line; with several, it names one of them."""
    results_dir = Path(results_dir)
    cfg = replace(load_config(results_dir / "config.ini"), output_dir=str(results_dir))
    targets_path = results_dir / "targets.csv"
    (targets, groups, bits), target_lines = _csv_columns(targets_path, TARGET_COLUMNS)
    target_groups = dict(zip(targets, groups))
    if len(target_groups) != len(targets):
        _reject_repeats(targets_path, target_lines, (targets,))
    target_truth = dict(zip(targets, _flags(targets_path, target_lines, bits)))
    path = results_dir / "predictions.csv"
    (variants, sources, pred_targets, bits), lines = _csv_columns(path, PREDICTION_COLUMNS)
    _reject_unknown(path, lines, "target", pred_targets, target_truth, "is not in targets.csv")
    keys = list(zip(variants, sources, pred_targets))
    if len(set(keys)) != len(keys):
        _reject_repeats(path, lines, (variants, sources, pred_targets))
    flags = _flags(path, lines, bits)
    n_modules = [len(target_truth[target]) for target in pred_targets]
    if (lengths := list(map(len, bits))) != n_modules:
        k = _first(map(int.__ne__, lengths, n_modules))
        raise ValueError(
            f"{path}:{lines[k]}: {lengths[k]} labels for a target of {n_modules[k]} modules")
    predictions = dict(zip(keys, flags))
    plans, values, failures = _result_blocks(results_dir / "results.csv", cfg, target_truth)
    # a run writes only the targets of its plans
    _reject_unknown(targets_path, target_lines, "target", targets,
                    {target for _, target in plans}, "has no plan in results.csv")
    summary = results_dir / "summary.txt"
    totals = [
        (line, text.split(":", 1)[1].strip())
        for line, text in enumerate(read_input(summary).splitlines(), 1)
        if text.startswith("plans_total:")
    ]
    if not totals:
        raise ValueError(f"{summary}: missing plans_total line")
    line, total = totals[0]
    try:
        n_total = int(total)
    except ValueError:
        raise ValueError(f"{summary}:{line}: plans_total {total!r} is not an integer") from None
    if n_total < len(plans):
        raise ValueError(f"{summary}:{line}: plans_total {n_total} is below the "
                         f"{len(plans)} plans in results.csv")
    configured = {variant for method in cfg.methods for variant in _variants(method)}
    _reject_unknown(path, lines, "variant", variants, configured, "is not configured")
    if stray := set(zip(sources, pred_targets)).difference(plans):
        k = _first(plan in stray for plan in zip(sources, pred_targets))
        raise ValueError(f"{path}:{lines[k]}: "
                         f"plan {sources[k]} => {pred_targets[k]} is not in results.csv")
    # a method with a value on a plan ran there; one that ran may leave every measure undefined
    ran = ~np.isnan(values.reshape(len(plans), len(cfg.methods), len(cfg.measures))).all(axis=2)
    exported = [_variants(method) for method in cfg.methods]
    for (source, target), row in zip(plans, ran.tolist()):
        for variant in chain.from_iterable(compress(exported, row)):
            if (variant, source, target) not in predictions:
                raise ValueError(f"{path}: plan {source} => {target} has no {variant} prediction")
    return ExperimentResult.from_blocks(
        cfg, plans, values, failures, target_groups, target_truth, predictions, n_total
    )


# ---------------------------------------------------------------------------
# report generation


def _variant_sides(methods: Sequence[str]) -> tuple[list[str], list[str]]:
    """The hdp and the udp prediction variants of ``methods``, in config order."""
    sides: dict[str, list[str]] = {"hdp": [], "udp": []}
    for m in methods:
        sides[_method(m).category].extend(_variants(m))
    return sides["hdp"], sides["udp"]


def _target_slices(result: ExperimentResult) -> dict[str, slice]:
    """Each target, sorted, -> its plans as a slice of the report's plan order."""
    targets = [target for _, target in result.plans]
    return {t: slice(bisect_left(targets, t), bisect_right(targets, t)) for t in dict.fromkeys(targets)}


def _group_plans(result: ExperimentResult) -> dict[str, np.ndarray]:
    """Each dataset group, sorted, -> the positions of its targets' plans."""
    groups = np.array([result.target_groups[target] for _, target in result.plans])
    return {g: np.flatnonzero(groups == g) for g in sorted(set(result.target_groups.values()))}


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


def _scott_knott_section(measure: str, columns: dict[str, np.ndarray], title: str) -> list[str]:
    """The ranking, best first, of each method's ``measure`` values in ``columns``, NaN left out."""
    samples = {m: measures.oriented(measure, column[~np.isnan(column)]) for m, column in columns.items()}
    usable = {m: v for m, v in samples.items() if len(v) >= 2}
    excluded = sorted(set(samples) - set(usable))
    lines = [f"[{title}]"]
    if not usable:
        lines.append("  no method has enough values")
        return lines
    ranking = stats.scott_knott(usable)
    for rank, group in enumerate(ranking.groups, start=1):
        # turned back, an oriented zero mean is -0.0; adding 0.0 prints it as 0.0000
        means = [measures.oriented(measure, ranking.means[m]) + 0.0 for m in group]
        members = ", ".join(f"{m} (mean {mean:.4f})" for m, mean in zip(group, means))
        lines.append(f"  rank {rank}: {members}")
    if excluded:
        lines.append(f"  excluded (fewer than 2 values): {', '.join(excluded)}")
    return lines


def _report_scott_knott(result: ExperimentResult, group_plans) -> str:
    cfg = result.config
    out = [f"scott-knott rankings ({cfg.scenario})", ""]
    for measure in cfg.measures:
        out.append(f"== {measure} ==")
        columns = {m: result.values[(m, measure)] for m in cfg.methods}
        out.extend(_scott_knott_section(measure, columns, "all subjects"))
        for group, plans in group_plans.items():
            samples = {m: column[plans] for m, column in columns.items()}
            out.extend(_scott_knott_section(measure, samples, f"group: {group}"))
        out.append("")
    return "\n".join(out) + "\n"


def wtl_records(first: np.ndarray, second: np.ndarray, slices: Collection[slice]) -> list[stats.WtlRecord]:
    """Per-target win/tie/loss of each row of ``first`` against the same row of ``second``.

    Each row pair is one family: two value-table columns
    (``ExperimentResult.values``, NaN where absent) of one measure, oriented
    by ``measures.oriented`` so that 'win' always means 'performs better'.
    ``slices`` holds one slice of the columns per target (``_target_slices``).
    For each target the paired samples are the plans where both values are
    present. One ``stats.wilcoxon_signed_ranks`` call tests every target of
    every family; raw p-values are BH-corrected within each family, and a
    target with fewer than two pairs is a tie.
    """
    both = ~(np.isnan(first) | np.isnan(second))
    xs, ys = first[both], second[both]
    # every family's pairs in plan order, family after family; a target's
    # pairs lie between the running pair counts at its slice's ends
    ends = np.concatenate(([0], np.cumsum(both)))
    rows = np.arange(len(first))[:, None] * first.shape[1]
    starts = ends[rows + np.array([p.start for p in slices], dtype=int)]
    stops = ends[rows + np.array([p.stop for p in slices], dtype=int)]
    testable = stops - starts >= 2
    starts, stops = starts[testable].tolist(), stops[testable].tolist()
    raw = stats.wilcoxon_signed_ranks(xs - ys, starts, stops).tolist()
    records, lo = [], 0
    for hi in np.cumsum(testable.sum(axis=1)).tolist():
        adjusted = stats.bh_adjust(raw[lo:hi]) if hi > lo else []
        outcomes = [stats.wtl_outcome(p, xs[a:b], ys[a:b])
                    for p, a, b in zip(adjusted, starts[lo:hi], stops[lo:hi])]
        win, loss = outcomes.count("win"), outcomes.count("loss")
        records.append(stats.WtlRecord(win, len(slices) - win - loss, loss))
        lo = hi
    return records


def _report_wtl(result: ExperimentResult, slices) -> str:
    cfg = result.config
    hdp_methods = [m for m in cfg.methods if _method(m).category == "hdp"]
    udp_methods = [m for m in cfg.methods if _method(m).category == "udp"]
    out = [f"win/tie/loss per target: rows vs columns ({cfg.scenario})", ""]
    if not hdp_methods or not udp_methods:
        out.append("needs at least one heterogeneous and one unsupervised method")
        return "\n".join(out) + "\n"
    families = [(measure, h, u) for measure in cfg.measures for h in hdp_methods for u in udp_methods]
    first = np.array([measures.oriented(measure, result.values[(h, measure)]) for measure, h, _ in families])
    second = np.array([measures.oriented(measure, result.values[(u, measure)]) for measure, _, u in families])
    records = iter(wtl_records(first, second, slices.values()))
    for measure in cfg.measures:
        out.append(f"== {measure} ==")
        rows = [[h, *(str(next(records)) for _ in udp_methods)] for h in hdp_methods]
        out.append(_table(["method", *udp_methods], rows))
        out.append("")
    return "\n".join(out) + "\n"


def _report_diversity(result: ExperimentResult, slices, group_plans) -> str:
    hdp_vars, udp_vars = _variant_sides(result.config.methods)
    variants = hdp_vars + udp_vars
    groups = list(group_plans)
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
    for target, part in slices.items():
        sources = [source for source, _ in result.plans[part]]
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
        row = [f"{source} => {target}"]
        for side in (flags[: len(hdp_vars)], flags[len(hdp_vars) :], flags):
            if side:
                missed = int(np.count_nonzero(truth & ~np.any(side, axis=0)))
                row += [str(missed), f"{100 * missed / n:.2f}%"]
            else:  # a side without a method has no count of what it misses
                row += ["n/a", "n/a"]
        rows.append(row)
    if rows:
        out.append(_table(
            ["source => target", "=0 by HDP", "proportion",
             "=0 by UM", "proportion", "=0 by ALL", "proportion"],
            rows,
        ))
    else:
        out.append("no plan has predictions from every configured method")
    return "\n".join(out) + "\n"


def _report_satisfactory(result: ExperimentResult, group_plans) -> str:
    cfg = result.config
    out = ["satisfactory ratio per dataset group (SC1: precision & recall > 75%;"
           " SC2: recall > 70% & precision > 50%)", ""]
    if "precision" not in cfg.measures or "recall" not in cfg.measures:
        out.append("requires the precision and recall measures in the configuration")
        return "\n".join(out) + "\n"
    rows = []
    for method in cfg.methods:
        precision, recall = result.values[(method, "precision")], result.values[(method, "recall")]
        present = ~(np.isnan(precision) | np.isnan(recall))
        cells = []
        for plans in group_plans.values():
            kept = plans[present[plans]]
            pairs = list(zip(precision[kept].tolist(), recall[kept].tolist()))
            cells += [f"{stats.satisfactory_ratio(pairs, criterion):.2f}%" if pairs else "n/a"
                      for criterion in ("SC1", "SC2")]
        rows.append([method, *cells])
    headers = ["method"]
    for group in group_plans:
        headers.extend([f"{group} SC1", f"{group} SC2"])
    out.append(_table(headers, rows))
    return "\n".join(out) + "\n"


def build_report(result: ExperimentResult) -> dict[str, str]:
    """Render the report bundle: file name -> text content.

    Pure function of the exported result data; regenerating from a loaded
    results directory reproduces the bundle byte-for-byte.
    """
    slices = _target_slices(result)
    group_plans = _group_plans(result)
    return {
        "report_scottknott.txt": _report_scott_knott(result, group_plans),
        "report_wtl.txt": _report_wtl(result, slices),
        "report_diversity.txt": _report_diversity(result, slices, group_plans),
        "report_unidentified.txt": _report_unidentified(result),
        "report_satisfactory.txt": _report_satisfactory(result, group_plans),
    }


def write_report(report: dict[str, str], out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in sorted(report):
        path = out / name
        path.write_text(report[name], encoding="utf-8")
        paths.append(path)
    return paths
