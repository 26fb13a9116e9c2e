"""Defect dataset loading, validation, and source/target pair enumeration.

A dataset is a numeric metric matrix over program modules plus a binary
defect label per module. Groups of datasets that share a metric set are
homogeneous with each other; prediction pairs are only formed between
datasets whose metric-name sets differ.

Every input file, a results directory's included, is read by one function,
``read_input``, and every input fault found here is a ``DatasetError``.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: LOC-style metric names used by the five public benchmark groups.
KNOWN_LOC_METRICS = (
    "LOC_EXECUTABLE",      # NASA
    "executable_loc",      # SOFTLAB
    "ck_oo_numberOfLinesOfCode",  # AEEEM
    "CountLineCode",       # ReLink
    "loc",                 # PROMISE
)

LABEL_COLUMN_NAMES = frozenset({"bug", "bugs", "label", "defective", "isdefective"})

_TRUE_LABELS = frozenset({"true", "y", "yes", "buggy", "defective", "clean_buggy"})
_FALSE_LABELS = frozenset({"false", "n", "no", "clean", "non-defective", "nondefective"})


class DatasetError(ValueError):
    """The one error for a bad input file or dataset. The message names the
    fault and, for a file, the file and, where there is one, the line."""


def _check_metrics(group_name: str, metric_names: Sequence[str], loc_metric: str) -> None:
    """At least one metric, unique names, and ``loc_metric`` among them."""
    if not metric_names:
        raise DatasetError("schema has no metrics")
    if len(set(metric_names)) != len(metric_names):
        raise DatasetError(f"duplicate metric names in group {group_name!r}")
    if loc_metric not in metric_names:
        raise DatasetError(f"loc metric {loc_metric!r} not among metrics of group {group_name!r}")


@dataclass(frozen=True, eq=False)
class DefectDataset:
    """One project's metric matrix and binary labels, one row per module,
    with its metric names, its LOC metric and its group. A dataset equals
    only itself, since its arrays have no single truth value."""

    name: str
    group_name: str
    metric_names: tuple[str, ...]
    loc_metric: str
    values: np.ndarray          # shape (n_modules, n_metrics), float
    labels: np.ndarray          # shape (n_modules,), bool, True = defective
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "metric_names", tuple(self.metric_names))
        _check_metrics(self.group_name, self.metric_names, self.loc_metric)
        values = np.asarray(self.values, dtype=float)
        labels = np.asarray(self.labels, dtype=bool)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        if values.ndim != 2:
            raise DatasetError(f"dataset {self.name!r}: values of shape {values.shape} "
                               f"are not a module x metric matrix")
        n, n_columns = values.shape
        if n == 0:
            raise DatasetError(f"dataset {self.name!r} has no modules")
        if n_columns != len(self.metric_names):
            raise DatasetError(f"dataset {self.name!r}: {n_columns} columns vs "
                               f"{len(self.metric_names)} schema metrics")
        if labels.shape != (n,):
            raise DatasetError(f"dataset {self.name!r}: row/label count mismatch")
        if not np.all(np.isfinite(values)):
            raise DatasetError(f"dataset {self.name!r} contains non-finite metric values")
        values.setflags(write=False)
        labels.setflags(write=False)

    @property
    def n_modules(self) -> int:
        return self.values.shape[0]

    def metric_index(self, name: str) -> int:
        return self.metric_names.index(name)

    def column(self, metric: str) -> np.ndarray:
        return self.values[:, self.metric_index(metric)]

    def derived(self, fn: Callable[[DefectDataset], T]) -> T:
        """``fn(self)``, computed on the first call with ``fn`` and kept with
        this dataset, so work that depends on one dataset is done once. A
        raising ``fn`` keeps nothing, and a ``dataclasses.replace`` copy
        starts with nothing kept."""
        if fn not in self._derived:
            self._derived[fn] = fn(self)
        return self._derived[fn]


def normalize_label(raw: str) -> bool:
    """Map a raw label cell to True (defective) / False (non-defective).

    Accepts 0/1, true/false, Y/N, buggy/clean, and integer bug counts
    (count > 0 means defective).
    """
    text = raw.strip().lower()
    if text in _TRUE_LABELS:
        return True
    if text in _FALSE_LABELS:
        return False
    try:
        count = float(text)
    except ValueError:
        count = math.nan
    if math.isnan(count):
        raise DatasetError(f"unrecognized label value {raw!r}")
    return count > 0


def read_input(path: Path) -> str:
    """The text of the input file ``path``, UTF-8 with a leading byte-order
    mark skipped and line ends kept as written: the one way the package reads
    a file. Bytes that are not UTF-8 are a ``DatasetError``, ``path:line: not
    UTF-8 (reason)``, lines ending at ``\\n``, ``\\r`` or ``\\r\\n``."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        head = exc.object[:exc.start]  # after the byte-order mark
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise DatasetError(f"{path}:{line}: not UTF-8 ({exc.reason})") from None


def _parse_arff(path: Path, text: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Return (attribute names, (line number, data row) pairs) from the
    arff-subset document ``text`` read from ``path``, which header errors name.

    Only the @attribute/@data structure is honored; the last attribute is
    the class.
    """
    header: list[str] = []
    rows: list[tuple[int, list[str]]] = []
    in_data = False
    # csv's record rule: a line ends only at \n, \r or \r\n
    for number, line in enumerate(io.StringIO(text, newline=""), start=1):
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        lower = line.lower()
        if in_data:
            rows.append((number, [c.strip() for c in line.split(",")]))
        elif lower.startswith("@attribute"):
            rest = line[len("@attribute"):].strip()
            if not rest:
                raise DatasetError(f"{path}:{number}: @attribute without a name")
            if rest.startswith(("'", '"')):
                end = rest.find(rest[0], 1)
                if end < 0:
                    raise DatasetError(f"{path}:{number}: unterminated quoted attribute name")
                header.append(rest[1:end])
            else:
                header.append(rest.split()[0])
        elif lower.startswith("@data"):
            in_data = True
    if not header:
        raise DatasetError(f"{path}: arff file has no @attribute declarations")
    return header, rows


def csv_records(path: Path, text: str) -> list[tuple[int, list[str]]]:
    """Each record of the CSV ``text`` read from ``path``, with the line it ends
    on. A record csv cannot read raises ``DatasetError`` at the line it starts on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    records = []
    try:
        for fields in reader:
            records.append((reader.line_num, fields))
    except csv.Error as exc:  # e.g. a field beyond csv's field limit
        raise DatasetError(f"{path}:{records[-1][0] + 1 if records else 1}: {exc}") from None
    return records


def plain_lines(text: str) -> list[str] | None:
    """The lines of the CSV ``text`` when it is plain: no quote, no NUL, no
    carriage return outside a ``\\r\\n`` line end and no line longer than
    ``csv.field_size_limit()``. Each line split at its commas is then the
    record ``csv.reader`` reads from it, a blank line being a blank record,
    and a final line end leaves an empty last line. This is the one rule by
    which the package splits a CSV text without ``csv``; any other text
    gives None."""
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    return lines


def load_dataset(
    path: str | Path, *, group_name: str = "unknown-group", loc_metric: str | None = None
) -> DefectDataset:
    """Load one dataset file into a validated DefectDataset named after its stem.

    A ``.arff`` file (in any case) is an arff subset whose last attribute is
    the class; any other file is CSV with a header row and a label column
    named bug/bugs/label/defective/isDefective (case-insensitive). The
    metric names come from the header, with ``loc_metric`` (or a known LOC
    name, else the first metric) as the LOC column. The file is read by
    ``read_input``. A CSV text that ``plain_lines`` accepts is split at its
    commas one line at a time, as its records are taken, which gives the
    records ``csv`` would; any other CSV text is read by ``csv_records``.
    Blank records are skipped either way. An error names the file, and a
    row error, an unreadable CSV record included, also its line; the
    messages do not depend on the path taken.
    """
    path = Path(path)
    text = read_input(path)  # a quoted carriage return stays in its cell
    if path.suffix.lower() == ".arff":
        header, rows = _parse_arff(path, text)
        label_index = len(header) - 1
    else:
        lines = plain_lines(text)
        # split one line at a time, so only one record's cells exist at once
        records = (csv_records(path, text) if lines is None
                   else ((number, line.split(",")) for number, line in enumerate(lines, start=1)))
        rows = ((line, row) for line, row in records if any(c.strip() for c in row))
        first = next(rows, None)
        if first is None:
            raise DatasetError(f"{path}: empty file")
        header = first[1]
        matches = [i for i, h in enumerate(header) if h.strip().lower() in LABEL_COLUMN_NAMES]
        if not matches:
            raise DatasetError(f"{path}: no label column among {header}")
        label_index = matches[0]
    metric_names = tuple(h.strip() for i, h in enumerate(header) if i != label_index)
    if loc_metric is None:
        # a known LOC name, else the first metric; a file without a metric
        # has none, and _check_metrics rejects it
        loc_metric = next((m for m in (*KNOWN_LOC_METRICS, *metric_names) if m in metric_names), "")
    # the header's faults come before any row's
    try:
        _check_metrics(group_name, metric_names, loc_metric)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None

    n_cols = len(header)
    lines: list[int] = []
    labels: list[bool] = []
    flat: list[float] = []  # the metric cells, row after row
    for line, row in rows:
        if len(row) != n_cols:
            raise DatasetError(f"{path}:{line}: {len(row)} cells, expected {n_cols}")
        try:
            labels.append(normalize_label(row.pop(label_index)))
        except DatasetError as exc:
            raise DatasetError(f"{path}:{line}: {exc}") from None
        try:
            flat += map(float, row)
        except ValueError:
            for c, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise DatasetError(
                        f"{path}:{line}: non-numeric cell {cell!r} in metric {metric_names[c]!r}"
                    ) from None
        lines.append(line)
    if not lines:
        raise DatasetError(f"{path}: no data rows")
    values = np.array(flat).reshape(len(lines), n_cols - 1)
    non_finite = np.argwhere(~np.isfinite(values))
    if len(non_finite):
        r, c = non_finite[0]
        raise DatasetError(f"{path}:{lines[r]}: non-finite value in metric {metric_names[c]!r}")
    return DefectDataset(path.stem, group_name, metric_names, loc_metric, values, labels)


def dataset_stats(d: DefectDataset) -> tuple[int, int, float]:
    """(module count, defective count, percent defective to two decimals)."""
    n = d.n_modules
    k = int(np.sum(d.labels))
    return n, k, round(100.0 * k / n, 2)


def enumerate_combinations(datasets: Sequence[DefectDataset]) -> list[tuple[str, str]]:
    """Every ordered (source, target) name pair whose metric-name sets
    differ, sorted by target then source name. Fewer than two metric sets
    give no pair.
    """
    metric_sets = {d.name: frozenset(d.metric_names) for d in datasets}
    names = sorted(metric_sets)
    return [
        (s, t)
        for t in names
        for s in names
        if s != t and metric_sets[s] != metric_sets[t]
    ]


def effort_values(d: DefectDataset) -> np.ndarray:
    """Per-module inspection effort: the LOC column with values <= 0 clamped to 1."""
    loc = d.column(d.loc_metric).copy()
    loc[loc <= 0] = 1.0
    return loc


@dataclass(frozen=True)
class GroupSpec:
    """One section of a dataset manifest."""

    name: str
    loc_metric: str
    files: tuple[Path, ...]


def read_ini(path: Path) -> configparser.ConfigParser:
    """Parse the INI file ``path``, read by ``read_input``, with universal newlines.
    A line that does not parse, a missing first ``[section]`` header and a
    repeated section or key raise ``DatasetError`` with the file and line."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(read_input(path), newline=None))
    except configparser.MissingSectionHeaderError as exc:
        raise DatasetError(f"{path}:{exc.lineno}: no [section] header before this line") from None
    except configparser.ParsingError as exc:
        raise DatasetError(f"{path}:{exc.errors[0][0]}: not a 'key = value' line") from None
    except configparser.DuplicateSectionError as exc:
        raise DatasetError(f"{path}:{exc.lineno}: repeats section [{exc.section}]") from None
    except configparser.DuplicateOptionError as exc:
        raise DatasetError(f"{path}:{exc.lineno}: repeats {exc.option!r} in [{exc.section}]") from None
    return parser


def read_manifest(path: str | Path) -> list[GroupSpec]:
    """Parse a group manifest: one section per group, key-value entries.

    Keys: ``loc_metric``, ``files`` (whitespace- or comma-separated paths
    relative to the manifest, at least one) and an optional ``granularity``
    of any value, which nothing reads. Any other key, a group without
    ``loc_metric`` or a group without a file raises ``DatasetError`` naming
    the manifest and the group.
    """
    path = Path(path)
    parser = read_ini(path)
    groups = []
    for section in parser.sections():
        entries = parser[section]
        for key in entries:
            if key not in ("loc_metric", "granularity", "files"):
                raise DatasetError(f"{path}: unknown key {key!r} in group [{section}]")
        if "loc_metric" not in entries:
            raise DatasetError(f"{path}: group [{section}] is missing 'loc_metric'")
        raw_files = entries.get("files", "").replace(",", " ").split()
        if not raw_files:
            raise DatasetError(f"{path}: group [{section}] lists no file")
        files = tuple(path.parent / f for f in raw_files)
        groups.append(GroupSpec(section, entries["loc_metric"], files))
    if not groups:
        raise DatasetError(f"manifest {path} declares no groups")
    return groups


def load_manifest_datasets(path: str | Path) -> list[DefectDataset]:
    """Load every dataset listed in a manifest. Each file loads on its own,
    with the group's name and LOC metric; each later file of a group must
    then have its first file's metric columns, or ``DatasetError`` names
    that file. Two files with one name (``a/x.csv`` and ``b/x.csv``) are an
    error that names the manifest and both files, raised before any file
    is read."""
    path = Path(path)
    groups = read_manifest(path)
    seen: dict[str, Path] = {}
    for file in (file for group in groups for file in group.files):
        name = file.stem  # load_dataset's dataset name
        if name in seen:
            raise DatasetError(f"{path}: duplicate dataset name {name!r}: {seen[name]} and {file}")
        seen[name] = file
    datasets = []
    for group in groups:
        names = None
        for file in group.files:
            d = load_dataset(file, group_name=group.name, loc_metric=group.loc_metric)
            names = names or d.metric_names
            if d.metric_names != names:
                if len(d.metric_names) != len(names):
                    raise DatasetError(f"{file}: {len(d.metric_names)} metric columns "
                                       f"vs {len(names)} in group {group.name!r}")
                raise DatasetError(f"{file}: metric names do not match group {group.name!r}")
            datasets.append(d)
    return datasets
