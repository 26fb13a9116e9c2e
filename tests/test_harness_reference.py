"""Byte-equal report sections against the earlier report code.

``reference_harness`` holds the Scott-Knott, win/tie/loss, diversity and
satisfactory sections as they were before the harness built them from one
value table, and a per-module loop for the unidentified section. Hypothesis
draws the shape of an ``ExperimentResult`` (targets, groups, sources per
target, methods, measures, scenario, how often values are absent and plans
fail) and a seed that fills in tie-heavy values and labels; every section
must be the same text.

``reference_harness.load_results`` is the loader that parsed one row at a
time and checked every plan's cells again. On the synthetic run's exported
directory, with one fault put into results.csv, the loader must raise the
reference's exact message; on clean rows in any order, its table must equal
the reference's.

``harness._csv_columns`` splits a CSV text on its line ends and commas
when ``datasets.plain_lines`` accepts it; the columns, record lines and
errors must be those of the same text read by ``csv.reader``.
"""

import csv
import io
import math
import shutil
import tempfile
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_harness
from hdpbench import harness, measures
from helpers import write_synthetic_benchmark
from hdpbench.harness import ExperimentConfig, ExperimentResult

# few distinct values give tied samples, tied differences and tied means
TIED_VALUES = np.array([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 1.0])
TRUTH_KINDS = ("mixed", "all_defective", "defect_free")


def build_result(seed, sources, truth, groups, methods, measure_ids, scenario, absent, failed):
    """An ExperimentResult with ``len(sources)`` targets: target i has
    ``sources[i]`` plans, truth of kind ``truth[i]`` and group ``groups[i]``.
    A method fails on a plan with probability ``failed`` (failures, no
    prediction); otherwise each value is absent with probability ``absent``."""
    rng = np.random.default_rng(seed)
    cfg = ExperimentConfig(manifest="manifest.ini", output_dir="out", methods=methods,
                           measures=measure_ids, scenario=scenario)
    target_truth, target_groups, plans = {}, {}, []
    for i, (n_sources, kind) in enumerate(zip(sources, truth)):
        target = f"t{i}"
        n_modules = int(rng.integers(1, 25))
        if kind == "mixed":
            target_truth[target] = rng.random(n_modules) < 0.5
        else:
            target_truth[target] = np.full(n_modules, kind == "all_defective")
        target_groups[target] = f"g{groups[i]}"
        plans += [(f"s{j}", target) for j in range(n_sources)]
    # each method's tied values lie next to its own level, so some pairs of
    # methods differ enough for a win or a loss
    level = {m: int(rng.integers(len(TIED_VALUES))) for m in methods}
    values, failures, predictions = [], [], {}
    ordered = [plans[k] for k in rng.permutation(len(plans))]  # row order must not matter
    for source, target in ordered:
        n_modules = len(target_truth[target])
        for method in methods:
            if rng.random() < failed:
                values += [np.nan] * len(measure_ids)
                failures += ["error: boom"] * len(measure_ids)
                continue
            for m in measure_ids:
                if rng.random() < absent:
                    values.append(np.nan)
                    failures.append("NoDefects")
                else:
                    near = np.clip(level[method] + rng.integers(-1, 2), 0, len(TIED_VALUES) - 1)
                    value = TIED_VALUES[near] if rng.random() < 0.7 else rng.random()
                    values.append(float(value))
                    failures.append("")
            for variant in harness._variants(method):
                predictions[(variant, source, target)] = rng.random(n_modules) < rng.choice([0.0, 0.3, 0.8, 1.0])
    return ExperimentResult.from_blocks(
        cfg, ordered, values, failures, target_groups, target_truth, predictions, len(plans)
    )


@st.composite
def specs(draw):
    n_targets = draw(st.integers(1, 4))
    n_groups = draw(st.integers(1, 3))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        # up to 15 sources reach both the exact and the normal Wilcoxon path
        sources=draw(st.lists(st.integers(1, 15), min_size=n_targets, max_size=n_targets)),
        truth=draw(st.lists(st.sampled_from(TRUTH_KINDS), min_size=n_targets, max_size=n_targets)),
        groups=draw(st.lists(st.integers(0, n_groups - 1), min_size=n_targets, max_size=n_targets)),
        methods=tuple(draw(st.lists(st.sampled_from(list(harness.METHODS)), min_size=2, unique=True))),
        # precision and recall, which the satisfactory section needs, half the time
        measure_ids=tuple(dict.fromkeys(
            draw(st.lists(st.sampled_from(measures.MEASURE_IDS), min_size=1, max_size=4, unique=True))
            + (["precision", "recall"] if draw(st.booleans()) else [])
        )),
        scenario=draw(st.sampled_from(list(harness.SCENARIOS))),
        absent=draw(st.sampled_from([0.0, 0.1, 0.5])),
        failed=draw(st.sampled_from([0.0, 0.1, 0.4])),
    )


ALL_METHODS = tuple(harness.METHODS)


@settings(max_examples=80)
@given(specs())
# every feature at once: a single-source target, an all-defective and a
# defect-free target, 14 sources (the normal Wilcoxon path), absent values,
# failed plans and scenario2
@example(dict(seed=1, sources=[1, 14, 6, 3], truth=["mixed", "all_defective", "defect_free", "mixed"],
              groups=[0, 1, 0, 2], methods=ALL_METHODS, measure_ids=measures.MEASURE_IDS,
              scenario="scenario2", absent=0.1, failed=0.1))
# nothing absent and nothing failed: every pair is comparable on every plan
@example(dict(seed=2, sources=[12, 13], truth=["mixed", "mixed"], groups=[0, 0],
              methods=ALL_METHODS, measure_ids=("precision", "recall", "f1", "ifa"),
              scenario="scenario1", absent=0.0, failed=0.0))
# only unsupervised methods: no win/tie/loss matrix, no hdp diversity
# section, and "n/a" under "=0 by HDP"
@example(dict(seed=3, sources=[2, 5], truth=["mixed", "defect_free"], groups=[0, 1],
              methods=("cla", "manual"), measure_ids=("f1",), scenario="scenario1",
              absent=0.5, failed=0.4))
# only heterogeneous methods: "n/a" under "=0 by UM" on every plan
@example(dict(seed=4, sources=[3, 4], truth=["mixed", "all_defective"], groups=[0, 1],
              methods=("hdp1", "hdp5"), measure_ids=("f1",), scenario="scenario1",
              absent=0.0, failed=0.1))
def test_report_sections_equal_the_reference(spec):
    result = build_result(**spec)
    report = harness.build_report(result)
    sections = reference_harness.report_sections(result)
    assert sections.keys() == report.keys()
    for name, text in sections.items():
        assert report[name] == text, name


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """The synthetic run's exported directory, its results.csv records (header
    first), and a directory to hold an edited copy."""
    out = tmp_path_factory.mktemp("synth")
    write_synthetic_benchmark(out, seed=11, measures=" ".join(measures.MEASURE_IDS))
    harness.export_results(harness.run_experiment(harness.load_config(out / "config.ini")), out / "exported")
    records = list(csv.reader((out / "exported" / "results.csv").read_text().splitlines()))
    edited = out / "edited"
    shutil.copytree(out / "exported", edited)
    return edited, records


def _write_results(directory, records):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(records)
    (directory / "results.csv").write_text(buffer.getvalue())


def _set(record, column, value):
    record = list(record)
    record[harness.RESULT_COLUMNS.index(column)] = value
    return record


def _fraction(body, k):
    """``body`` with one ``ifa`` row, picked by ``k``, holding 0.5: inside
    [0, n - 1] on every target, but no count of modules."""
    rows = [i for i, record in enumerate(body) if record[3] == "ifa"]
    i = rows[k % len(rows)]
    return body[:i] + [_set(_set(body[i], "failure", ""), "value", "0.5")] + body[i + 1:]


FAULTS = {
    "drop": lambda body, k, j: body[:k] + body[k + 1:],
    "repeat": lambda body, k, j: body[:j] + [body[k]] + body[j:],
    "target": lambda body, k, j: body[:k] + [_set(body[k], "target", "nowhere")] + body[k + 1:],
    "not-a-number": lambda body, k, j: body[:k] + [_set(body[k], "value", "0.5.1")] + body[k + 1:],
    "nan": lambda body, k, j: body[:k] + [_set(body[k], "value", "nan")] + body[k + 1:],
    "inf": lambda body, k, j: body[:k] + [_set(body[k], "value", "-inf")] + body[k + 1:],
    "method": lambda body, k, j: body[:k] + [_set(body[k], "method", "stray")] + body[k + 1:],
    "measure": lambda body, k, j: body[:k] + [_set(body[k], "measure", "mcc")] + body[k + 1:],
    # below 0 for every measure, or above n - 1 for ifa on a target of n modules
    "range": lambda body, k, j: body[:k] + [_set(_set(body[k], "failure", ""), "value",
                                                  "1e9" if j % 2 else "-0.5")] + body[k + 1:],
    "both": lambda body, k, j: body[:k] + [_set(_set(body[k], "failure", "boom"), "value", "0.5")]
    + body[k + 1:],
    "neither": lambda body, k, j: body[:k] + [_set(_set(body[k], "failure", ""), "value", "")]
    + body[k + 1:],
    "fraction": lambda body, k, j: _fraction(body, k),
    # every row of one target goes, so targets.csv lists a target without a plan
    "unplanned": lambda body, k, j: [record for record in body if record[2] != body[k][2]],
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FAULTS)), st.data())
def test_one_fault_raises_the_reference_message(exported, fault, data):
    directory, (header, *body) = exported
    k = data.draw(st.integers(0, len(body) - 1), label="row")
    j = data.draw(st.integers(k + 1, len(body)), label="repeat at")
    _write_results(directory, [header, *FAULTS[fault](body, k, j)])
    with pytest.raises(ValueError) as want:
        reference_harness.load_results(directory)
    with pytest.raises(ValueError) as got:
        harness.load_results(directory)
    assert str(got.value) == str(want.value)


def test_a_plans_total_below_the_plans_raises_the_reference_message(exported):
    directory, records = exported
    _write_results(directory, records)
    summary = (directory / "summary.txt").read_text()
    try:
        (directory / "summary.txt").write_text("".join(
            "plans_total: 1\n" if line.startswith("plans_total:") else line
            for line in summary.splitlines(True)))
        with pytest.raises(ValueError, match="plans_total 1 is below the") as want:
            reference_harness.load_results(directory)
        with pytest.raises(ValueError) as got:
            harness.load_results(directory)
        assert str(got.value) == str(want.value)
    finally:
        (directory / "summary.txt").write_text(summary)


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_clean_rows_in_any_order_fill_the_reference_table(exported, random):
    directory, (header, *body) = exported
    body = random.sample(body, len(body))
    _write_results(directory, [header, *body])
    loaded = harness.load_results(directory)
    reference = reference_harness.load_results(directory)
    by_target = reference_harness.targets_sources(reference.plans)
    assert loaded.plans == [(s, t) for t, sources in by_target.items() for s in sources]
    # the rows, and so a re-export, walk the report order, not the file's
    assert list(dict.fromkeys((r.source, r.target) for r in loaded.rows())) == loaded.plans
    table = reference_harness.value_table(reference.rows, by_target)
    assert list(loaded.values) == list(product(reference.config.methods, reference.config.measures))
    assert sorted(loaded.values) == sorted(table)
    for cell, values in table.items():
        assert [None if math.isnan(v) else v for v in loaded.values[cell].tolist()] == values
    failures = {(r.method, r.source, r.target, r.measure): r.failure or "" for r in reference.rows}
    for (method, measure), column in loaded.failures.items():
        assert column.tolist() == [failures[(method, s, t, measure)] for s, t in loaded.plans]
    assert sorted(loaded.rows()) == sorted(reference.rows)
    assert loaded.target_groups == reference.target_groups
    for field in ("target_truth", "predictions"):
        want, got = getattr(reference, field), getattr(loaded, field)
        assert list(got) == list(want) and all(np.array_equal(got[key], want[key]) for key in want)
    assert loaded.n_plans_total == reference.n_plans_total


# the characters csv.reader treats specially, and plain ones
FIELDS = st.text(alphabet=',"\r\n\0ab1 .', max_size=5)


def _columns(path, columns):
    """What ``harness._csv_columns`` reads from ``path``: its columns and
    record lines, or its error."""
    try:
        fields, lines = harness._csv_columns(path, columns)
    except ValueError as exc:
        return type(exc), str(exc)
    return [list(column) for column in fields], list(lines)


def _refuse_csv(path, text):
    raise AssertionError("read by csv_records")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(FIELDS, min_size=3, max_size=3), max_size=6), st.booleans(),
       st.sampled_from(["\n", "\r\n"]))
@example([["a", "b", "c"], ["", "1", ""]], False, "\n")
@example([["a", 'b"', "c"]], True, "\n")
@example([["a", "b", "c"], ["", "1", ""]], False, "\r\n")
def test_plain_columns_equal_the_csv_reader_columns(records, written, end):
    """``_csv_columns`` reads the same columns and lines, or raises the same
    error, when ``plain_lines`` lets it split the text as when it must read
    it with csv; a text whose fields hold no special character is split."""
    columns = ("x", "y", "z")
    if written:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator=end).writerows([columns, *records])
        text = buffer.getvalue()
    else:
        text = "".join(f"{','.join(record)}{end}" for record in [columns, *records])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.csv"
        path.write_text(text, encoding="utf-8", newline="")
        read = _columns(path, columns)
        with mock.patch.object(harness, "plain_lines", lambda text: None):
            assert _columns(path, columns) == read
        if not any(c in field for record in records for field in record for c in ',"\r\n\0'):
            with mock.patch.object(harness, "csv_records", _refuse_csv):
                assert _columns(path, columns) == read
