import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdpbench import cli, datasets
from hdpbench.datasets import (
    DatasetError,
    DefectDataset,
    dataset_stats,
    effort_values,
    enumerate_combinations,
    load_dataset,
    load_manifest_datasets,
    normalize_label,
    read_manifest,
)
from helpers import (
    BENCHMARK_PROJECTS,
    benchmark_stub_datasets,
    NOT_UTF8,
    make_dataset,
    put_latin1_byte,
    write_count_benchmark_files,
)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_counts_match_known_project_profile(tmp_path):
    # same module/defect profile as the largest AEEEM project
    rows = ["m1,m2,bug"]
    for i in range(324):
        rows.append(f"{i},{i * 2},{1 if i < 129 else 0}")
    d = load_dataset(write_csv(tmp_path, "\n".join(rows)))
    assert dataset_stats(d) == (324, 129, 39.81)


def test_dataset_stats_all_defective():
    d = make_dataset("x", np.ones((10, 2)), [True] * 10)
    assert dataset_stats(d) == (10, 10, 100.0)


def test_dataset_stats_three_quarters(tmp_path):
    rows = ["loc,bug"] + [f"{i},{1 if i < 147 else 0}" for i in range(196)]
    d = load_dataset(write_csv(tmp_path, "\n".join(rows)))
    assert dataset_stats(d) == (196, 147, 75.0)


def test_header_only_is_zero_modules(tmp_path):
    path = write_csv(tmp_path, "m1,m2,bug\n")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}: no data rows"


def test_bug_counts_become_binary_labels(tmp_path):
    d = load_dataset(write_csv(tmp_path, "m1,bugs\n1.5,0\n2.5,2\n3.5,0\n"))
    assert d.labels.tolist() == [False, True, False]


def test_label_spellings():
    assert normalize_label("Y") and normalize_label("buggy") and normalize_label("TRUE")
    assert not normalize_label("clean") and not normalize_label("N") and not normalize_label("0")
    with pytest.raises(DatasetError):
        normalize_label("whatever")


def test_nan_labels_are_rejected_and_other_counts_kept():
    for raw in ("nan", "NaN", " -nan "):
        with pytest.raises(DatasetError, match=f"^unrecognized label value {raw!r}$"):
            normalize_label(raw)
    assert normalize_label("inf") and normalize_label("3")
    assert not normalize_label("-inf") and not normalize_label("-2")


def test_missing_label_column(tmp_path):
    path = write_csv(tmp_path, "m1,m2\n1,2\n")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}: no label column among ['m1', 'm2']"


def test_non_numeric_metric_cell(tmp_path):
    path = write_csv(tmp_path, "m1,bug\noops,1\n")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}:2: non-numeric cell 'oops' in metric 'm1'"


# a blank line sits between the header and the rows, so the row index and
# the line number differ
@pytest.mark.parametrize("rows, message", [
    ("1,0\n2\n", ":4: 1 cells, expected 2"),
    ("1,0\noops,1\n", ":4: non-numeric cell 'oops' in metric 'm1'"),
    ("1,0\n2,maybe\n", ":4: unrecognized label value 'maybe'"),
    # a NaN count was once read as a clean module
    ("1,0\n2,nan\n", ":4: unrecognized label value 'nan'"),
    ("1,0\n2,NaN\n", ":4: unrecognized label value 'NaN'"),
    ("1,0\n-inf,1\n", ":4: non-finite value in metric 'm1'"),
], ids=["short-row", "non-numeric", "label", "nan-label", "NaN-label", "non-finite"])
def test_csv_row_errors_name_the_path_and_the_line(tmp_path, rows, message):
    path = write_csv(tmp_path, "m1,bug\n\n" + rows)
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}{message}"


def test_csv_records_follow_the_csv_rules_not_str_splitlines(tmp_path):
    # a quoted line break belongs to its cell
    d = load_dataset(write_csv(tmp_path, '"wmc\nx",loc,bug\n1,10,0\n2,20,1\n'))
    assert d.metric_names == ("wmc\nx", "loc")
    # a form feed ends no record, and float() strips it from the cell
    d = load_dataset(write_csv(tmp_path, "wmc,loc,bug\n1,10\x0c,0\n2,20,1\n", "ff.csv"))
    assert d.values.tolist() == [[1.0, 10.0], [2.0, 20.0]]
    path = write_csv(tmp_path, "wmc,loc,bug\n1,10\x0c,0\n2,oops,1\n", "ff.csv")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}:3: non-numeric cell 'oops' in metric 'loc'"


def test_a_quoted_carriage_return_stays_in_its_cell(tmp_path):
    # read with newline translation, the cell's "\r" became "\n"
    path = tmp_path / "cr.csv"
    path.write_bytes(b'"wmc\rx",loc,bug\n1,10,0\n2,20,1\n')
    assert load_dataset(path).metric_names == ("wmc\rx", "loc")


def test_arff_row_errors_name_the_path_and_the_line(tmp_path):
    text = (
        "% a comment line\n"
        "@relation demo\n"
        "@attribute loc numeric\n"
        "@attribute class {Y,N}\n"
        "@data\n"
        "10,Y\n"
        "\n"
        "% skipped\n"
        "x,N\n"
    )
    path = write_csv(tmp_path, text, "demo.arff")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}:9: non-numeric cell 'x' in metric 'loc'"


FF_ARFF_HEADER = "@relation ff\n@attribute wmc numeric\n@attribute loc numeric\n@attribute class {0,1}\n"


def test_an_arff_form_feed_ends_no_line(tmp_path):
    # arff lines follow csv's record rule, not str.splitlines; float() strips the form feed
    d = load_dataset(write_csv(tmp_path, FF_ARFF_HEADER + "@data\n1,10\x0c,0\n2,20,1\n", "ff.arff"))
    assert d.values.tolist() == [[1.0, 10.0], [2.0, 20.0]]


def test_an_arff_comment_with_a_form_feed_is_one_line(tmp_path):
    # so a later row's error names that row's own line
    path = write_csv(tmp_path, FF_ARFF_HEADER + "% a\x0cb\n@data\n1,10,0\n2,oops,1\n", "ff.arff")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}:8: non-numeric cell 'oops' in metric 'loc'"


@pytest.mark.parametrize("name, text", [
    ("crlf.csv", "wmc,loc,bug\n1,10,0\n\n2.5,20,1\n"),
    ("crlf.arff", FF_ARFF_HEADER + "@data\n1,10,0\n\n2.5,20,1\n"),
], ids=["csv", "arff"])
def test_crlf_line_ends_load_as_lf_line_ends(tmp_path, name, text):
    # csv.writer, which writes every benchmark input, ends its lines with "\r\n"
    lf = load_dataset(write_csv(tmp_path, text, "lf" + name[4:]))
    path = tmp_path / name
    path.write_bytes(text.replace("\n", "\r\n").encode())
    crlf = load_dataset(path)
    assert (crlf.metric_names, crlf.loc_metric) == (lf.metric_names, lf.loc_metric)
    assert crlf.labels.tolist() == lf.labels.tolist()
    assert crlf.values.tobytes() == lf.values.tobytes()
    # a row error names the line that it names in the "\n" file
    line = text.count("\n") + 1
    path.write_bytes((text + "x,1,0\n").replace("\n", "\r\n").encode())
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}:{line}: non-numeric cell 'x' in metric 'wmc'"


PLAIN_NUMBERS = st.one_of(st.integers(-99, 99).map(str), st.floats(-1e6, 1e6).map(repr))
PLAIN_CELLS = st.one_of(PLAIN_NUMBERS, st.text(alphabet="0123456789.-e \x0c\ufeff", max_size=4))
PLAIN_BLANKS = st.sampled_from(["", " ", "\x0c", " , \x0c"])


@st.composite
def plain_texts(draw):
    """A plain CSV text: a header with a label column, then rows of numbers,
    or in one draw of two, rows of any width and with cells of 0-9 . - e,
    space, form feed and the byte-order mark. Blank and whitespace-only lines
    go anywhere, and lines end in "\\n" or "\\r\\n", the last one or not."""
    width = draw(st.integers(2, 4))
    header = [f"m{j}" for j in range(width - 1)]
    header.insert(draw(st.integers(0, width - 1)), "bug")
    if draw(st.booleans()):
        rows = (st.lists(PLAIN_CELLS, min_size=width, max_size=width)
                | st.lists(PLAIN_CELLS, max_size=width + 1))
    else:
        rows = st.lists(PLAIN_NUMBERS, min_size=width, max_size=width)
    rows = rows.map(",".join)
    lines = [*draw(st.lists(PLAIN_BLANKS, max_size=2)), ",".join(header), draw(rows),
             *draw(st.lists(rows | PLAIN_BLANKS, max_size=8))]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _loaded(path):
    """What loading ``path`` gives: the dataset's bytes, or its error."""
    try:
        d = load_dataset(path)
    except DatasetError as exc:
        return type(exc), str(exc)
    return d.metric_names, d.loc_metric, d.values.shape, d.values.tobytes(), d.labels.tobytes()


def _unblank(records):
    return [(line, row) for line, row in records if any(c.strip() for c in row)]


@given(plain_texts(), st.booleans())
def test_a_plain_text_splits_and_loads_as_csv_reads_it(text, bom):
    lines = datasets.plain_lines(text)
    assert lines is not None
    records = [(number, line.split(",")) for number, line in enumerate(lines, start=1)]
    assert _unblank(records) == _unblank(datasets.csv_records(Path("d.csv"), text))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text, encoding="utf-8-sig" if bom else "utf-8", newline="")
        split = _loaded(path)
        with mock.patch.object(datasets, "plain_lines", lambda text: None):
            assert split == _loaded(path)


@pytest.mark.parametrize("text, message", [
    ('wmc,loc,bug\n1,10,0\n2,"2,0",1\n', ":3: non-numeric cell '2,0' in metric 'loc'"),
    # a bare "\r" ends a record
    ("wmc,loc,bug\r1,10,0\r2,x,1\r", ":3: non-numeric cell 'x' in metric 'loc'"),
    ("wmc,loc,bug\n1,10\0,0\n", ":2: non-numeric cell '10\\x00' in metric 'loc'"),
    ("loc,bug\n" + "1" * 131_073 + ",0\n", ":2: field larger than field limit (131072)"),
], ids=["quote", "bare-cr", "nul", "over-limit-line"])
def test_a_text_that_is_not_plain_loads_through_csv(tmp_path, text, message):
    assert datasets.plain_lines(text) is None
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}{message}"


ARFF_DATA = "@attribute class {Y,N}\n@data\n10,Y\n"


@pytest.mark.parametrize("header, message", [
    # these raised IndexError, ValueError and a DatasetError without the path
    ("@relation demo\n@attribute\n", ":2: @attribute without a name"),
    ("@relation demo\n\n@attribute 'loc numeric\n", ":3: unterminated quoted attribute name"),
], ids=["bare-attribute", "unterminated-quote"])
def test_arff_header_errors_name_the_path_and_the_line(tmp_path, header, message):
    path = write_csv(tmp_path, header + ARFF_DATA, "demo.arff")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}{message}"


def test_arff_without_attributes_names_the_path(tmp_path):
    path = write_csv(tmp_path, "@relation demo\n@data\n10,Y\n", "demo.arff")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}: arff file has no @attribute declarations"


@pytest.mark.parametrize("header", ["@attribute\n", "@attribute 'loc numeric\n", ""])
def test_cli_stats_on_a_bad_arff_header_exits_1(tmp_path, capsys, header):
    path = write_csv(tmp_path, "@relation demo\n" + header + "@data\n10,Y\n", "demo.arff")
    assert cli.main(["stats", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "Traceback" not in err


@pytest.mark.parametrize("name, text", [
    ("labels.csv", "bug\n1\n0\n"),
    ("labels.arff", "@relation demo\n@attribute class {Y,N}\n@data\nY\nN\n"),
], ids=["csv", "arff"])
def test_cli_stats_on_a_file_without_a_metric_column_exits_1(tmp_path, capsys, name, text):
    # both raised IndexError before the empty schema could be rejected
    path = write_csv(tmp_path, text, name)
    assert cli.main(["stats", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: schema has no metrics\n"


def test_cli_stats_on_a_record_csv_cannot_read_names_its_line(tmp_path, capsys):
    # the quote opened on line 6 runs past csv's field limit; the _csv.Error
    # it raised used to escape the CLI as a traceback
    rows = [f"{k},{2 * k},{k % 2}" for k in range(20_000)]
    rows[4] = '"3,4,1'
    path = write_csv(tmp_path, "\n".join(["a,b,bug", *rows]) + "\n", "d.csv")
    assert cli.main(["stats", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:6: field larger than field limit (131072)\n"


@pytest.mark.parametrize("name", ["demo.arff", "demo.ARFF"])
def test_the_arff_suffix_in_any_case_picks_the_arff_reader(tmp_path, name):
    d = load_dataset(write_csv(tmp_path, "@attribute loc numeric\n" + ARFF_DATA, name))
    assert d.name == "demo" and d.metric_names == ("loc",)
    # any other suffix is read as CSV, which finds no label column in this header
    path = write_csv(tmp_path, "@attribute loc numeric\n" + ARFF_DATA, "demo.txt")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}: no label column among ['@attribute loc numeric']"


def test_loads_arff_subset(tmp_path):
    text = (
        "@relation demo\n"
        "@attribute CountLineCode numeric\n"
        "@attribute 'complexity' numeric\n"
        "@attribute class {Y,N}\n"
        "@data\n"
        "10,1,Y\n"
        "20,2,N\n"
    )
    d = load_dataset(write_csv(tmp_path, text, "demo.arff"))
    assert d.metric_names == ("CountLineCode", "complexity")
    assert d.loc_metric == "CountLineCode"
    assert d.labels.tolist() == [True, False]
    assert d.values[1, 0] == 20


def test_load_is_pure(tmp_path):
    path = write_csv(tmp_path, "m1,bug\n1,0\n2,1\n")
    assert dataset_stats(load_dataset(path)) == dataset_stats(load_dataset(path))


def test_loc_and_effort_values():
    d = make_dataset("x", [[10, 5], [20, 6]], [0, 1])
    assert d.column(d.loc_metric).tolist() == [10, 20]
    d2 = make_dataset("y", [[0, 5], [20, 6]], [0, 1])
    assert effort_values(d2).tolist() == [1, 20]


def test_a_dataset_equals_only_itself():
    # the generated __eq__ compared the arrays and raised, and hash() failed
    d = make_dataset("x", [[10, 5], [20, 6]], [0, 1])
    assert d == d and d != make_dataset("x", [[10, 5], [20, 6]], [0, 1])
    assert {d: 1}[d] == 1


def test_derived_calls_fn_once_per_dataset():
    calls = []

    def n_defective(d):
        calls.append(d.name)
        return int(d.labels.sum())

    a = make_dataset("a", [[1], [2]], [0, 1])
    b = make_dataset("b", [[1], [2]], [1, 1])
    assert [a.derived(n_defective), a.derived(n_defective), b.derived(n_defective)] == [1, 1, 2]
    assert a.derived(effort_values) is a.derived(effort_values)
    assert calls == ["a", "b"]
    # a copy starts with nothing kept, and the cache is not part of equality or repr
    copy = dataclasses.replace(a, name="c")
    assert copy.derived(n_defective) == 1 and calls == ["a", "b", "c"]
    assert "_derived" not in repr(a)


def test_derived_keeps_nothing_when_fn_raises():
    calls = []

    def failing(d):
        calls.append(d.name)
        raise ValueError("cannot derive")

    d = make_dataset("a", [[1], [2]], [0, 1])
    for _ in range(2):
        with pytest.raises(ValueError, match="cannot derive"):
            d.derived(failing)
    assert calls == ["a", "a"]


@pytest.mark.parametrize("header", ["bug,wmc,loc", "wmc,loc,bug"], ids=["label-first", "metric-first"])
def test_a_utf8_byte_order_mark_is_not_part_of_the_first_column(tmp_path, header):
    # spreadsheet programs often save CSV with a BOM
    path = tmp_path / "bom.csv"
    path.write_text(f"{header}\n1,1,1\n1,1,1\n", encoding="utf-8-sig")
    d = load_dataset(path)
    assert d.metric_names == ("wmc", "loc") and d.loc_metric == "loc"


@pytest.mark.parametrize("name, text, read", [
    ("d.csv", "wmc,loc,bug\n1,10,0\n2,20,1\n", load_dataset),
    ("d.arff", FF_ARFF_HEADER + "@data\n1,10,0\n", load_dataset),
    ("m.ini", "[g]\nloc_metric = g_loc\nfiles = one.csv\n", read_manifest),
], ids=["csv", "arff", "manifest"])
def test_an_input_that_is_not_utf8_is_an_error_naming_its_line(tmp_path, name, text, read):
    # a bare UnicodeDecodeError used to name neither the file nor the line
    path = write_csv(tmp_path, text, name)
    put_latin1_byte(path, 3)
    with pytest.raises(DatasetError) as caught:
        read(path)
    assert str(caught.value) == f"{path}:3: {NOT_UTF8}"


@pytest.mark.parametrize("start, end", [
    (b"\xef\xbb\xbf", b"\n"), (b"", b"\r"), (b"", b"\r\n"), (b"\xef\xbb\xbf", b"\r"),
], ids=["bom", "cr", "crlf", "bom-cr"])
def test_the_line_of_a_byte_that_is_not_utf8_counts_line_ends_not_the_bom(tmp_path, start, end):
    path = tmp_path / "d.csv"
    path.write_bytes(start + end.join([b"wmc,loc,bug", b"1,10,0", b"2,\xe920,1", b""]))
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}:3: {NOT_UTF8}"


def test_cli_stats_on_a_latin1_file_exits_1_naming_its_line(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes("wmc,loc,bug\n1,10,0\n2,20,1 \u00e9\n".encode("latin-1"))
    assert cli.main(["stats", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:3: {NOT_UTF8}\n"


def test_a_manifest_with_a_utf8_byte_order_mark_loads(tmp_path):
    write_csv(tmp_path, "g_loc,g1,bug\n1,1,0\n", "one.csv")
    manifest = tmp_path / "m.ini"
    manifest.write_text("[g]\nloc_metric = g_loc\ngranularity = file\nfiles = one.csv\n",
                        encoding="utf-8-sig")
    assert manifest.read_bytes().startswith(b"\xef\xbb\xbf")
    assert [g.name for g in read_manifest(manifest)] == ["g"]


def test_known_loc_metric_autodetected(tmp_path):
    d = load_dataset(write_csv(tmp_path, "wmc,loc,bug\n1,10,0\n2,20,1\n"))
    assert d.loc_metric == "loc"


def test_combinations_exclude_identical_metric_sets():
    a = make_dataset("a", [[1], [2]], [0, 1], metric_names=("m",))
    b = make_dataset("b", [[1], [2]], [0, 1], metric_names=("m",))
    assert enumerate_combinations([a, b]) == []


def test_one_dataset_or_none_gives_no_combination():
    # one dataset used to raise "need at least two datasets"
    assert enumerate_combinations([make_dataset("x", np.ones((2, 1)), [0, 1])]) == []
    assert enumerate_combinations([]) == []


def test_combinations_are_ordered_pairs():
    a = make_dataset("a", [[1], [2]], [0, 1], metric_names=("m1",))
    b = make_dataset("b", [[1], [2]], [0, 1], metric_names=("m2",))
    assert enumerate_combinations([a, b]) == [("b", "a"), ("a", "b")]


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=8))
def test_combination_count_matches_brute_force(set_ids):
    metric_sets = [("m_a",), ("m_b",), ("m_c", "m_d"), ("m_a", "m_b")]
    datasets = [
        make_dataset(f"d{i}", [[1.0] * len(metric_sets[k]), [2.0] * len(metric_sets[k])],
                     [0, 1], metric_names=metric_sets[k])
        for i, k in enumerate(set_ids)
    ]
    plans = enumerate_combinations(datasets)
    expected = sum(
        1
        for s in datasets
        for t in datasets
        if s.name != t.name and set(s.metric_names) != set(t.metric_names)
    )
    assert len(plans) == expected
    for source, target in plans:
        src = next(d for d in datasets if d.name == source)
        tgt = next(d for d in datasets if d.name == target)
        assert source != target
        assert set(src.metric_names) != set(tgt.metric_names)
    assert plans == sorted(plans, key=lambda p: p[::-1])


def test_benchmark_stub_enumeration():
    plans = enumerate_combinations(benchmark_stub_datasets())
    assert len(plans) == 962


def test_count_benchmark_writer_is_deterministic(tmp_path):
    scale = 0.005
    first = write_count_benchmark_files(tmp_path / "a", scale)
    again = write_count_benchmark_files(tmp_path / "b", scale)
    names = sorted(path.name for path in first.parent.iterdir())
    assert names == sorted(path.name for path in again.parent.iterdir())
    for name in names:
        assert (first.parent / name).read_bytes() == (again.parent / name).read_bytes()
    loaded = {d.name: d for d in load_manifest_datasets(first)}
    assert len(enumerate_combinations(list(loaded.values()))) == 962
    for name, _, n_metrics, real_modules, _ in BENCHMARK_PROJECTS:
        d = loaded[name]
        n = max(20, round(real_modules * scale))
        assert d.values.shape == (n, n_metrics)
        assert np.array_equal(d.values, np.floor(d.values)) and d.values.min() == 0
        assert not d.values[:, 1:3].any()
        assert np.count_nonzero(d.labels) == (0 if name == "ar5" else max(2, n // 4))
    header, *rows = (first.parent / "pc5.csv").read_text().splitlines()
    assert header.endswith(",bug") and all(row.replace(",", "").isdigit() for row in rows)


@pytest.mark.parametrize("metric_names, loc_metric, message", [
    (("a", "a"), "a", "duplicate metric names in group 'g'"),
    (("a",), "b", "loc metric 'b' not among metrics of group 'g'"),
    ((), "", "schema has no metrics"),
], ids=["duplicate", "loc-metric", "no-metrics"])
def test_schema_validation(metric_names, loc_metric, message):
    values = np.ones((2, len(metric_names)))
    with pytest.raises(DatasetError) as caught:
        DefectDataset("x", "g", metric_names, loc_metric, values, [0, 1])
    assert str(caught.value) == message


def test_a_header_fault_comes_before_any_row_fault(tmp_path):
    # line 3 holds a non-numeric cell, but the header is checked first
    path = write_csv(tmp_path, "a,a,bug\n1,2,0\n1,x,1\n")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}: duplicate metric names in group 'unknown-group'"


def test_dataset_rejects_non_finite():
    with pytest.raises(DatasetError) as caught:
        make_dataset("x", [[1.0], [np.inf]], [0, 1])
    assert str(caught.value) == "dataset 'x' contains non-finite metric values"


def test_manifest_round_trip(tmp_path):
    (tmp_path / "one.csv").write_text("p_loc,p_x,bug\n10,1,0\n20,2,1\n")
    (tmp_path / "two.csv").write_text("q_loc,q_y,bug\n5,1,1\n6,2,0\n")
    manifest = tmp_path / "manifest.ini"
    manifest.write_text(
        "[grp_p]\nloc_metric = p_loc\ngranularity = file\nfiles = one.csv\n\n"
        "[grp_q]\nloc_metric = q_loc\ngranularity = class\nfiles = two.csv\n"
    )
    groups = read_manifest(manifest)
    assert [g.name for g in groups] == ["grp_p", "grp_q"]
    datasets = load_manifest_datasets(manifest)
    assert [d.name for d in datasets] == ["one", "two"]
    assert datasets[0].loc_metric == "p_loc"
    assert [g.loc_metric for g in groups] == ["p_loc", "q_loc"]


def test_manifest_missing_key(tmp_path):
    manifest = tmp_path / "m.ini"
    manifest.write_text("[g]\ngranularity = file\n")
    with pytest.raises(DatasetError) as caught:
        read_manifest(manifest)
    assert str(caught.value) == f"{manifest}: group [g] is missing 'loc_metric'"


def test_manifest_granularity_is_optional_and_unread(tmp_path):
    write_csv(tmp_path, "g_loc,g1,bug\n1,1,0\n2,5,1\n", "one.csv")
    loaded = []
    for granularity in ("granularity = package\n", ""):
        manifest = tmp_path / "m.ini"
        manifest.write_text(f"[g]\nloc_metric = g_loc\n{granularity}files = one.csv\n")
        loaded.append([
            (d.name, d.group_name, d.loc_metric, d.metric_names, d.values.tobytes(), d.labels.tobytes())
            for d in load_manifest_datasets(manifest)
        ])
    assert loaded[0] == loaded[1] and len(loaded[0]) == 1


@pytest.mark.parametrize("entry, message", [
    # the typo used to load nothing for the group, and the run went on without it
    ("file = y.csv z.csv", r"m\.ini: unknown key 'file' in group \[h\]"),
    ("files =", r"m\.ini: group \[h\] lists no file"),
    ("", r"m\.ini: group \[h\] lists no file"),
], ids=["typo", "empty", "absent"])
def test_manifest_rejects_an_unknown_key_and_a_group_without_files(tmp_path, entry, message):
    manifest = tmp_path / "m.ini"
    manifest.write_text(
        "[g]\nloc_metric = g_loc\ngranularity = file\nfiles = x.csv\n\n"
        f"[h]\nloc_metric = h_loc\ngranularity = file\n{entry}\n"
    )
    with pytest.raises(DatasetError, match=message) as caught:
        read_manifest(manifest)
    assert str(caught.value).startswith(str(manifest))


@pytest.mark.parametrize("one, two, loc, message", [
    ("a_loc,a1,bug", "a_loc,zz1,zz2,bug", "a_loc", r"two\.csv: 3 metric columns vs 2 in group 'g'"),
    ("a_loc,a1,a2,bug", "a_loc,a1,bug", "a_loc", r"two\.csv: 2 metric columns vs 3 in group 'g'"),
    ("a_loc,a1,bug", "a_loc,zz1,bug", "a_loc", r"two\.csv: metric names do not match group 'g'"),
    ("b_loc,a1,bug", "b_loc,a1,bug", "a_loc",
     r"one\.csv: loc metric 'a_loc' not among metrics of group 'g'"),
    # a later file's own schema error comes before the group's header check
    ("a_loc,a1,bug", "b_loc,a1,bug", "a_loc",
     r"two\.csv: loc metric 'a_loc' not among metrics of group 'g'"),
], ids=["column-count", "fewer-columns", "metric-names", "loc-metric", "later-loc-metric"])
def test_manifest_schema_errors_name_the_file(tmp_path, one, two, loc, message):
    for name, header in (("one", one), ("two", two), ("three", "h_loc,h1,bug")):
        cells = ",".join(["1"] * header.count(","))
        write_csv(tmp_path, f"{header}\n{cells},0\n", f"{name}.csv")
    manifest = tmp_path / "manifest.ini"
    manifest.write_text(
        f"[g]\nloc_metric = {loc}\ngranularity = file\nfiles = one.csv two.csv\n\n"
        "[h]\nloc_metric = h_loc\ngranularity = file\nfiles = three.csv\n"
    )
    with pytest.raises(DatasetError, match=message) as caught:
        load_manifest_datasets(manifest)
    assert str(caught.value).startswith(str(tmp_path))


@pytest.mark.parametrize("rows, message", [
    ("1,oops,0\n", ":2: non-numeric cell 'oops' in metric 'zz1'"),
    ("", ": no data rows"),
], ids=["bad-row", "no-rows"])
def test_a_later_files_own_errors_come_before_the_group_header_check(tmp_path, rows, message):
    write_csv(tmp_path, "a_loc,a1,bug\n1,1,0\n", "one.csv")
    two = write_csv(tmp_path, "a_loc,zz1,bug\n" + rows, "two.csv")
    manifest = tmp_path / "manifest.ini"
    manifest.write_text("[g]\nloc_metric = a_loc\ngranularity = file\nfiles = one.csv two.csv\n")
    with pytest.raises(DatasetError) as caught:
        load_manifest_datasets(manifest)
    assert str(caught.value) == f"{two}{message}"


def test_manifest_duplicate_names_name_the_manifest_and_both_files(tmp_path):
    for folder, header in (("a", "a_loc,a1,bug"), ("b", "b_loc,b1,bug")):
        (tmp_path / folder).mkdir()
        write_csv(tmp_path / folder, f"{header}\n1,1,0\n", "x.csv")
    manifest = tmp_path / "manifest.ini"
    manifest.write_text(
        "[g]\nloc_metric = a_loc\ngranularity = file\nfiles = a/x.csv\n\n"
        "[h]\nloc_metric = b_loc\ngranularity = file\nfiles = b/x.csv\n"
    )
    with pytest.raises(DatasetError) as caught:
        load_manifest_datasets(manifest)
    assert str(caught.value) == (
        f"{manifest}: duplicate dataset name 'x': {tmp_path / 'a' / 'x.csv'} and {tmp_path / 'b' / 'x.csv'}"
    )


def test_manifest_duplicate_names_fail_before_any_file_is_read(tmp_path):
    # neither file exists: every file used to be loaded before the name check
    manifest = tmp_path / "manifest.ini"
    manifest.write_text("[g]\nloc_metric = a_loc\ngranularity = file\nfiles = a/x.csv b/x.csv\n")
    with pytest.raises(DatasetError) as caught:
        load_manifest_datasets(manifest)
    assert str(caught.value) == (
        f"{manifest}: duplicate dataset name 'x': {tmp_path / 'a' / 'x.csv'} and {tmp_path / 'b' / 'x.csv'}"
    )


@pytest.mark.parametrize("fault, message", [
    (lambda tmp: DefectDataset("d", "g", ("a", "b"), "a", np.ones(5), np.ones(5)),
     "dataset 'd': values of shape (5,) are not a module x metric matrix"),
    (lambda tmp: DefectDataset("d", "g", ("a", "b"), "a", np.ones((5, 2, 1)), np.ones(5)),
     "dataset 'd': values of shape (5, 2, 1) are not a module x metric matrix"),
    (lambda tmp: DefectDataset("d", "g", ("a", "b"), "a", np.ones((0, 2)), []),
     "dataset 'd' has no modules"),
    (lambda tmp: DefectDataset("d", "g", ("a", "b"), "a", np.ones((5, 3)), np.ones(5)),
     "dataset 'd': 3 columns vs 2 schema metrics"),
    (lambda tmp: DefectDataset("d", "g", ("a", "b"), "a", np.ones((5, 2)), np.ones(4)),
     "dataset 'd': row/label count mismatch"),
    (lambda tmp: load_dataset(write_csv(tmp, "\n\n", "empty.csv")),
     "{tmp}/empty.csv: empty file"),
    (lambda tmp: read_manifest(write_csv(tmp, "", "manifest.ini")),
     "manifest {tmp}/manifest.ini declares no groups"),
], ids=["1-d-values", "3-d-values", "no-modules", "columns", "labels", "empty-file",
        "no-groups"])
def test_dataset_input_errors(tmp_path, fault, message):
    # a 1-d or 3-d matrix once raised "has no modules"
    with pytest.raises(DatasetError) as caught:
        fault(tmp_path)
    assert str(caught.value) == message.format(tmp=tmp_path)
