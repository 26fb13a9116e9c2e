import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdpbench
from hdpbench import cli, datasets, harness, hdp, udp
from hdpbench.harness import (
    ExperimentConfig,
    ResultRow,
    build_report,
    export_results,
    load_config,
    load_results,
    register_external_method,
    run_experiment,
    unregister_external_method,
    write_report,
)
from hdpbench.hdp import HdpOutcome
from hdpbench.measures import MEASURE_IDS
from hdpbench.udp import Prediction
import reference_hdp
from helpers import (NOT_UTF8, put_latin1_byte, scott_knott_report, write_benchmark_stub_files,
                     write_synthetic_benchmark)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    write_synthetic_benchmark(out, seed=11, measures="precision recall f1 auc acc popt pmi20 ifa")
    return out


@pytest.fixture(scope="module")
def synth_result(synth_dir):
    return run_experiment(load_config(synth_dir / "config.ini"))


def two_dataset_manifest(tmp_path, disjoint=False):
    rng = np.random.default_rng(0)
    n = 40
    offset = 10000.0 if disjoint else 0.0
    for name, shift in (("one", 0.0), ("two", offset)):
        labels = rng.random(n) < 0.4
        labels[0], labels[1] = True, False
        cols = rng.lognormal(1, 0.6, size=(n, 3)) + shift
        cols[labels] *= 1.7
        lines = [f"{name}_loc,{name}_x,{name}_y,bug"]
        for row, lab in zip(cols, labels):
            lines.append(",".join(repr(float(v)) for v in row) + f",{int(lab)}")
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    manifest = tmp_path / "manifest.ini"
    manifest.write_text(
        "[grp_one]\nloc_metric = one_loc\ngranularity = file\nfiles = one.csv\n\n"
        "[grp_two]\nloc_metric = two_loc\ngranularity = file\nfiles = two.csv\n"
    )
    return manifest


# ---------------------------------------------------------------------------
# config


def test_load_config_and_defaults(tmp_path):
    manifest = two_dataset_manifest(tmp_path)
    cfg_path = tmp_path / "config.ini"
    cfg_path.write_text(f"[experiment]\nmanifest = {manifest.name}\n")
    cfg = load_config(cfg_path)
    assert cfg.manifest == str(manifest)
    assert cfg.methods == tuple(harness.METHODS)
    assert cfg.scenario == "scenario1"
    # every default comes from ExperimentConfig
    assert cfg == ExperimentConfig(str(manifest), str(tmp_path / "results"))


def test_a_config_that_is_not_utf8_stops_a_run_naming_its_line(tmp_path, capsys):
    # a bare UnicodeDecodeError used to name neither the file nor the line
    manifest = two_dataset_manifest(tmp_path)
    cfg_path = tmp_path / "config.ini"
    cfg_path.write_text(f"[experiment]\nmanifest = {manifest.name}\noutput_dir = out\n")
    put_latin1_byte(cfg_path, 2)
    assert cli.main(["run", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {cfg_path}:2: {NOT_UTF8}\n"
    assert not (tmp_path / "out").exists()


def test_a_config_with_a_utf8_byte_order_mark_loads(tmp_path):
    cfg_path = tmp_path / "config.ini"
    cfg_path.write_text("[experiment]\nmanifest = m.ini\nseed = 4\n", encoding="utf-8-sig")
    assert cfg_path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(cfg_path).seed == 4


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(manifest="m", output_dir="o", methods=())
    # the inspection budget is measures.EFFORT_FRACTION, not a config field
    with pytest.raises(TypeError, match="effort_fraction"):
        ExperimentConfig(manifest="m", output_dir="o", effort_fraction=0.2)
    with pytest.raises(ValueError):
        ExperimentConfig(manifest="m", output_dir="o", scenario="scenario3")
    with pytest.raises(ValueError):
        ExperimentConfig(manifest="m", output_dir="o", measures=("f1", "mcc"))
    # a repeat wrote repeated rows, which load_results then rejected
    with pytest.raises(ValueError, match=r"repeated methods: \['cla'\]"):
        ExperimentConfig(manifest="m", output_dir="o", methods=("hdp1", "cla", "cla"))
    with pytest.raises(ValueError, match=r"repeated measures: \['f1'\]"):
        ExperimentConfig(manifest="m", output_dir="o", measures=("f1", "auc", "f1"))


@pytest.mark.parametrize("name", ["my method", "a,b", "", "tab\tname"])
def test_a_registered_name_must_be_one_word_without_commas(name):
    # config.ini's methods line splits on whitespace and commas, so a run of
    # "my method" exported a directory that hdpbench report rejected
    with pytest.raises(ValueError, match="must be one word without commas"):
        register_external_method(name, lambda source, target: None)
    assert name not in harness.external_methods()


@pytest.mark.parametrize("name", [*harness.METHODS, "bestmetric-auc", "bestmetric-f1"])
def test_built_in_method_and_variant_names_are_reserved(name):
    # a registered bestmetric-f1 would overwrite bestmetric's f1 labels
    with pytest.raises(ValueError, match=f"method name '{name}' is reserved"):
        register_external_method(name, lambda source, target: None)
    assert name not in harness.external_methods()


# ---------------------------------------------------------------------------
# run_experiment


def test_row_cardinality_two_methods_six_measures(tmp_path):
    manifest = two_dataset_manifest(tmp_path)
    cfg = ExperimentConfig(
        manifest=str(manifest),
        output_dir=str(tmp_path / "out"),
        methods=("hdp5", "cla"),
        measures=("f1", "auc", "acc", "popt", "pmi20", "ifa"),
    )
    result = run_experiment(cfg)
    assert len(result.plans) == 2
    assert len(list(result.rows())) == 2 * 2 * 6


def test_failures_occupy_rows(tmp_path):
    manifest = two_dataset_manifest(tmp_path, disjoint=True)
    cfg = ExperimentConfig(
        manifest=str(manifest),
        output_dir=str(tmp_path / "out"),
        methods=("hdp1", "cla"),
        measures=("f1", "auc"),
    )
    result = run_experiment(cfg)
    hdp1_rows = [r for r in result.rows() if r.method == "hdp1"]
    assert len(hdp1_rows) == 2 * 2
    assert all(r.failure == "NoMatchedMetrics" and r.value is None for r in hdp1_rows)
    assert harness.method_failures(result) == {"hdp1": 2}


def test_scenario2_keeps_only_successful_plans(tmp_path):
    rng = np.random.default_rng(1)
    n = 40
    # a and b overlap in distribution; c is disjoint from both
    for name, shift in (("a", 0.0), ("b", 0.0), ("c", 50000.0)):
        labels = rng.random(n) < 0.4
        labels[0], labels[1] = True, False
        cols = rng.lognormal(1, 0.6, size=(n, 3)) + shift
        cols[labels] *= 1.7
        lines = [f"{name}_loc,{name}_x,{name}_y,bug"]
        for row, lab in zip(cols, labels):
            lines.append(",".join(repr(float(v)) for v in row) + f",{int(lab)}")
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    manifest = tmp_path / "manifest.ini"
    manifest.write_text(
        "\n".join(
            f"[grp_{x}]\nloc_metric = {x}_loc\ngranularity = file\nfiles = {x}.csv\n"
            for x in "abc"
        )
    )
    cfg = ExperimentConfig(
        manifest=str(manifest),
        output_dir=str(tmp_path / "out"),
        methods=("hdp1", "cla"),
        measures=("f1",),
        scenario="scenario2",
    )
    result = run_experiment(cfg)
    assert result.n_plans_total == 6
    kept = set(result.plans)
    assert kept == {("a", "b"), ("b", "a")}
    # no method has rows for the excluded plans
    assert all((r.source, r.target) in kept for r in result.rows())
    assert not any(r.failure for r in result.rows())


def test_scenario2_drops_failing_plans(tmp_path):
    manifest = two_dataset_manifest(tmp_path, disjoint=True)
    cfg = ExperimentConfig(
        manifest=str(manifest),
        output_dir=str(tmp_path / "out"),
        methods=("hdp1", "cla"),
        measures=("f1",),
        scenario="scenario2",
    )
    result = run_experiment(cfg)
    assert result.n_plans_total == 2
    assert result.plans == []
    assert list(result.rows()) == []


def test_scenario2_filters_on_hdp1_when_it_is_not_a_configured_method(stub_manifest, tmp_path):
    base = dict(manifest=str(stub_manifest), output_dir=str(tmp_path), measures=("f1",))
    hdp1 = run_experiment(ExperimentConfig(**base, methods=("hdp1",)))
    matched = [(r.source, r.target) for r in hdp1.rows() if r.failure is None]
    result = run_experiment(ExperimentConfig(**base, methods=("hdp5", "cla"), scenario="scenario2"))
    assert 0 < len(matched) < len(hdp1.plans)
    # the run's order is the report's: targets sorted, each target's sources sorted
    assert result.plans == matched == sorted(matched, key=lambda plan: plan[::-1])
    assert {r.method for r in result.rows()} == {"hdp5", "cla"}
    assert {v for v, _, _ in result.predictions} == {"hdp5", "cla"}


def test_unsupervised_rows_align_per_plan(synth_result):
    result = synth_result
    column = result.values[("cla", "auc")]
    targets = sorted({t for _, t in result.plans})
    for target in targets:
        values = {v for v, (_, t) in zip(column.tolist(), result.plans) if t == target}
        assert len(values) == 1  # source-independent


def test_external_method_failure_recorded(tmp_path):
    manifest = two_dataset_manifest(tmp_path)

    def flaky(source, target):
        if target.name == "two":
            return HdpOutcome(failure="SimulatedFailure")
        return HdpOutcome(predictions=Prediction(np.full(target.n_modules, 0.5),
                                                 np.zeros(target.n_modules, dtype=bool)))

    register_external_method("flaky-ext", flaky)
    try:
        cfg = ExperimentConfig(
            manifest=str(manifest),
            output_dir=str(tmp_path / "out"),
            methods=("flaky-ext", "cla"),
            measures=("f1", "auc"),
        )
        result = run_experiment(cfg)
        report = build_report(result)  # dashed external names flow through reports
    finally:
        unregister_external_method("flaky-ext")
    failures = [r for r in result.rows() if r.failure == "SimulatedFailure"]
    assert len(failures) == 2  # one plan, both measures
    assert len(list(result.rows())) == 2 * 2 * 2
    assert "flaky-ext vs cla" in report["report_diversity.txt"]


def test_external_exception_becomes_failure_row(tmp_path):
    manifest = two_dataset_manifest(tmp_path)

    def broken(source, target):
        raise RuntimeError("boom")

    register_external_method("broken", broken)
    try:
        cfg = ExperimentConfig(
            manifest=str(manifest),
            output_dir=str(tmp_path / "out"),
            methods=("broken", "cla"),
            measures=("f1",),
        )
        result = run_experiment(cfg)
    finally:
        unregister_external_method("broken")
    assert all(
        r.failure == "error: boom" for r in result.rows() if r.method == "broken"
    )


def test_external_prediction_count_mismatch_becomes_failure_row(tmp_path):
    manifest = two_dataset_manifest(tmp_path)

    def short(source, target):
        n = target.n_modules - 1
        return HdpOutcome(predictions=Prediction(np.ones(n), np.ones(n, dtype=bool)))

    register_external_method("short", short)
    try:
        cfg = ExperimentConfig(
            manifest=str(manifest),
            output_dir=str(tmp_path / "out"),
            methods=("short", "cla"),
            measures=("f1", "popt"),
        )
        result = run_experiment(cfg)
    finally:
        unregister_external_method("short")
    short_rows = [r for r in result.rows() if r.method == "short"]
    assert len(short_rows) == 2 * 2  # both plans, both measures
    assert all(
        r.value is None and r.failure == "error: prediction count mismatch" for r in short_rows
    )
    cla_rows = [r for r in result.rows() if r.method == "cla"]
    assert len(cla_rows) == 2 * 2 and all(r.failure is None for r in cla_rows)
    assert not any(variant == "short" for variant, _, _ in result.predictions)


def test_external_nan_scores_become_failure_rows(tmp_path):
    # NaN AUC values once reached the Wilcoxon test, and build_report raised
    write_synthetic_benchmark(tmp_path, seed=11, measures="f1 auc")

    def nan_scores(source, target):
        n = target.n_modules
        return HdpOutcome(predictions=Prediction(np.full(n, np.nan), np.ones(n, dtype=bool)))

    register_external_method("nan", nan_scores)
    try:
        cfg = ExperimentConfig(
            manifest=str(tmp_path / "manifest.ini"),
            output_dir=str(tmp_path / "out"),
            methods=("nan", "cla"),
            measures=("f1", "auc"),
        )
        result = run_experiment(cfg)
    finally:
        unregister_external_method("nan")
    nan_rows = [r for r in result.rows() if r.method == "nan"]
    assert len(nan_rows) == 12 * 2  # every plan, both measures
    assert all(
        r.value is None and r.failure == "error: prediction scores must not be NaN"
        for r in nan_rows
    )
    assert not any(variant == "nan" for variant, _, _ in result.predictions)
    report = build_report(result)
    export_results(result, cfg.output_dir)
    assert build_report(load_results(cfg.output_dir)) == report


def add_one_module_group(manifest):
    """Add a group whose one dataset, ``solo``, has a single module."""
    (manifest.parent / "solo.csv").write_text("solo_loc,solo_x,bug\n12.0,3.0,1\n")
    with manifest.open("a") as fh:
        fh.write("\n[grp_solo]\nloc_metric = solo_loc\ngranularity = file\nfiles = solo.csv\n")
    return manifest


def test_unsupervised_failure_fills_its_target_and_spares_the_rest(tmp_path):
    # spectral used to raise out of run_experiment, which then wrote nothing
    manifest = add_one_module_group(two_dataset_manifest(tmp_path))

    def run(methods):
        return run_experiment(ExperimentConfig(
            manifest=str(manifest), output_dir=str(tmp_path / "out"),
            methods=methods, measures=("f1", "auc", "popt"),
        ))

    result = run(("hdp5", "cla", "spectral", "manual"))
    spectral = [r for r in result.rows() if r.method == "spectral"]
    assert len(spectral) == 6 * 3
    for r in spectral:
        if r.target == "solo":
            assert r.value is None and r.failure == "error: spectral clustering needs at least 2 modules"
        else:
            assert r.failure is None
    assert sorted((s, t) for v, s, t in result.predictions if v == "spectral") == [
        (s, t) for s, t in sorted(result.plans) if t != "solo"
    ]
    without = run(("hdp5", "cla", "manual"))
    assert [r for r in result.rows() if r.method != "spectral"] == list(without.rows())
    kept = {key: flags for key, flags in result.predictions.items() if key[0] != "spectral"}
    assert sorted(kept) == sorted(without.predictions)
    assert all(np.array_equal(flags, without.predictions[key]) for key, flags in kept.items())


def test_unsupervised_exception_fails_every_plan_of_every_target(tmp_path, monkeypatch):
    def broken(d, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(udp, "cla_predict", broken)
    manifest = two_dataset_manifest(tmp_path)
    cfg = ExperimentConfig(manifest=str(manifest), output_dir=str(tmp_path / "out"),
                           methods=("hdp5", "cla"), measures=("f1", "auc"))
    result = run_experiment(cfg)
    cla_rows = [r for r in result.rows() if r.method == "cla"]
    assert len(cla_rows) == 2 * 2
    assert all(r.value is None and r.failure == "error: boom" for r in cla_rows)
    assert not any(variant == "cla" for variant, _, _ in result.predictions)
    assert harness.method_failures(result) == {"cla": 2}


def test_a_short_choice_fails_every_measure_of_its_method(tmp_path, monkeypatch):
    # manual's "up" ranking scores popt; a short one also fails f1 and auc,
    # which score its correct "down" ranking
    manifest = two_dataset_manifest(tmp_path)
    cfg = ExperimentConfig(manifest=str(manifest), output_dir=str(tmp_path / "out"),
                           methods=("hdp5", "cla", "manual"), measures=("f1", "auc", "popt"))
    before = run_experiment(cfg)
    manual_rank = udp.manual_rank

    def short_up(d):
        rankings = manual_rank(d)
        if d.name == "one":
            up = rankings["up"]
            rankings["up"] = Prediction(up.scores[:-1], up.predicted[:-1])
        return rankings

    monkeypatch.setattr(udp, "manual_rank", short_up)
    result = run_experiment(cfg)
    short = [r for r in result.rows() if r.method == "manual" and r.target == "one"]
    assert [r.measure for r in short] == ["f1", "auc", "popt"]
    assert all(r.value is None and r.failure == "error: prediction count mismatch" for r in short)
    assert [key for key in result.predictions if key[0] == "manual"] == [("manual", "one", "two")]
    assert [r for r in result.rows() if r not in short] == [
        r for r in before.rows() if not (r.method == "manual" and r.target == "one")
    ]
    assert all(np.array_equal(flags, before.predictions[key]) for key, flags in result.predictions.items())


# the benchmark's tracer times a method by replacing its module binding, so
# the harness must call each method through its module, never a stored copy
COUNTED = {
    udp: ("cla_predict", "clami_predict", "spectral_predict", "manual_rank", "best_metric_oracle"),
    hdp: ("hdp1_predict", "hdp5_predict"),
}


def test_methods_are_called_through_their_module_bindings(synth_dir, monkeypatch):
    calls = dict.fromkeys([name for names in COUNTED.values() for name in names], 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module, names in COUNTED.items():
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    result = run_experiment(load_config(synth_dir / "config.ini"))
    n_plans, n_targets = len(result.plans), len({t for _, t in result.plans})
    assert (n_plans, n_targets) == (12, 4)
    assert calls == {
        "cla_predict": n_targets, "clami_predict": n_targets, "spectral_predict": n_targets,
        # one call returns every choice: both directions, all six core measures
        "manual_rank": n_targets, "best_metric_oracle": n_targets,
        "hdp1_predict": n_plans, "hdp5_predict": n_plans,
    }


# ---------------------------------------------------------------------------
# export / load


def test_export_round_trip(synth_result, tmp_path):
    result = synth_result
    out = tmp_path / "exported"
    export_results(result, out)
    loaded = load_results(out)
    assert list(loaded.rows()) == list(result.rows())
    assert loaded.plans == result.plans
    assert [(r.source, r.target) for r in loaded.rows()][::len(loaded.values)] == loaded.plans
    assert list(loaded.values) == list(loaded.failures) == list(result.values)
    for cell, values in result.values.items():
        assert loaded.values[cell].tobytes() == values.tobytes(), cell
        assert np.array_equal(loaded.failures[cell], result.failures[cell]), cell
    # labels are bool arrays, which == compares element-wise
    for field in ("predictions", "target_truth"):
        want, got = getattr(result, field), getattr(loaded, field)
        assert sorted(got) == sorted(want)
        assert all(np.array_equal(got[key], want[key]) for key in want), field
    assert loaded.target_groups == result.target_groups
    assert loaded.n_plans_total == result.n_plans_total


@pytest.fixture
def exported(synth_result, tmp_path):
    out = tmp_path / "exported"
    export_results(synth_result, out)
    return out


def _rewrite(path, edit):
    path.write_text(edit(path.read_text()))


@pytest.mark.parametrize("name", ["results.csv", "predictions.csv", "targets.csv"])
def test_load_results_requires_exact_header(exported, name):
    # without the check a headerless file silently lost its first row
    _rewrite(exported / name, lambda text: text.split("\n", 1)[1])
    with pytest.raises(ValueError, match=rf"{name}:1: expected header"):
        load_results(exported)


def _edit_labels(path, line_no, edit):
    lines = path.read_text().splitlines()
    fields = lines[line_no - 1].split(",")
    fields[-1] = edit(fields[-1])
    lines[line_no - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", ["predictions.csv", "targets.csv"])
def test_load_results_rejects_non_binary_labels(exported, name):
    _edit_labels(exported / name, 3, lambda bits: bits[:-1] + "2")
    with pytest.raises(ValueError, match=rf"{name}:3: labels must contain only 0 and 1"):
        load_results(exported)


@pytest.mark.parametrize("edit", [lambda bits: bits[:-1], lambda bits: bits + "0"])
def test_load_results_rejects_prediction_of_wrong_length(exported, edit):
    # a short string was silently truncated by the diversity count and
    # raised IndexError in the unidentified report
    _edit_labels(exported / "predictions.csv", 2, edit)
    with pytest.raises(ValueError, match=r"predictions.csv:2: \d+ labels for a target of \d+ modules"):
        load_results(exported)


@pytest.mark.parametrize("name, key_fields", [("targets.csv", 1), ("predictions.csv", 3)])
def test_load_results_rejects_a_repeated_target_or_prediction(exported, name, key_fields):
    # the later row used to replace the earlier one silently: a repeated
    # predictions.csv row with flipped labels changed two reports
    def repeat(lines):
        *key, bits = lines[1].split(",")
        return [*lines[:2], ",".join([*key, bits.translate(str.maketrans("01", "10"))]), *lines[2:]]

    _rewrite(exported / name, lambda text: "\n".join(repeat(text.splitlines())) + "\n")
    key = " ".join((exported / name).read_text().splitlines()[1].split(",")[:key_fields])
    with pytest.raises(ValueError) as caught:
        load_results(exported)
    assert str(caught.value) == f"{exported / name}:3: repeats line 2 ({key})"


def _repeat_line_2(lines):
    return [*lines[:2], *lines[1:]]


def _short_labels_on_line_2(lines):
    return [lines[0], lines[1][:-1], *lines[2:]]


@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv-reader"])
@pytest.mark.parametrize("name, edit, message", [
    ("targets.csv", _repeat_line_2, r"targets.csv:3: repeats line 2 "),
    ("predictions.csv", _short_labels_on_line_2, r"predictions.csv:2: \d+ labels for a target"),
    ("results.csv", _repeat_line_2, r"results.csv:3: repeats line 2 "),
], ids=["targets", "predictions", "results"])
def test_load_results_parses_each_file_once_also_when_it_raises(
    exported, monkeypatch, quoted, name, edit, message
):
    # an error's line number used to come from reading the file again, once
    # per line it named; a quoted field sends the file through csv.reader
    def fault(text):
        lines = edit(text.splitlines())
        if quoted:
            first, rest = lines[1].split(",", 1)
            lines[1] = f'"{first}",{rest}'
        return "\n".join(lines) + "\n"

    _rewrite(exported / name, fault)
    opened = []
    real_open = Path.open
    monkeypatch.setattr(
        Path, "open", lambda self, *a, **k: opened.append(self.name) or real_open(self, *a, **k))
    with pytest.raises(ValueError, match=message):
        load_results(exported)
    read = [f for f in opened if f.endswith(".csv")]
    assert sorted(read) == sorted(set(read)) and name in read


def test_a_results_file_with_shuffled_plans_is_reexported_in_report_order(
    synth_result, exported, tmp_path
):
    # the reordered file used to be written back in its own order
    original = (exported / "results.csv").read_text()
    header, *body = original.splitlines()
    cells = len(synth_result.values)
    blocks = [body[k:k + cells] for k in range(0, len(body), cells)]
    shuffled = [header, *(line for block in blocks[1:] + blocks[:1] for line in block)]
    assert shuffled != [header, *body]
    (exported / "results.csv").write_text("\n".join(shuffled) + "\n")
    loaded = load_results(exported)
    assert loaded.plans == synth_result.plans
    assert all(loaded.values[cell].tobytes() == v.tobytes() for cell, v in synth_result.values.items())
    export_results(loaded, tmp_path / "again")
    assert (tmp_path / "again" / "results.csv").read_text() == original


def test_load_results_rejects_prediction_for_unknown_target(exported):
    _rewrite(exported / "targets.csv", lambda text: "\n".join(text.splitlines()[:-1]) + "\n")
    with pytest.raises(ValueError, match=r"predictions.csv:\d+: target .* is not in targets.csv"):
        load_results(exported)


def test_load_results_rejects_wrong_field_count(exported):
    _edit_labels(exported / "predictions.csv", 2, lambda bits: bits + ",extra")
    with pytest.raises(ValueError, match=r"predictions.csv:2: expected 4 fields, got 5"):
        load_results(exported)


def test_load_results_requires_plans_total(exported):
    # without it the total read as 0 and a re-export wrote plans_total: 0
    _rewrite(exported / "summary.txt",
             lambda text: "".join(l for l in text.splitlines(True) if not l.startswith("plans_total:")))
    with pytest.raises(ValueError, match="summary.txt: missing plans_total line"):
        load_results(exported)


def test_load_results_rejects_a_plans_total_that_is_not_an_integer(exported):
    # int() used to fail with a message that named neither file nor line
    _rewrite(exported / "summary.txt", lambda text: text.replace("plans_total: ", "plans_total: x", 1))
    with pytest.raises(ValueError, match=r"summary.txt:\d+: plans_total 'x\d+' is not an integer"):
        load_results(exported)


@pytest.mark.parametrize("total", [lambda n: -4, lambda n: n - 1], ids=["negative", "one-short"])
def test_cli_report_rejects_a_plans_total_below_the_plans(exported, capsys, total):
    # the total counts every plan, run or skipped; a smaller one used to
    # report with exit 0, and a re-export wrote it back
    n_plans = len(load_results(exported).plans)
    lines = (exported / "summary.txt").read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("plans_total:"))
    _rewrite(exported / "summary.txt", lambda text: text.replace(lines[k], f"plans_total: {total(n_plans)}"))
    assert cli.main(["report", str(exported)]) == 1
    assert capsys.readouterr().err == (
        f"error: {exported / 'summary.txt'}:{k + 1}: plans_total {total(n_plans)} is below the "
        f"{n_plans} plans in results.csv\n")


@pytest.mark.parametrize("text, message", [
    ("garbage\n", r"c.ini:1: no \[section\] header before this line"),
    ("[experiment]\nmanifest = m.ini\ngarbage\n", r"c.ini:3: not a 'key = value' line"),
    ("[experiment]\nmanifest = m.ini\n[experiment]\n", r"c.ini:3: repeats section \[experiment\]"),
    ("[experiment]\nmanifest = m.ini\nseed = 1\nseed = 2\n", r"c.ini:4: repeats 'seed' in \[experiment\]"),
    ("[experiment]\nmanifest = m.ini\nseed = x\n", r"c.ini: seed = 'x' is not an integer"),
    ("[experiment]\nmanifest = m.ini\neffort_fraction = 1/5\n",
     r"c.ini: effort_fraction is fixed at 0.2"),
    # a user's 0.3 used to run and report PMI@30% under the name pmi20
    ("[experiment]\nmanifest = m.ini\neffort_fraction = 0.3\n",
     r"c.ini: effort_fraction is fixed at 0.2"),
    # unknown keys used to be ignored: this loaded as scenario1 with every method
    ("[experiment]\nmanifest = m.ini\nscenaro = scenario2\nmethod = hdp1 cla\n",
     r"c.ini: unknown key 'scenaro' in \[experiment\]"),
    ("[experiment]\nmanifest = m.ini\nscenario = bogus\n",
     r"c.ini: scenario must be one of \('scenario1', 'scenario2'\)"),
    ("[experiment]\nmanifest = m.ini\neffort_fraction = 1.5\n",
     r"c.ini: effort_fraction is fixed at 0.2"),
    ("[experiment]\nmanifest = m.ini\nmeasures = f1 mcc\n", r"c.ini: unknown measures: \['mcc'\]"),
    ("[experiment]\nmanifest = m.ini\nmethods =\n", r"c.ini: methods and measures must be non-empty"),
    ("[experiment]\nmanifest = m.ini\nmethods = hdp1 cla cla\n", r"c.ini: repeated methods: \['cla'\]"),
    ("[experiment]\nmanifest = m.ini\nmeasures = f1 auc f1\n", r"c.ini: repeated measures: \['f1'\]"),
])
def test_load_config_names_the_file_on_malformed_input(tmp_path, text, message):
    (tmp_path / "c.ini").write_text(text)
    with pytest.raises(ValueError, match=message):
        load_config(tmp_path / "c.ini")


def _config(tmp_path, text):
    (tmp_path / "c.ini").write_text(text)
    return tmp_path / "c.ini"


@pytest.mark.parametrize("fault, message", [
    (lambda tmp: load_config(_config(tmp, "[run]\nmanifest = m.ini\n")),
     "{tmp}/c.ini: missing [experiment] section"),
    (lambda tmp: load_config(_config(tmp, "[experiment]\nmethods = cla\n")),
     "{tmp}/c.ini: missing manifest entry"),
    # checked before the manifest is read, which here does not exist
    (lambda tmp: run_experiment(
        ExperimentConfig(str(tmp / "m.ini"), str(tmp), methods=("cla", "nope"))),
     "unknown method 'nope'"),
], ids=["no-section", "no-manifest", "unknown-method"])
def test_harness_input_errors(tmp_path, fault, message):
    with pytest.raises(ValueError) as caught:
        fault(tmp_path)
    assert str(caught.value) == message.format(tmp=tmp_path)


def test_cli_report_reads_a_config_with_the_retired_effort_fraction_line(
    synth_result, exported, capsys
):
    # every config.ini exported while the budget was a setting holds this line
    write_report(build_report(synth_result), exported)
    before = {p.name: p.read_bytes() for p in exported.glob("report_*.txt")}
    _rewrite(exported / "config.ini",
             lambda text: text.replace("scenario = ", "effort_fraction = 0.2\nscenario = ", 1))
    assert "\neffort_fraction = 0.2\n" in (exported / "config.ini").read_text()
    assert cli.main(["report", str(exported)]) == 0
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in exported.glob("report_*.txt")} == before


def test_cli_report_on_a_garbage_config_exits_1(exported, capsys):
    (exported / "config.ini").write_text("garbage\n")
    assert cli.main(["report", str(exported)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config.ini:1: no [section] header" in err
    assert "Traceback" not in err


def test_cli_run_on_a_manifest_without_a_section_header_exits_1(tmp_path, capsys):
    (tmp_path / "m.ini").write_text("loc_metric = loc\n")
    (tmp_path / "c.ini").write_text("[experiment]\nmanifest = m.ini\noutput_dir = out\n")
    assert cli.main(["run", str(tmp_path / "c.ini")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "m.ini:1: no [section] header" in err
    assert "Traceback" not in err


def _edit_results(exported, edit):
    """Apply ``edit`` to the list of results.csv lines (header first)."""
    _rewrite(exported / "results.csv",
             lambda text: "\n".join(edit(text.splitlines())) + "\n")


def _set_field(line, column, value):
    fields = line.split(",")
    fields[harness.RESULT_COLUMNS.index(column)] = value
    return ",".join(fields)


# without these checks the reports raised KeyError (unknown target, missing
# cell) or load_results raised with no location (a value that is not a number)
@pytest.mark.parametrize("edit, message", [
    (lambda lines: [lines[0], _set_field(lines[1], "target", "nowhere"), *lines[2:]],
     r"results.csv:2: target 'nowhere' is not in targets.csv"),
    (lambda lines: [*lines[:2], *lines[1:]], r"results.csv:3: repeats line 2 \(\S+ \S+ \S+ \S+\)$"),
    (lambda lines: [lines[0], _set_field(lines[1], "value", "x"), *lines[2:]],
     r"results.csv:2: value 'x' is not a number"),
    # a NaN or infinite value used to reach the reports, where a NaN
    # Wilcoxon rank failed with "negative dimensions are not allowed"
    (lambda lines: [lines[0], _set_field(lines[1], "value", "nan"), *lines[2:]],
     r"results.csv:2: value 'nan' is not a finite number"),
    (lambda lines: [lines[0], lines[1], _set_field(lines[2], "value", "-inf"), *lines[3:]],
     r"results.csv:3: value '-inf' is not a finite number"),
    (lambda lines: [lines[0], *lines[2:]], r"results.csv: plan \S+ => \S+ has no \S+ \S+ row"),
    # a row outside config.ini's methods and measures used to load silently
    (lambda lines: [lines[0], _set_field(lines[1], "method", "stray"), *lines[2:]],
     r"results.csv:2: method 'stray' is not configured"),
    (lambda lines: [*lines[:3], _set_field(lines[3], "measure", "mcc"), *lines[4:]],
     r"results.csv:4: measure 'mcc' is not configured"),
], ids=["unknown-target", "repeated-row", "value-not-a-number", "value-nan", "value-inf", "missing-cell",
        "stray-method", "stray-measure"])
def test_load_results_rejects_malformed_result_rows(exported, edit, message):
    _edit_results(exported, edit)
    with pytest.raises(ValueError, match=message):
        load_results(exported)


def _first_row(lines, measure, valued=True):
    """The index in results.csv's ``lines`` of the first ``measure`` row
    that holds a value (or, with ``valued`` false, that holds none)."""
    return next(k for k, line in enumerate(lines[1:], 1)
                if line.split(",")[3] == measure and bool(line.split(",")[4]) == valued)


# these loaded: a precision of 1.5 then failed in the satisfactory report as
# "precision/recall must lie in [0, 1]", with no file and no line, and the
# rest reached the reports
@pytest.mark.parametrize("measure, value, failure, message", [
    ("precision", "1.5", "", "precision value '1.5' is outside [0, 1]"),
    ("auc", "1.5", "", "auc value '1.5' is outside [0, 1]"),
    ("pmi20", "-0.25", "", "pmi20 value '-0.25' is outside [0, 1]"),
    ("auc", "", "", "holds neither a value nor a failure"),
    ("f1", "0.5", "NoDefects", "holds both value '0.5' and failure 'NoDefects'"),
], ids=["precision", "auc", "negative", "neither", "both"])
def test_cli_report_rejects_a_value_out_of_range_or_not_one_of_value_and_failure(
    exported, capsys, measure, value, failure, message
):
    k = _first_row((exported / "results.csv").read_text().splitlines(), measure)
    _edit_results(exported, lambda lines: [
        *lines[:k], _set_field(_set_field(lines[k], "value", value), "failure", failure), *lines[k + 1:]])
    assert cli.main(["report", str(exported)]) == 1
    assert capsys.readouterr().err == f"error: {exported / 'results.csv'}:{k + 1}: {message}\n"


def test_an_ifa_value_lies_below_its_targets_module_count(exported):
    # ifa counts the non-defective modules ranked before the first defective one
    lines = (exported / "results.csv").read_text().splitlines()
    k = _first_row(lines, "ifa")
    method, source, target = lines[k].split(",")[:3]
    n = len(load_results(exported).target_truth[target])
    _edit_results(exported, lambda lines: [*lines[:k], _set_field(lines[k], "value", f"{n - 1}.0"),
                                           *lines[k + 1:]])
    loaded = load_results(exported)
    assert loaded.values[(method, "ifa")][loaded.plans.index((source, target))] == n - 1
    _edit_results(exported, lambda lines: [*lines[:k], _set_field(lines[k], "value", f"{n}.0"),
                                           *lines[k + 1:]])
    with pytest.raises(ValueError) as caught:
        load_results(exported)
    assert str(caught.value) == (
        f"{exported / 'results.csv'}:{k + 1}: ifa value '{n}.0' is outside [0, {n - 1}]")


def test_cli_report_rejects_an_ifa_value_that_is_not_a_whole_number(exported, capsys):
    # ifa counts modules; 0.5 lies inside [0, n - 1] and used to load
    lines = (exported / "results.csv").read_text().splitlines()
    k = _first_row(lines, "ifa")
    _edit_results(exported, lambda lines: [*lines[:k], _set_field(lines[k], "value", "0.5"),
                                           *lines[k + 1:]])
    assert cli.main(["report", str(exported)]) == 1
    assert capsys.readouterr().err == (
        f"error: {exported / 'results.csv'}:{k + 1}: ifa value '0.5' is not a whole number\n")


@pytest.mark.parametrize("variant, source, message", [
    ("bogus", None, "variant 'bogus' is not configured"),
    (None, "nowhere", "plan nowhere => {target} is not in results.csv"),
], ids=["variant", "plan"])
def test_cli_report_rejects_a_prediction_outside_the_results(exported, capsys, variant, source, message):
    # a stray row used to load, and a re-export wrote it back
    lines = (exported / "predictions.csv").read_text().splitlines()
    first, first_source, target, bits = lines[1].split(",")
    with (exported / "predictions.csv").open("a") as fh:
        fh.write(f"{variant or first},{source or first_source},{target},{bits}\n")
    assert cli.main(["report", str(exported)]) == 1
    assert capsys.readouterr().err == (
        f"error: {exported / 'predictions.csv'}:{len(lines) + 1}: {message.format(target=target)}\n")


def test_cli_report_rejects_a_plan_without_a_prediction_of_a_method_that_ran(exported, capsys):
    # without the row, diversity counted one plan fewer for every pair with cla
    valued = {tuple(line.split(",")[:3]) for line in (exported / "results.csv").read_text().splitlines()
              if line.split(",")[4]}
    lines = (exported / "predictions.csv").read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if tuple(line.split(",")[:3]) in valued)
    variant, source, target, _ = lines[k].split(",")
    _rewrite(exported / "predictions.csv", lambda text: "\n".join(lines[:k] + lines[k + 1:]) + "\n")
    assert cli.main(["report", str(exported)]) == 1
    assert capsys.readouterr().err == (
        f"error: {exported / 'predictions.csv'}: plan {source} => {target} has no {variant} prediction\n")


def test_cli_report_rejects_a_target_without_a_plan(exported, capsys):
    # a run writes only its plans' targets; the extra one used to add a
    # group to the Scott-Knott, diversity and satisfactory reports
    n_lines = len((exported / "targets.csv").read_text().splitlines())
    with (exported / "targets.csv").open("a") as fh:
        fh.write("zeta,grp_z,0101\n")
    assert cli.main(["report", str(exported)]) == 1
    assert capsys.readouterr().err == (
        f"error: {exported / 'targets.csv'}:{n_lines + 1}: target 'zeta' has no plan in results.csv\n")


def test_cli_report_on_a_malformed_results_file_exits_1(exported, capsys):
    _edit_results(exported, lambda lines: [*lines[:1], *lines[2:]])
    assert cli.main(["report", str(exported)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "results.csv: plan " in err
    assert "Traceback" not in err


def test_a_failure_reason_with_a_line_break_round_trips(tmp_path):
    # read without newline="", the quoted "\r\n" came back as "\n"
    manifest = two_dataset_manifest(tmp_path)

    def crlf(source, target):
        raise ValueError("bad\r\nthing")

    register_external_method("crlf", crlf)
    try:
        cfg = ExperimentConfig(manifest=str(manifest), output_dir=str(tmp_path / "out"),
                               methods=("crlf", "cla"), measures=("f1",))
        result = run_experiment(cfg)
    finally:
        unregister_external_method("crlf")
    export_results(result, cfg.output_dir)
    loaded = load_results(cfg.output_dir)
    assert {r.failure for r in result.rows() if r.method == "crlf"} == {"error: bad\r\nthing"}
    assert list(loaded.rows()) == list(result.rows())
    # each crlf row spans two lines, which the line numbers count
    _edit_results(Path(cfg.output_dir), lambda lines: [*lines[:-1], _set_field(lines[-1], "value", "x")])
    with pytest.raises(ValueError, match=r"results.csv:7: value 'x' is not a number"):
        load_results(cfg.output_dir)


def test_a_failure_reason_with_a_bare_carriage_return_round_trips(tmp_path, capsys):
    # csv.writer left "bad\rthing" unquoted, and the reader ended the record at "\r"
    manifest = two_dataset_manifest(tmp_path)

    def cr(source, target):
        raise ValueError("bad\rthing")

    register_external_method("cr", cr)
    try:
        cfg = ExperimentConfig(manifest=str(manifest), output_dir=str(tmp_path / "out"),
                               methods=("cr", "cla"), measures=("f1", "auc"))
        result = run_experiment(cfg)
        export_results(result, cfg.output_dir)
        write_report(build_report(result), cfg.output_dir)
    finally:
        unregister_external_method("cr")
    out = Path(cfg.output_dir)
    text = (out / "results.csv").read_bytes().decode()
    assert text.count('"error: bad\rthing"') == 2 * 2
    # records without a carriage return keep their unquoted form
    assert "\ncla,one,two,f1," in text
    before = {p.name: p.read_bytes() for p in out.glob("report_*.txt")}
    assert cli.main(["report", str(out)]) == 0
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in out.glob("report_*.txt")} == before
    loaded = load_results(out)
    assert {r.failure for r in loaded.rows() if r.method == "cr"} == {"error: bad\rthing"}
    assert list(loaded.rows()) == list(result.rows())


@pytest.mark.parametrize("name", ["big", '"big"'], ids=["unquoted", "quoted"])
def test_a_record_csv_cannot_read_is_an_error_naming_its_file_and_line(exported, capsys, name):
    # a field beyond csv's field limit used to escape as a bare _csv.Error with a
    # traceback, and unquoted, it was split and read as a target of 140,000 modules
    path = exported / "targets.csv"
    header = path.read_text(encoding="utf-8").splitlines()[0]
    path.write_text(f'{header}\n{name},g,{"0" * 140_000}\n', encoding="utf-8")
    assert cli.main(["report", str(exported)]) == 1
    assert capsys.readouterr().err == f"error: {path}:2: field larger than field limit (131072)\n"


@pytest.mark.parametrize("name, columns", [
    ("results.csv", harness.RESULT_COLUMNS),
    ("predictions.csv", harness.PREDICTION_COLUMNS),
    ("targets.csv", harness.TARGET_COLUMNS),
])
def test_an_empty_results_file_is_an_error_at_its_first_line(exported, name, columns):
    path = exported / name
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        load_results(exported)
    assert str(caught.value) == f"{path}:1: expected header {','.join(columns)}, got []"


def test_a_results_directory_with_crlf_line_ends_loads_the_same(synth_result, exported):
    before = load_results(exported)
    for path in exported.iterdir():
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    loaded = load_results(exported)
    assert list(loaded.rows()) == list(before.rows()) == list(synth_result.rows())
    assert list(loaded.predictions) == list(before.predictions)
    assert all(np.array_equal(loaded.predictions[key], flags)
               for key, flags in before.predictions.items())
    assert build_report(loaded) == build_report(synth_result)


@pytest.mark.parametrize("name", ["config.ini", "targets.csv", "predictions.csv", "results.csv",
                                  "summary.txt"])
def test_a_results_file_that_is_not_utf8_is_an_error_naming_its_line(exported, capsys, name):
    path = exported / name
    put_latin1_byte(path, 3)
    assert cli.main(["report", str(exported)]) == 1
    assert capsys.readouterr().err == f"error: {path}:3: {NOT_UTF8}\n"


@pytest.mark.parametrize("name", ["results.csv", "predictions.csv", "targets.csv"])
def test_a_results_file_with_a_utf8_byte_order_mark_loads(synth_result, exported, name):
    # a BOM-prefixed header used to read as '\ufefftarget' and fail the header check
    path = exported / name
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    loaded = load_results(exported)
    assert list(loaded.rows()) == list(synth_result.rows())
    assert build_report(loaded) == build_report(synth_result)


def test_absent_values_serialize_as_empty_field(tmp_path):
    manifest = two_dataset_manifest(tmp_path, disjoint=True)
    cfg = ExperimentConfig(
        manifest=str(manifest),
        output_dir=str(tmp_path / "out"),
        methods=("hdp1",),
        measures=("f1",),
    )
    result = run_experiment(cfg)
    out = tmp_path / "exported"
    export_results(result, out)
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "method,source,target,measure,value,failure"
    assert all(",NoMatchedMetrics" in line and ",," in line for line in lines[1:])


def test_export_empty_rows_yields_header_only(tmp_path):
    manifest = two_dataset_manifest(tmp_path, disjoint=True)
    cfg = ExperimentConfig(
        manifest=str(manifest),
        output_dir=str(tmp_path / "out"),
        methods=("hdp1", "cla"),
        measures=("f1",),
        scenario="scenario2",
    )
    result = run_experiment(cfg)
    out = tmp_path / "exported"
    export_results(result, out)
    assert (out / "results.csv").read_text() == "method,source,target,measure,value,failure\n"


def test_same_config_twice_is_byte_identical(tmp_path):
    manifest = two_dataset_manifest(tmp_path)
    cfg = ExperimentConfig(
        manifest=str(manifest),
        output_dir=str(tmp_path / "out"),
        methods=("hdp1", "hdp5", "cla", "manual"),
        measures=("f1", "auc", "popt"),
    )
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        result = run_experiment(cfg)
        export_results(result, d)
        write_report(build_report(result), d)
    for name in sorted(p.name for p in dirs[0].iterdir()):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


# ---------------------------------------------------------------------------
# hdp1's per-dataset work

# the three NASA groups share one value scale, so their plans can match
STUB_GROUPS = {"relink": "Apache Safe", "nasa37": "cm1 mw1", "nasa21": "jm1", "nasa36": "pc2",
               "softlab": "ar1 ar3"}


@pytest.fixture(scope="module")
def stub_manifest(tmp_path_factory):
    """Eight of the 34 stub projects in five groups: 50 plans."""
    out = tmp_path_factory.mktemp("stub")
    manifest = write_benchmark_stub_files(out, n_modules=18, seed=3)
    manifest.write_text("".join(
        f"[{tag}]\nloc_metric = {tag}_m0\ngranularity = file\n"
        f"files = {' '.join(f'{name}.csv' for name in names.split())}\n\n"
        for tag, names in STUB_GROUPS.items()
    ))
    return manifest


def _record_hdp1(monkeypatch) -> tuple[dict, dict]:
    """Wrap hdp1_predict and match_metrics; returns (outcomes, matches) by plan."""
    outcomes, matches = {}, {}
    predict, match = hdp.hdp1_predict, hdp.match_metrics

    def recorded_predict(source, target, *args, **kwargs):
        key = (source.name, target.name)
        outcomes[key] = predict(source, target, *args, **kwargs)
        return outcomes[key]

    def recorded_match(source, target, *args, **kwargs):
        key = (source.name, target.name)
        matches[key] = match(source, target, *args, **kwargs)
        return matches[key]

    monkeypatch.setattr(hdp, "hdp1_predict", recorded_predict)
    monkeypatch.setattr(hdp, "match_metrics", recorded_match)
    return outcomes, matches


def test_hdp1_outcomes_equal_the_per_pair_reference(stub_manifest, tmp_path, monkeypatch):
    outcomes, matches = _record_hdp1(monkeypatch)
    cfg = ExperimentConfig(manifest=str(stub_manifest), output_dir=str(tmp_path), methods=("hdp1",))
    result = run_experiment(cfg)
    datasets = {d.name: d for d in harness.load_manifest_datasets(stub_manifest)}
    assert sorted(outcomes) == sorted(matches) == sorted(result.plans) and len(outcomes) == 50
    for (source, target), outcome in outcomes.items():
        assert matches[(source, target)] == reference_hdp.match_metrics(datasets[source], datasets[target])
        want = reference_hdp.hdp1_predict(datasets[source], datasets[target])
        assert outcome.failure == want.failure
        if outcome.ok:
            assert outcome.predictions.scores.tobytes() == want.predictions.scores.tobytes()
            assert np.array_equal(outcome.predictions.predicted, want.predictions.predicted)
    ok = sum(o.ok for o in outcomes.values())
    assert 0 < ok < len(outcomes)  # both matched and unmatched plans are compared


def test_metric_selection_runs_once_per_source_dataset(stub_manifest, tmp_path, monkeypatch):
    ranked = []
    select = hdp.select_top_metrics

    def counted(d, *args, **kwargs):
        ranked.append(d.name)
        return select(d, *args, **kwargs)

    sorted_columns = []
    ks_columns = hdp._ks_columns

    def counted_columns(d):
        sorted_columns.append(d.name)
        return ks_columns(d)

    monkeypatch.setattr(hdp, "select_top_metrics", counted)
    monkeypatch.setattr(hdp, "_ks_columns", counted_columns)
    outcomes, _ = _record_hdp1(monkeypatch)
    cfg = ExperimentConfig(manifest=str(stub_manifest), output_dir=str(tmp_path), methods=("hdp1",))
    result = run_experiment(cfg)
    assert len(outcomes) == len(result.plans) == 50
    assert sorted(ranked) == sorted({s for s, _ in result.plans})  # 8 datasets, once each
    # the same 8 datasets sort their columns once each, as a source and as a target alike
    assert sorted(sorted_columns) == sorted(ranked)


def test_a_dataset_too_small_to_rank_fails_only_as_a_source(tmp_path, monkeypatch):
    manifest = two_dataset_manifest(tmp_path)
    one = (tmp_path / "one.csv").read_text().splitlines()
    (tmp_path / "one.csv").write_text("\n".join(one[:2]) + "\n")  # header and one module
    outcomes, _ = _record_hdp1(monkeypatch)
    cfg = ExperimentConfig(manifest=str(manifest), output_dir=str(tmp_path / "out"),
                           methods=("hdp1",), measures=("f1",))
    failures = {(r.source, r.target): r.failure for r in run_experiment(cfg).rows()}
    # the gain ratio needs two modules; one module is enough for a KS sample
    assert failures[("one", "two")] == "error: feature/labels must be equal-length with >= 2 samples"
    assert outcomes[("two", "one")].ok


# ---------------------------------------------------------------------------
# reports


def test_identical_methods_tie_everywhere(tmp_path):
    manifest = two_dataset_manifest(tmp_path)

    def cla_clone(source, target):
        from hdpbench.udp import cla_predict

        return HdpOutcome(predictions=cla_predict(target))

    register_external_method("claclone", cla_clone)
    try:
        cfg = ExperimentConfig(
            manifest=str(manifest),
            output_dir=str(tmp_path / "out"),
            methods=("claclone", "cla"),
            measures=("f1", "auc"),
        )
        result = run_experiment(cfg)
        report = build_report(result)
    finally:
        unregister_external_method("claclone")
    sk = report["report_scottknott.txt"]
    assert "rank 1: cla" in sk or "rank 1: claclone" in sk
    assert "rank 2" not in sk.split("== auc ==")[1].split("[group")[0]
    wtl = report["report_wtl.txt"]
    assert "0/2/0" in wtl  # two targets, both ties
    diversity = report["report_diversity.txt"]
    assert "claclone vs cla" in diversity
    assert "0/2" in diversity  # identical predictions are never significant


def test_diversity_denominator_counts_group_plans(synth_result):
    report = build_report(synth_result)
    # four single-dataset groups: each target group sees 3 plans
    line = next(
        l for l in report["report_diversity.txt"].splitlines() if l.startswith("cla vs clami")
    )
    assert line.count("/3") == 4
    assert "/12" in line  # summary column over all plans


def _write_results_dir(out, truth, predictions, failed):
    """A hand-written results directory for methods hdp1, cla and manual on
    measure f1. ``truth``: target -> labels; ``predictions``: (variant,
    source, target) -> labels; ``failed``: the (method, source, target)
    cells that recorded a failure instead of a value."""
    out.mkdir()
    (out / "config.ini").write_text(
        "[experiment]\nmanifest = manifest.ini\nmethods = hdp1 cla manual\nmeasures = f1\n"
        "scenario = scenario1\nseed = 0\n"
    )
    plans = sorted({(s, t) for _, s, t in predictions})
    rows = ["method,source,target,measure,value,failure"]
    for source, target in plans:
        for method in ("hdp1", "cla", "manual"):
            cell = ",NoMatchedMetrics" if (method, source, target) in failed else "0.5,"
            rows.append(f"{method},{source},{target},f1,{cell}")
    (out / "results.csv").write_text("\n".join(rows) + "\n")
    (out / "predictions.csv").write_text("variant,source,target,labels\n" + "".join(
        f"{v},{s},{t},{bits}\n" for (v, s, t), bits in sorted(predictions.items())))
    (out / "targets.csv").write_text("target,group,labels\n" + "".join(
        f"{t},g_{t},{bits}\n" for t, bits in sorted(truth.items())))
    (out / "summary.txt").write_text(f"experiment summary\nplans_total: {len(plans)}\n")
    return out


def test_unidentified_counts_on_hand_built_predictions(tmp_path):
    # t1's defective modules are 0, 1, 3 and 5; t2 has none
    truth = {"t1": "110101", "t2": "000"}
    predictions = {
        # hdp1 finds 0 only (module 2 is a false alarm): 1, 3, 5 missed
        ("hdp1", "s1", "t1"): "101000",
        # cla and manual together find 1 and 3: 0 and 5 missed
        ("cla", "s1", "t1"): "010000",
        ("manual", "s1", "t1"): "000100",
        # s2 => t1 has no hdp1 prediction, so the plan is skipped
        ("cla", "s2", "t1"): "000000",
        ("manual", "s2", "t1"): "000000",
        # t2 has no defective module, so the plan is skipped
        ("hdp1", "s1", "t2"): "000",
        ("cla", "s1", "t2"): "000",
        ("manual", "s1", "t2"): "000",
    }
    out = _write_results_dir(tmp_path / "hand", truth, predictions, {("hdp1", "s2", "t1")})
    text = build_report(load_results(out))["report_unidentified.txt"]
    table = text.splitlines()[2:]
    assert [c.strip() for c in table[0].split("|")] == [
        "source => target", "=0 by HDP", "proportion", "=0 by UM", "proportion",
        "=0 by ALL", "proportion",
    ]
    # one data row: only module 5 is missed by every method
    assert [[c.strip() for c in row.split("|")] for row in table[2:]] == [
        ["s1 => t1", "3", "75.00%", "2", "50.00%", "1", "25.00%"],
    ]


def test_satisfactory_cells_are_two_decimal_percentages(synth_result):
    text = report_text = build_report(synth_result)["report_satisfactory.txt"]
    import re

    cells = re.findall(r"\d+\.\d{2}%", report_text)
    assert cells, text


def test_satisfactory_requires_precision_recall(tmp_path):
    manifest = two_dataset_manifest(tmp_path)
    cfg = ExperimentConfig(
        manifest=str(manifest),
        output_dir=str(tmp_path / "out"),
        methods=("cla", "manual"),
        measures=("f1", "auc"),
    )
    report = build_report(run_experiment(cfg))
    assert "requires the precision and recall measures" in report["report_satisfactory.txt"]


def test_reports_of_one_method_or_no_plan_say_what_they_cannot_compute(tmp_path):
    # build_report used to refuse both results
    manifest = two_dataset_manifest(tmp_path)
    cfg = ExperimentConfig(
        manifest=str(manifest),
        output_dir=str(tmp_path / "out"),
        methods=("cla",),
        measures=("f1",),
    )
    one_method = build_report(run_experiment(cfg))
    assert "  rank 1: cla (mean " in one_method["report_scottknott.txt"]
    assert one_method["report_wtl.txt"].endswith(
        "\nneeds at least one heterogeneous and one unsupervised method\n")
    assert one_method["report_diversity.txt"] == (
        "mcnemar diversity on defective modules: significant plans / comparable plans\n\n")
    # two methods, but no plan is left to hold their results
    no_plans = run_experiment(replace(cfg, manifest=str(two_dataset_manifest(tmp_path, disjoint=True)),
                                      methods=("hdp1", "cla"), scenario="scenario2"))
    assert no_plans.plans == []
    report = build_report(no_plans)
    assert report["report_scottknott.txt"] == (
        "scott-knott rankings (scenario2)\n\n== f1 ==\n[all subjects]\n  no method has enough values\n\n")
    assert "\nhdp1   | 0/0/0\n" in report["report_wtl.txt"]
    assert "\nhdp1 vs cla | 0/0\n" in report["report_diversity.txt"]
    assert report["report_unidentified.txt"].endswith(
        "\nno plan has predictions from every configured method\n")


def _sk_section(report: str, measure: str) -> str:
    """The "[all subjects]" lines of ``measure`` in a Scott-Knott report."""
    return report.split(f"== {measure} ==\n[all subjects]\n")[1].split("\n[group: ")[0]


def test_scott_knott_ranks_every_measure_best_first():
    # pmi20 and ifa used to rank by descending mean, their worst method first
    report = scott_knott_report({
        "cla": {"f1": [0.8, 0.9, 0.85, 0.8], "pmi20": [0.1, 0.15, 0.12, 0.1], "ifa": [0.0] * 4},
        "manual": {"f1": [0.1, 0.2, 0.15, 0.1], "pmi20": [0.6, 0.7, 0.65, 0.6], "ifa": [10.0, 12.0, 14.0, 16.0]},
    })
    assert _sk_section(report, "f1") == "  rank 1: cla (mean 0.8375)\n  rank 2: manual (mean 0.1375)"
    assert _sk_section(report, "pmi20") == "  rank 1: cla (mean 0.1175)\n  rank 2: manual (mean 0.6375)"
    # the all-zero column prints as measured, not as a negated -0.0000
    assert _sk_section(report, "ifa") == "  rank 1: cla (mean 0.0000)\n  rank 2: manual (mean 13.0000)"


_SK_VALUES = st.one_of(st.just(float("nan")), st.floats(0, 50, allow_nan=False),
                       st.sampled_from([0.0, 0.5, 1.0]))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6).flatmap(lambda n: st.lists(
    st.lists(st.lists(_SK_VALUES, min_size=n, max_size=n), min_size=8, max_size=8),
    min_size=1, max_size=4)))
def test_scott_knott_puts_the_best_mean_of_each_measure_first(tables):
    methods = ("hdp1", "hdp5", "cla", "manual")[:len(tables)]
    values = {m: dict(zip(MEASURE_IDS, table)) for m, table in zip(methods, tables)}
    report = scott_knott_report(values)
    for measure in MEASURE_IDS:
        section = _sk_section(report, measure)
        columns = {m: np.array(values[m][measure]) for m in methods}
        means = {m: c[~np.isnan(c)].mean() for m, c in columns.items() if (~np.isnan(c)).sum() >= 2}
        if not means:
            assert section.startswith("  no method has enough values")
            continue
        lower = measure in ("pmi20", "ifa")
        best = (min if lower else max)(means.values())
        first = min(m for m, mean in means.items() if mean == best)
        assert section.startswith(f"  rank 1: {first} (mean ")
        # every later method is no better, as printed
        printed = [float(v) for v in re.findall(r"\(mean (-?[\d.]+)\)", section)]
        assert printed == sorted(printed, reverse=not lower)
        assert "-0.0000" not in section


@pytest.mark.parametrize("methods, missing", [
    ("cla spectral", "HDP"), ("hdp1 hdp5", "UM"), ("manual", "HDP"),
], ids=["udp-only", "hdp-only", "manual-only"])
def test_reports_of_a_one_sided_config_count_nothing_for_the_missing_side(tmp_path, methods, missing):
    # the unidentified report once put "0 | 0.00%" under the side without a method
    two_dataset_manifest(tmp_path)
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nmanifest = manifest.ini\noutput_dir = out\nmethods = {methods}\n")
    assert cli.main(["run", str(tmp_path / "c.ini")]) == 0
    out = tmp_path / "out"
    reports = {path.name: path.read_text(encoding="utf-8") for path in out.glob("report_*.txt")}
    assert cli.main(["report", str(out)]) == 0
    assert {path.name: path.read_text(encoding="utf-8") for path in out.glob("report_*.txt")} == reports
    assert len(reports) == 5
    # no report names a method of the missing side
    absent = set(harness.METHODS) - set(methods.split())
    for text in reports.values():
        assert absent.isdisjoint(re.findall(r"[a-z]+\d*", text))
    assert reports["report_wtl.txt"].endswith(
        "\nneeds at least one heterogeneous and one unsupervised method\n")
    assert "hdp vs udp" not in reports["report_diversity.txt"]
    header, _, *rows = reports["report_unidentified.txt"].splitlines()[2:]
    column = [c.strip() for c in header.split("|")].index(f"=0 by {missing}")
    rows = [[c.strip() for c in row.split("|")] for row in rows]
    assert len(rows) == 2
    for row in rows:
        assert row[column:column + 2] == ["n/a", "n/a"]
        assert all(re.fullmatch(r"\d+(\.\d{2}%)?", c) for k, c in enumerate(row[1:], 1)
                   if k not in (column, column + 1))


def test_wtl_records_of_no_target_are_one_empty_record_per_family():
    # no slice once made a float index array, and IndexError
    empty = np.empty((3, 0))
    assert [str(record) for record in harness.wtl_records(empty, empty, [])] == ["0/0/0"] * 3


def test_report_is_pure_function_of_exported_data(synth_result, tmp_path):
    result = synth_result
    out = tmp_path / "exported"
    export_results(result, out)
    direct = build_report(result)
    reloaded = build_report(load_results(out))
    assert direct == reloaded


@pytest.fixture
def registered_run(tmp_path):
    """A run of a registered method ``ext`` and cla, exported to ``out``; the
    method is unregistered again before the test body runs. Returns the
    directory and the reports built from the run itself."""
    manifest = two_dataset_manifest(tmp_path)

    def ext(source, target):
        return HdpOutcome(predictions=udp.cla_predict(target))

    register_external_method("ext", ext)
    try:
        cfg = ExperimentConfig(manifest=str(manifest), output_dir=str(tmp_path / "out"),
                               methods=("ext", "cla"), measures=("f1", "auc"))
        result = run_experiment(cfg)
        export_results(result, cfg.output_dir)
        report = build_report(result)
    finally:
        unregister_external_method("ext")
    return tmp_path / "out", report


def test_reports_of_a_registered_method_rebuild_without_the_registry(registered_run):
    out, direct = registered_run
    assert "ext vs cla" in direct["report_diversity.txt"]
    assert build_report(load_results(out)) == direct


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_report(synth_dir, capsys):
    code = cli.main(["run", str(synth_dir / "config.ini")])
    assert code == 0
    results_dir = synth_dir / "results"
    assert (results_dir / "results.csv").exists()
    before = {p.name: p.read_bytes() for p in results_dir.glob("report_*.txt")}
    code = cli.main(["report", str(results_dir)])
    assert code == 0
    after = {p.name: p.read_bytes() for p in results_dir.glob("report_*.txt")}
    assert before == after


def test_cli_report_rebuilds_a_run_of_a_registered_method(registered_run, capsys):
    out, direct = registered_run
    assert cli.main(["report", str(out)]) == 0
    assert {p.name: p.read_text() for p in out.glob("report_*.txt")} == direct


def test_cli_run_on_a_group_with_two_headers_exits_1(tmp_path, capsys):
    (tmp_path / "one.csv").write_text("a_loc,a1,bug\n1,2,0\n3,4,1\n")
    (tmp_path / "two.csv").write_text("a_loc,zz1,zz2,bug\n1,2,3,0\n4,5,6,1\n")
    (tmp_path / "three.csv").write_text("h_loc,h1,bug\n1,2,0\n3,4,1\n")
    (tmp_path / "m.ini").write_text(
        "[g]\nloc_metric = a_loc\ngranularity = file\nfiles = one.csv two.csv\n\n"
        "[h]\nloc_metric = h_loc\ngranularity = file\nfiles = three.csv\n"
    )
    (tmp_path / "c.ini").write_text("[experiment]\nmanifest = m.ini\noutput_dir = out\n")
    assert cli.main(["run", str(tmp_path / "c.ini")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "two.csv: " in err and "group 'g'" in err
    assert not (tmp_path / "out").exists()


def test_cli_run_reports_failures_with_exit_2(tmp_path, capsys):
    manifest = two_dataset_manifest(tmp_path, disjoint=True)
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nmanifest = {manifest}\noutput_dir = out\n"
        "methods = hdp1 cla\nmeasures = f1 auc\n"
    )
    assert cli.main(["run", str(tmp_path / "c.ini")]) == 2
    err = capsys.readouterr().err
    assert "hdp1: 2" in err


@pytest.mark.parametrize("case", ["one-method", "scenario2-no-plan", "one-dataset", "one-metric-set"])
def test_cli_run_without_a_comparison_writes_every_file_and_report_rebuilds(tmp_path, capsys, case):
    # a config of one method used to exit 1 before it ran, a run without a
    # plan to exit 1 after it wrote its results, and a manifest of one
    # dataset to exit 1 with "need at least two datasets"
    manifest = two_dataset_manifest(tmp_path, disjoint=case == "scenario2-no-plan")
    keys = {"one-method": "methods = cla\n",
            "scenario2-no-plan": "methods = hdp1 cla\nscenario = scenario2\n"}.get(case, "")
    if case == "one-dataset":
        manifest.write_text("[g]\nloc_metric = one_loc\ngranularity = file\nfiles = one.csv\n")
    if case == "one-metric-set":
        (tmp_path / "uno.csv").write_bytes((tmp_path / "one.csv").read_bytes())
        manifest.write_text("[g]\nloc_metric = one_loc\ngranularity = file\nfiles = one.csv uno.csv\n")
    config = tmp_path / "c.ini"
    config.write_text(f"[experiment]\nmanifest = {manifest.name}\noutput_dir = out\n{keys}")
    assert cli.main(["run", str(config)]) == 0
    out = tmp_path / "out"
    files = _files(out)
    assert sorted(capsys.readouterr().out.split()) == sorted(str(out / name) for name in files)
    assert len(files) == 10 and sum(name.startswith("report_") for name in files) == 5
    plans = 2 if case == "one-method" else 0
    assert f"\nplans_in_scenario: {plans}\n" in files["summary.txt"].decode()
    assert cli.main(["report", str(out)]) == 0
    assert _files(out) == files


def test_cli_run_records_an_unsupervised_failure_and_report_rebuilds(tmp_path, capsys):
    manifest = add_one_module_group(two_dataset_manifest(tmp_path))
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nmanifest = {manifest.name}\noutput_dir = out\n"
        "methods = hdp5 cla spectral\nmeasures = f1 popt\n"
    )
    assert cli.main(["run", str(tmp_path / "c.ini")]) == 2
    assert "  spectral: 2" in capsys.readouterr().err
    out = tmp_path / "out"
    results = (out / "results.csv").read_text()
    assert results.count(",error: spectral clustering needs at least 2 modules") == 2 * 2
    before = {p.name: p.read_bytes() for p in out.glob("report_*.txt")}
    assert len(before) == 5
    assert cli.main(["report", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.glob("report_*.txt")} == before


def test_cli_stats(tmp_path, capsys):
    (tmp_path / "d.csv").write_text("loc,bug\n10,1\n20,0\n30,0\n40,1\n")
    assert cli.main(["stats", str(tmp_path / "d.csv")]) == 0
    out = capsys.readouterr().out
    assert "4 modules, 2 defective (50.00%)" in out


def test_cli_combos(tmp_path, capsys):
    manifest = two_dataset_manifest(tmp_path)
    assert cli.main(["combos", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "two -> one" in out and "one -> two" in out
    assert "total: 2" in out


def test_cli_bad_input_exits_nonzero(tmp_path, capsys):
    assert cli.main(["stats", str(tmp_path / "missing.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def _cli_process(*args, env=(), flags=()):
    """``hdpbench`` with ``args`` in a fresh interpreter started with ``flags``,
    its environment updated with ``env``."""
    src = str(Path(hdpbench.__file__).resolve().parents[1])
    environ = {**os.environ, **dict(env),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-m", "hdpbench.cli", *map(str, args)],
                          env=environ, capture_output=True, timeout=300)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_results_files_are_utf8_whatever_the_locale(tmp_path):
    # under an ASCII locale, run failed to write targets.csv and report failed to read it
    config = write_synthetic_benchmark(tmp_path, seed=11)
    manifest = tmp_path / "manifest.ini"
    manifest.write_text(manifest.read_text(encoding="utf-8").replace("[grp_alpha]", "[grp_\u03b1]"),
                        encoding="utf-8")
    result = run_experiment(load_config(config))
    utf8_dir = tmp_path / "utf8"
    export_results(result, utf8_dir)
    write_report(build_report(result), utf8_dir)
    assert "grp_\u03b1" in (utf8_dir / "targets.csv").read_text(encoding="utf-8")
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    run = _cli_process("run", config, env=ascii_locale)
    assert (run.returncode, run.stderr) == (0, b"")
    assert _files(tmp_path / "results") == _files(utf8_dir)
    report = _cli_process("report", utf8_dir, env=ascii_locale)
    assert (report.returncode, report.stderr) == (0, b"")
    assert _files(tmp_path / "results") == _files(utf8_dir)


def test_no_command_opens_a_file_in_the_locale_encoding(tmp_path):
    config = write_synthetic_benchmark(tmp_path, seed=11)
    one_method = tmp_path / "one_method.ini"
    one_method.write_text("[experiment]\nmanifest = manifest.ini\noutput_dir = one\nmethods = cla\n",
                          encoding="utf-8")
    strict = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    for args in (("run", config), ("report", tmp_path / "results"),
                 ("run", one_method), ("report", tmp_path / "one"),
                 ("stats", tmp_path / "alpha.csv"), ("combos", tmp_path / "manifest.ini")):
        done = _cli_process(*args, flags=strict)
        assert (done.returncode, done.stderr) == (0, b""), args


def test_each_target_s_unsupervised_inputs_are_computed_once(synth_dir, monkeypatch):
    # cla and clami used to split the target twice, and manual_rank and
    # bestmetric to compute its efforts again besides the harness's scoring
    calls = {"_cla_parts": [], "effort_values": []}

    def counted(fn):
        def wrapper(d):
            calls[fn.__name__].append(d.name)
            return fn(d)
        return wrapper

    monkeypatch.setattr(udp, "_cla_parts", counted(udp._cla_parts))
    efforts = counted(datasets.effort_values)
    # one wrapper on both bindings, so DefectDataset.derived sees one key
    monkeypatch.setattr(udp, "effort_values", efforts)
    monkeypatch.setattr(harness, "effort_values", efforts)
    result = run_experiment(load_config(synth_dir / "config.ini"))
    targets = sorted(result.target_truth)
    assert {name: sorted(names) for name, names in calls.items()} == {
        "_cla_parts": targets, "effort_values": targets}


def test_result_row_shape():
    row = ResultRow("m", "s", "t", "f1", 0.5, None)
    assert row.value == 0.5 and row.failure is None
    assert ResultRow._fields == harness.RESULT_COLUMNS
    assert row == ResultRow("m", "s", "t", "f1", 0.5, None)
    assert row != ResultRow("m", "s", "t", "f1", 0.25, None)
