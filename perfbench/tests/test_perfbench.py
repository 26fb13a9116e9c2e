"""Tests of the benchmark itself: generators, tracer, convergence, checks."""

import csv
import importlib.util
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

from hdpbench import harness, hdp, learner
from perfbench import checks, layers, workloads
from perfbench.speed import SpeedProbe
from perfbench.trace import TRACED, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]

# three metric sets, twelve modules each: six plans that run in about a second
TINY_PROJECTS = [p for p in workloads.BENCHMARK_PROJECTS if p[0] in ("Apache", "cm1", "ar1")]


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    return workloads._write_stub_projects(out, TINY_PROJECTS, seed=1, n_modules=12)


def _tiny_config(manifest: Path, out_dir: Path) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(manifest=str(manifest), output_dir=str(out_dir))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    seed = workloads.DEFAULT_SEEDS[workload]
    first = _files(workloads.generate(workload, tmp_path / "a", seed, ROOT).parent)
    again = _files(workloads.generate(workload, tmp_path / "b", seed, ROOT).parent)
    other = _files(workloads.generate(workload, tmp_path / "c", seed + 1, ROOT).parent)
    assert first == again
    assert first != other


def test_parts_are_distinct_seeded_inputs(tmp_path):
    first = _files(workloads.generate("plans226", tmp_path / "a", 3, ROOT).parent)
    part1 = _files(workloads.generate("plans226", tmp_path / "b", 3, ROOT, part=1).parent)
    again = _files(workloads.generate("plans226", tmp_path / "c", 3, ROOT, part=1).parent)
    assert part1 == again
    assert part1 != first
    assert part1["manifest.ini"] == first["manifest.ini"]  # same projects, other values


def test_speed_probe_samples_while_open_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        nominal, wall, value = probe.timed(sum, range(10))
        assert value == 45 and probe.durations and nominal > 0 and wall >= 0
        nominal, wall, _ = probe.timed(lambda: [sum(range(2000)) for _ in range(10000)])
    assert len(probe.durations) > 2  # the longer call was sampled by the timer
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_expected_plan_counts(tmp_path):
    counts = {
        name: checks.expected_plans(workloads.generate(name, tmp_path / name, 1, ROOT))
        for name in workloads.GENERATORS
    }
    assert counts == {"plans226": 226, "bigtargets": 12, "demo": 12}


def test_project_shapes_match_the_test_helpers():
    spec = importlib.util.spec_from_file_location("_helpers", ROOT / "tests" / "helpers.py")
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    assert workloads.BENCHMARK_PROJECTS == helpers.BENCHMARK_PROJECTS
    assert workloads.STUB_SCALES == helpers.STUB_SCALES


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has [6, 8]
    parents = np.array([-1, 0, 0, 2])
    starts = np.array([0.0, 1.0, 5.0, 6.0])
    ends = np.array([10.0, 4.0, 9.0, 8.0])
    assert self_times(parents, starts, ends).tolist() == [3.0, 3.0, 2.0, 2.0]


def _package_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "hdpbench" or name.startswith("hdpbench.")
        for key, value in vars(module).items()
        if callable(value)
    }


def test_traced_run_counts_calls_and_restores_every_binding(tiny_manifest, tmp_path):
    before = _package_bindings()
    tracer = Tracer("test")
    facts = layers.Facts(tracer)
    with tracer:
        assert hdp.ks_pvalue is not before[("hdpbench.hdp", "ks_pvalue")]
        assert hdp.train_logistic is learner.train_logistic  # from-import patched too
        result = harness.run_experiment(_tiny_config(tiny_manifest, tmp_path))
        harness.build_report(result)
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    summary = tracer.summary()
    assert summary["hdp.hdp1"]["calls"] == summary["hdp.hdp5"]["calls"] == 6
    assert summary["harness.run_experiment"]["calls"] == 1
    assert not tracer.absent
    metrics = layers.metrics(tracer, facts, overhead_s=0.0)
    assert set(metrics) == set(layers.metric_names())
    assert metrics["hdp.feature_rows"][0] == 6 * 24  # every source and target row, per plan
    assert metrics["datasets.modules_loaded"][0] == 36
    assert metrics["measures.modules_scored"][0] == 12 * metrics["measures.calls"][0] > 0
    run_self = metrics["harness.run_experiment_self_s"][0]
    assert 0 <= run_self <= summary["harness.run_experiment"]["total_s"]


def test_missing_function_is_reported_absent(tiny_manifest, tmp_path):
    traced = {**TRACED, "hdp.ks": ("hdp", "no_such_function"), "udp.cla": ("nosuchmodule", "x")}
    tracer = Tracer("test", traced)
    facts = layers.Facts(tracer)
    with tracer:
        harness.run_experiment(_tiny_config(tiny_manifest, tmp_path))
    assert tracer.absent == {"hdp.ks": "hdpbench.hdp.no_such_function",
                             "udp.cla": "hdpbench.nosuchmodule.x"}
    missing = layers.absent(tracer)
    assert missing == {"hdp.ks_s": "hdpbench.hdp.no_such_function",
                       "hdp.ks_calls": "hdpbench.hdp.no_such_function",
                       "udp.cla_s": "hdpbench.nosuchmodule.x"}
    metrics = layers.metrics(tracer, facts, overhead_s=0.0)
    assert metrics["hdp.ks_calls"][0] == 0


def test_convergence_is_recomputed_from_the_returned_model():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = X[:, 0] + 0.5 * rng.normal(size=40) > 0
    capped = learner.TrainConfig(max_iters=2)
    fits = [
        ((X, y), {}, learner.train_logistic(X, y)),
        ((X, y, capped), {}, learner.train_logistic(X, y, capped)),
        ((X, np.ones(40, dtype=bool)), {}, learner.train_logistic(X, np.ones(40, dtype=bool))),
    ]
    unconverged, worst = layers.convergence(
        fits, learner.train_logistic, learner.predict_proba, learner.zscore_apply)
    assert unconverged == 1
    assert worst >= capped.tolerance


def test_a_corrupted_row_fails_the_check(tiny_manifest, tmp_path):
    out = tmp_path / "out"
    result = harness.run_experiment(_tiny_config(tiny_manifest, out))
    harness.export_results(result, out)
    n_plans = checks.expected_plans(tiny_manifest)
    problems, cells, errors = checks.check_results(out, n_plans)
    assert (problems, cells, errors) == ([], 6 * 7, 0)

    path = out / "results.csv"
    rows = list(csv.reader(path.read_text().splitlines()))
    clean = [list(r) for r in rows]
    line = next(i for i, r in enumerate(rows) if r[3] == "auc" and r[4])
    rows[line][4] = "1.5"
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    problems, _, _ = checks.check_results(out, n_plans)
    assert len(problems) == 1 and "auc 1.5 outside [0, 1.0]" in problems[0]

    clean[1][5] = "error: boom"
    clean[1][4] = ""
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(clean[:-1])
    problems, _, errors = checks.check_results(out, n_plans)
    assert errors == 1
    assert any("result rows" in p for p in problems)
