"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from hdpbench import harness, measures, stats, udp
from hdpbench.datasets import enumerate_combinations
from hdpbench.hdp import match_from_weights
from helpers import (
    NASA_TAGS,
    benchmark_stub_datasets,
    diversity_report,
    write_benchmark_stub_files,
    write_synthetic_benchmark,
)
import reference_udp


def preds_from(scores, efforts):
    """(scores, efforts) as float vectors in module order."""
    return np.asarray(scores, dtype=float), np.asarray(efforts, dtype=float)


def truth_from(labels):
    return np.asarray(labels, dtype=bool)


def test_criterion_01_acc_pmi_worked_example():
    start = time.perf_counter()
    # 2000 modules, 40 defective; the ranked list inspects exactly 600
    # modules inside the 20% budget and finds 10 of the defective ones
    efforts = np.concatenate([np.ones(600), np.full(1400, 2400 / 1400)])
    labels = np.zeros(2000, dtype=bool)
    labels[:10] = True
    labels[600:630] = True
    preds = preds_from(np.arange(2000, 0, -1), efforts)
    truth = truth_from(labels)
    acc = measures.acc_at(*preds, truth)
    pmi = measures.pmi_at(*preds)
    elapsed = time.perf_counter() - start
    assert acc == 0.25
    assert pmi == 0.30
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 01 PASS acc/pmi worked example (ACC={acc}, PMI={pmi}, {elapsed:.3f}s)")


def test_criterion_02_mcnemar_worked_examples():
    start = time.perf_counter()
    table = {
        "m1": [0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
        "m2": [1, 1, 1, 1, 1, 0, 1, 1, 1, 1],
        "m3": [0, 0, 1, 1, 0, 0, 0, 1, 1, 0],
    }
    # the diversity report's own count and McNemar call, m1-m3 as three methods
    n_cw, n_wc, (p12, p13, _), text = diversity_report(
        {"cla": table["m1"], "clami": table["m2"], "spectral": table["m3"]}, np.ones(10, dtype=bool)
    )
    elapsed = time.perf_counter() - start
    assert (n_cw[:2], n_wc[:2]) == ([1, 2], [8, 4])
    assert p12 == pytest.approx(0.0196, abs=1e-3)
    assert p13 == pytest.approx(0.4142, abs=1e-3)
    assert "cla vs clami      | 1/1 |" in text and "cla vs spectral   | 0/1 |" in text
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 02 PASS mcnemar worked examples (p={p12:.4f}, {p13:.4f}, {elapsed:.3f}s)")


def test_criterion_03_combination_arithmetic():
    start = time.perf_counter()
    datasets = benchmark_stub_datasets()
    plans = enumerate_combinations(datasets)
    group_of = {d.name: d.group_name for d in datasets}
    nasa_internal = [
        (s, t) for s, t in plans if group_of[s] in NASA_TAGS and group_of[t] in NASA_TAGS
    ]
    eq_targets = [(s, t) for s, t in plans if t == "EQ"]
    elapsed = time.perf_counter() - start
    assert len(plans) == 962
    assert len(nasa_internal) == 86
    assert len(eq_targets) == 29
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 03 PASS combination arithmetic (962/86/29, {elapsed:.3f}s)")


def test_criterion_04_popt_bounds_and_oracle():
    rng = np.random.default_rng(100)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        efforts = rng.integers(1, 12, size=n).astype(float)
        labels = (rng.random(n) < 0.4).astype(int)
        labels[int(rng.integers(0, n))] = 1
        density = labels / efforts
        truth = truth_from(labels)

        order_opt = sorted(range(n), key=lambda i: (-density[i], efforts[i]))
        scores = np.empty(n)
        scores[order_opt] = np.arange(n, 0, -1)
        assert measures.popt(*preds_from(scores, efforts), truth) == 1.0

        order_worst = sorted(range(n), key=lambda i: (density[i], -efforts[i]))
        scores[order_worst] = np.arange(n, 0, -1)
        assert measures.popt(*preds_from(scores, efforts), truth) == 0.0

        random_scores = rng.random(n)
        value = measures.popt(*preds_from(random_scores, efforts), truth)
        assert 0.0 <= value <= 1.0
        expected = independent_popt(efforts, labels, random_scores)
        assert value == pytest.approx(expected, abs=1e-9)
        checked += 1
    print(f"\nACCEPTANCE 04 PASS popt bounds and trapezoid oracle ({checked} instances)")


def independent_popt(efforts, labels, scores):
    n = len(efforts)
    density = [l / e for l, e in zip(labels, efforts)]

    def area(order):
        total_e, total_d = sum(efforts), sum(labels)
        points = [(0.0, 0.0)]
        ce = cd = 0.0
        for i in order:
            ce += efforts[i]
            cd += labels[i]
            points.append((ce / total_e, cd / total_d))
        points[-1] = (1.0, 1.0)
        return sum((x1 - x0) * (y0 + y1) / 2 for (x0, y0), (x1, y1) in zip(points, points[1:]))

    a_m = area(sorted(range(n), key=lambda i: -scores[i]))
    a_o = area(sorted(range(n), key=lambda i: (-density[i], efforts[i])))
    a_w = area(sorted(range(n), key=lambda i: (density[i], -efforts[i])))
    if a_o - a_w <= 0:
        return 1.0
    return min(1.0, max(0.0, 1 - (a_o - a_m) / (a_o - a_w)))


def test_criterion_05_auc_oracle_equivalence():
    rng = np.random.default_rng(200)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        scores = rng.integers(0, 8, size=n).astype(float)  # tie-heavy
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        pos = scores[labels]
        neg = scores[~labels]
        brute = sum(
            1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg
        ) / (len(pos) * len(neg))
        assert measures.auc(scores, labels) == pytest.approx(brute, abs=1e-12)
    print("\nACCEPTANCE 05 PASS auc equals brute-force pair counting (200 instances)")


def test_criterion_06_matching_optimality():
    # fsum on both sides so totals are order-independent and exact
    rng = np.random.default_rng(300)
    for _ in range(100):
        r = int(rng.integers(1, 8))
        c = int(rng.integers(1, 8))
        weights = rng.random((r, c))
        match = match_from_weights(weights, [f"s{i}" for i in range(r)], [f"t{j}" for j in range(c)])
        if weights.shape[0] > weights.shape[1]:
            flipped = weights.T
        else:
            flipped = weights
        best = 0.0
        for cols in itertools.permutations(range(flipped.shape[1]), flipped.shape[0]):
            total = math.fsum(
                flipped[i, j] for i, j in enumerate(cols) if flipped[i, j] > 0.05
            )
            best = max(best, total)
        assert math.fsum(p[2] for p in match.pairs) == best
    print("\nACCEPTANCE 06 PASS matching equals permutation brute force (100 matrices)")


def test_criterion_07_wilcoxon_exactness_and_bh():
    rng = np.random.default_rng(400)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        x = rng.integers(0, 5, size=n).astype(float)
        y = rng.integers(0, 5, size=n).astype(float)
        assert stats.wilcoxon_signed_rank(x, y) == pytest.approx(
            oracle_exact_wilcoxon(x, y), abs=1e-12
        )
    adjusted = stats.bh_adjust([0.01, 0.02, 0.04])
    assert adjusted == pytest.approx([0.03, 0.03, 0.04], abs=1e-15)
    print("\nACCEPTANCE 07 PASS wilcoxon exact enumeration and BH step-up")


def oracle_exact_wilcoxon(x, y):
    diffs = [a - b for a, b in zip(x, y) if a != b]
    n = len(diffs)
    if n == 0:
        return 1.0
    magnitudes = sorted(abs(d) for d in diffs)
    ranks = [
        sum(i + 1 for i, m in enumerate(magnitudes) if m == abs(d))
        / sum(1 for m in magnitudes if m == abs(d))
        for d in diffs
    ]
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    ge = le = total = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        total += 1
        ge += w >= w_obs - 1e-9
        le += w <= w_obs + 1e-9
    return min(1.0, 2 * min(ge / total, le / total))


def test_criterion_08_scott_knott_sanity():
    one_group = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        samples = {f"m{k}": list(rng.normal(0.5, 0.1, 30)) for k in range(5)}
        one_group += len(stats.scott_knott(samples).groups) == 1
    assert one_group >= 95
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        ranking = stats.scott_knott({
            "hi": list(rng.normal(10.0, 1.0, 20)),
            "lo": list(rng.normal(0.0, 1.0, 20)),
        })
        assert ranking.groups == (("hi",), ("lo",))
    print(f"\nACCEPTANCE 08 PASS scott-knott sanity ({one_group}/100 single group; 10-sigma always splits)")


def test_criterion_09_method_invariants():
    rng = np.random.default_rng(500)
    transforms = [lambda c: 2.5 * c + 1, np.sqrt, lambda c: c**2, np.log1p, np.exp]
    from helpers import make_dataset

    for trial in range(100):
        n = int(rng.integers(4, 20))
        m = int(rng.integers(2, 6))
        values = rng.lognormal(1, 0.8, size=(n, m)) + 0.5
        values[:, 0] = rng.integers(1, 400, size=n)
        labels = rng.random(n) < 0.4
        d = make_dataset("t", values, labels)
        cla_base = udp.cla_predict(d).predicted.tolist()
        manual_base = udp.manual_rank(d)["down"].predicted.tolist()
        warped = np.column_stack([
            transforms[(trial + j) % len(transforms)](values[:, j]) for j in range(m)
        ])
        d2 = make_dataset("t", warped, labels)
        assert udp.cla_predict(d2).predicted.tolist() == cla_base
        assert udp.manual_rank(d2)["down"].predicted.tolist() == manual_base

    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 25))
        values = rng.lognormal(1, 1, size=(n, 4))
        d = make_dataset("t", values, rng.random(n) < 0.4)
        w = reference_udp.connectivity_matrix(d)
        if not np.any(w > 0):
            continue
        laplacian = reference_udp.normalized_laplacian(w)
        eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
        v = eigenvectors[:, 1]
        worst = max(worst, float(np.linalg.norm(laplacian @ v - eigenvalues[1] * v)))
    assert worst < 1e-8
    print(f"\nACCEPTANCE 09 PASS method invariants (100 transforms; eigen residual {worst:.2e})")


def test_criterion_10_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    data_dir = tmp_path / "data"
    config = write_synthetic_benchmark(data_dir, seed=21, measures="f1 auc acc popt pmi20 ifa")
    cfg = harness.load_config(config)
    outputs = {}
    for label in ("run1", "run2"):
        result = harness.run_experiment(cfg)
        out = tmp_path / label
        harness.export_results(result, out)
        harness.write_report(harness.build_report(result), out)
        outputs[label] = {p.name: p.read_bytes() for p in out.iterdir()}
    elapsed = time.perf_counter() - start
    assert outputs["run1"] == outputs["run2"], "repeat run differs"
    assert elapsed < 60.0
    n_files = len(outputs["run1"])
    print(f"\nACCEPTANCE 10 PASS end-to-end determinism ({n_files} files x 2 runs, {elapsed:.1f}s)")


def test_criterion_11_full_replication_mode(tmp_path):
    start = time.perf_counter()
    manifest = write_benchmark_stub_files(tmp_path / "data", n_modules=18, seed=3)
    cfg = harness.ExperimentConfig(
        manifest=str(manifest),
        output_dir=str(tmp_path / "out"),
        methods=("hdp1", "hdp5", "cla", "clami", "spectral", "manual", "bestmetric"),
        measures=("precision", "recall", "f1", "auc", "acc", "popt", "pmi20", "ifa"),
    )
    result = harness.run_experiment(cfg)
    assert result.n_plans_total == 962
    assert len(result.plans) == 962
    rows = list(result.rows())
    assert len(rows) == 962 * 7 * 8
    no_match_plans = {
        (r.source, r.target) for r in rows if r.failure == "NoMatchedMetrics"
    }
    assert no_match_plans, "stub data should produce some matching failures"
    assert all(r.method == "hdp1" for r in rows if r.failure == "NoMatchedMetrics")
    report = harness.build_report(result)
    assert sorted(report) == [
        "report_diversity.txt",
        "report_satisfactory.txt",
        "report_scottknott.txt",
        "report_unidentified.txt",
        "report_wtl.txt",
    ]
    for name, text in report.items():
        assert len(text.splitlines()) > 3, f"{name} looks empty"
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 11 PASS full replication mode (962 plans, "
        f"{len(no_match_plans)} hdp1 failures, {elapsed:.1f}s)"
    )
