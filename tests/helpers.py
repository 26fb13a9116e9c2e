"""Shared test fixtures: in-memory dataset construction, the 34-project
benchmark stub schemas, a small synthetic benchmark on disk, and probes of
the effort curves P_opt integrates, of the diversity report's counts and
of the Scott-Knott report on a hand-made value table."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence
from unittest import mock

import numpy as np

from hdpbench import harness, stats
from hdpbench.datasets import DefectDataset
from hdpbench.measures import Ranking, RankingScorer

# (project, schema tag, metric count, modules, defective) for the five
# public benchmark groups; NASA splits into five metric-set variants.
BENCHMARK_PROJECTS = [
    ("EQ", "aeeem", 61, 324, 129),
    ("JDT", "aeeem", 61, 997, 206),
    ("LC", "aeeem", 61, 691, 64),
    ("ML", "aeeem", 61, 1862, 245),
    ("PDE", "aeeem", 61, 1492, 209),
    ("Apache", "relink", 26, 194, 98),
    ("Safe", "relink", 26, 56, 22),
    ("Zxing", "relink", 26, 399, 118),
    ("ant-1.3", "promise", 20, 125, 20),
    ("arc", "promise", 20, 234, 27),
    ("camel-1.0", "promise", 20, 339, 13),
    ("poi-1.5", "promise", 20, 237, 141),
    ("redaktor", "promise", 20, 176, 27),
    ("skarbonka", "promise", 20, 45, 9),
    ("tomcat", "promise", 20, 858, 77),
    ("velocity-1.4", "promise", 20, 196, 147),
    ("xalan-2.4", "promise", 20, 723, 110),
    ("xerces-1.2", "promise", 20, 440, 71),
    ("cm1", "nasa37", 37, 344, 42),
    ("mw1", "nasa37", 37, 264, 27),
    ("pc1", "nasa37", 37, 759, 61),
    ("pc3", "nasa37", 37, 1125, 140),
    ("pc4", "nasa37", 37, 1399, 178),
    ("jm1", "nasa21", 21, 9593, 1759),
    ("pc2", "nasa36", 36, 1585, 16),
    ("pc5", "nasa38", 38, 17001, 503),
    ("mc1", "nasa38", 38, 9277, 68),
    ("mc2", "nasa39", 39, 127, 44),
    ("kc3", "nasa39", 39, 200, 36),
    ("ar1", "softlab", 29, 121, 9),
    ("ar3", "softlab", 29, 63, 8),
    ("ar4", "softlab", 29, 107, 20),
    ("ar5", "softlab", 29, 36, 8),
    ("ar6", "softlab", 29, 101, 15),
]

NASA_TAGS = ("nasa37", "nasa21", "nasa36", "nasa38", "nasa39")

# distribution scale per schema tag: overlapping scales make some
# cross-group metric matches succeed while others fail
STUB_SCALES = {
    "aeeem": 0.0,
    "relink": 2.0,
    "promise": 60.0,
    "nasa37": 8.0,
    "nasa21": 8.0,
    "nasa36": 8.0,
    "nasa38": 8.0,
    "nasa39": 8.0,
    "softlab": 1000.0,
}


def make_dataset(
    name: str,
    values,
    labels,
    group: str = "test-group",
    metric_names: tuple[str, ...] | None = None,
    loc_index: int = 0,
) -> DefectDataset:
    values = np.asarray(values, dtype=float)
    if metric_names is None:
        metric_names = tuple(f"{name}_m{j}" for j in range(values.shape[1]))
    return DefectDataset(name, group, metric_names, metric_names[loc_index], values,
                         np.asarray(labels, dtype=bool))


def stub_metric_names(tag: str, count: int) -> tuple[str, ...]:
    return tuple(f"{tag}_m{j}" for j in range(count))


def benchmark_stub_datasets(n_modules: int = 4, seed: int = 0) -> list[DefectDataset]:
    """34 tiny datasets whose metric-name sets mirror the public benchmark."""
    rng = np.random.default_rng(seed)
    datasets = []
    for name, tag, n_metrics, _, _ in BENCHMARK_PROJECTS:
        values = rng.random((n_modules, n_metrics)) + STUB_SCALES[tag]
        labels = np.zeros(n_modules, dtype=bool)
        labels[0] = True
        datasets.append(
            make_dataset(name, values, labels, group=tag,
                         metric_names=stub_metric_names(tag, n_metrics))
        )
    return datasets


def write_benchmark_stub_files(out_dir: Path, n_modules: int = 18, seed: int = 3) -> Path:
    """Write 34 stub CSVs plus a manifest; returns the manifest path.

    Values are lognormal at the group's scale with a planted defect signal,
    so metric matching succeeds within overlapping scales and fails across
    distant ones.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    tags: dict[str, list[str]] = {}
    for name, tag, n_metrics, _, defective in BENCHMARK_PROJECTS:
        labels = np.zeros(n_modules, dtype=bool)
        labels[: max(2, n_modules // 4)] = True
        values = rng.lognormal(1.0, 0.7, size=(n_modules, n_metrics)) + STUB_SCALES[tag]
        values[labels] *= 1.6
        file_name = f"{name}.csv"
        with (out_dir / file_name).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(stub_metric_names(tag, n_metrics)) + ["bug"])
            for row, label in zip(values, labels):
                writer.writerow([repr(float(v)) for v in row] + [int(label)])
        tags.setdefault(tag, []).append(file_name)
    return _write_stub_manifest(out_dir, tags)


def write_count_benchmark_files(out_dir: Path, scale: float = 1.0, seed: int = 3) -> Path:
    """Write the 34 benchmark projects as count-valued CSVs plus a manifest;
    returns the manifest path.

    Each project has max(20, round(real modules * scale)) modules, and its
    first max(2, n // 4) are defective (ar5 has none). One generator draws,
    project by project, floor(lognormal(1, 1) * (1 + offset / 10)) with the
    group's ``STUB_SCALES`` offset, defective rows 1.6x before the floor,
    and then a mask that sets 30% of the cells to 0. Metric columns 1 and 2
    are all 0. So the inputs have integer cells, ties, zero LOC, constant
    columns and a single-class target.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    tags: dict[str, list[str]] = {}
    for name, tag, n_metrics, real_modules, _ in BENCHMARK_PROJECTS:
        n = max(20, round(real_modules * scale))
        labels = np.zeros(n, dtype=bool)
        if name != "ar5":
            labels[: max(2, n // 4)] = True
        values = rng.lognormal(1.0, 1.0, size=(n, n_metrics)) * (1 + STUB_SCALES[tag] / 10)
        values[labels] *= 1.6
        values = np.floor(values)
        values[rng.random((n, n_metrics)) < 0.3] = 0.0
        values[:, 1:3] = 0.0
        file_name = f"{name}.csv"
        with (out_dir / file_name).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(stub_metric_names(tag, n_metrics)) + ["bug"])
            writer.writerows(row + [label] for row, label in zip(values.astype(int).tolist(),
                                                                 labels.astype(int).tolist()))
        tags.setdefault(tag, []).append(file_name)
    return _write_stub_manifest(out_dir, tags)


def _write_stub_manifest(out_dir: Path, tags: Mapping[str, Sequence[str]]) -> Path:
    """A manifest with one group per schema tag, its LOC metric the tag's m0."""
    lines = []
    for tag, files in tags.items():
        lines += [
            f"[{tag}]",
            f"loc_metric = {tag}_m0",
            "granularity = file",
            f"files = {' '.join(files)}",
            "",
        ]
    manifest = out_dir / "manifest.ini"
    manifest.write_text("\n".join(lines))
    return manifest


def write_synthetic_benchmark(
    out_dir: Path,
    seed: int = 11,
    measures: str = "f1 auc acc popt pmi20 ifa",
) -> Path:
    """Four heterogeneous datasets (<= 200 modules), manifest, and config.

    Returns the config path. Defect signal is planted in half the metrics
    so every method has something to rank.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    specs = [("alpha", 160, 8, 0.25), ("beta", 120, 6, 0.35),
             ("gamma", 200, 10, 0.2), ("delta", 80, 5, 0.4)]
    manifest_lines = []
    for name, n, m, rate in specs:
        labels = rng.random(n) < rate
        labels[0] = True
        labels[1] = False
        values = np.empty((n, m))
        for j in range(m):
            col = rng.lognormal(1.0 + 0.2 * j, 0.6, size=n)
            if j % 2 == 0:
                col[labels] *= 1.8
            values[:, j] = np.round(col, 4)
        values[:, 0] = np.round(rng.lognormal(3.0, 0.8, size=n)) + 1
        values[labels, 0] = np.round(values[labels, 0] * 1.5) + 1
        with (out_dir / f"{name}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"{name}_m{j}" for j in range(m)] + ["bug"])
            for row, label in zip(values, labels):
                writer.writerow([repr(float(v)) for v in row] + [int(label)])
        manifest_lines += [
            f"[grp_{name}]",
            f"loc_metric = {name}_m0",
            "granularity = file",
            f"files = {name}.csv",
            "",
        ]
    (out_dir / "manifest.ini").write_text("\n".join(manifest_lines))
    config = out_dir / "config.ini"
    config.write_text(
        "[experiment]\n"
        "manifest = manifest.ini\n"
        "output_dir = results\n"
        "methods = hdp1 hdp5 cla clami spectral manual bestmetric\n"
        f"measures = {measures}\n"
        "scenario = scenario1\n"
        f"seed = {seed}\n"
    )
    return config


def scorer_curve(
    scores: Sequence[float], efforts: Sequence[float], actual: Sequence[bool], ordering: str,
) -> tuple[tuple[tuple[float, float], ...], float]:
    """The (x, y) points and the area of an effort curve that
    ``RankingScorer`` integrates for P_opt: the ranking ``by_score`` or the
    ``optimal`` or ``worst`` one."""
    record = RankingScorer(efforts, actual)
    if ordering == "by_score":
        order = Ranking(scores).order
    else:
        order = record._extreme_order(ordering)
    ranked = record._ranked(order)
    x, y = record._curve(ranked)
    return tuple(zip(x.tolist(), y.tolist())), record._area(ranked)


def diversity_report(
    labels: Mapping[str, Sequence[bool]], truth: Sequence[bool]
) -> tuple[list[int], list[int], list[float], str]:
    """``harness._report_diversity`` on one plan of one target with truth
    ``truth``, on which each method of ``labels`` (one whose only label
    variant is its own name, in config order) predicts its flags.

    Returns the discordant counts n_cw and n_wc that the report passed to
    ``stats.mcnemar_pvalues`` and the p-values it got, one per method pair
    in the report's order, and the report's text.
    """
    methods = tuple(labels)
    cfg = harness.ExperimentConfig(manifest="manifest.ini", output_dir="out", methods=methods,
                                   measures=("f1",))
    truth = np.asarray(truth, dtype=bool)
    predictions = {(m, "s", "t"): np.asarray(flags, dtype=bool) for m, flags in labels.items()}
    result = harness.ExperimentResult.from_blocks(
        cfg, [("s", "t")], [0.5] * len(methods), [""] * len(methods), {"t": "g"},
        {"t": truth}, predictions, 1,
    )
    calls = []
    with mock.patch.object(stats, "mcnemar_pvalues", wraps=stats.mcnemar_pvalues) as spy:
        text = harness._report_diversity(result, harness._target_slices(result),
                                         harness._group_plans(result))
        (n_cw, n_wc), = [c.args for c in spy.call_args_list]
    return n_cw[0].tolist(), n_wc[0].tolist(), stats.mcnemar_pvalues(n_cw, n_wc)[0].tolist(), text


def scott_knott_report(values: Mapping[str, Mapping[str, Sequence[float]]]) -> str:
    """``harness._report_scott_knott`` on one target of group "g" whose
    plans have the values ``values[method][measure]`` (NaN where absent),
    one per plan in plan order; methods and measures in the order given."""
    methods = tuple(values)
    measure_ids = tuple(values[methods[0]])
    n = len(values[methods[0]][measure_ids[0]])
    cfg = harness.ExperimentConfig(manifest="manifest.ini", output_dir="out", methods=methods,
                                   measures=measure_ids)
    block = [values[m][measure][k] for k in range(n) for m in methods for measure in measure_ids]
    result = harness.ExperimentResult.from_blocks(
        cfg, [(f"s{k:04d}", "t") for k in range(n)], block, [""] * len(block), {"t": "g"},
        {"t": np.zeros(1, dtype=bool)}, {}, n,
    )
    return harness._report_scott_knott(result, harness._group_plans(result))


#: what ``datasets.read_input`` says of the byte ``put_latin1_byte`` writes
NOT_UTF8 = "not UTF-8 (invalid continuation byte)"


def put_latin1_byte(path: Path, line: int) -> None:
    """Put 0xe9, Latin-1's 'é', at the start of line ``line`` of ``path``,
    lines being split at ``\\n``. Before an ASCII byte it is not UTF-8."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xe9" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))
