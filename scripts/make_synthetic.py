"""Generate a small synthetic heterogeneous benchmark: four datasets with
disjoint metric sets, a manifest, and an experiment config.

Each dataset plants a defect signal in a subset of its metrics (defective
modules draw from a shifted distribution) so supervised transfer has
something to find, and LOC correlates loosely with defectiveness the way
size metrics do in the public benchmark groups.

Usage: python scripts/make_synthetic.py [out_dir] [--seed N]
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

SPECS = [
    # name, group, modules, metrics, defect rate
    ("alpha", "grp_a", 180, 8, 0.25),
    ("beta", "grp_a2", 150, 6, 0.35),
    ("gamma", "grp_b", 120, 10, 0.20),
    ("delta", "grp_c", 90, 5, 0.40),
]


def make_dataset(rng: np.random.Generator, n: int, m: int, rate: float):
    labels = rng.random(n) < rate
    if not labels.any():
        labels[0] = True
    if labels.all():
        labels[0] = False
    values = np.empty((n, m))
    for j in range(m):
        base = rng.lognormal(mean=1.0 + 0.3 * j, sigma=0.6, size=n)
        if j % 2 == 0:  # informative metric: defective modules run larger
            base[labels] *= rng.uniform(1.5, 2.5)
        values[:, j] = np.round(base, 4)
    loc = np.round(rng.lognormal(mean=3.0, sigma=0.8, size=n)) + 1
    loc[labels] = np.round(loc[labels] * 1.4) + 1
    values[:, 0] = loc
    return values, labels


def write_csv(path: Path, metric_names: list[str], values, labels) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(metric_names + ["bug"])
        for row, label in zip(values, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="example_data")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    manifest_lines = []
    for name, group, n, m, rate in SPECS:
        metric_names = [f"{name}_loc"] + [f"{name}_m{j}" for j in range(1, m)]
        values, labels = make_dataset(rng, n, m, rate)
        write_csv(out / f"{name}.csv", metric_names, values, labels)
        manifest_lines += [
            f"[{group}]",
            f"loc_metric = {name}_loc",
            "granularity = file",
            f"files = {name}.csv",
            "",
        ]
    (out / "manifest.ini").write_text("\n".join(manifest_lines))
    (out / "config.ini").write_text(
        "[experiment]\n"
        "manifest = manifest.ini\n"
        "output_dir = results\n"
        "methods = hdp1 hdp5 cla clami spectral manual bestmetric\n"
        "measures = precision recall f1 auc acc popt pmi20 ifa\n"
        "scenario = scenario1\n"
        "seed = 7\n"
    )
    print(f"wrote {out}/: 4 datasets, manifest.ini, config.ini")
    print(f"next: hdpbench run {out / 'config.ini'}")


if __name__ == "__main__":
    main()
