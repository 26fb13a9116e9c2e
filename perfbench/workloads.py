"""Seeded input generators for the benchmark's workloads.

Each generator writes CSV files plus a ``manifest.ini`` into a directory and
returns the manifest path; the program under test sees only those files.
The same seed and part always give byte-identical files.

A workload of several ``PARTS`` measures each run on that many independent
inputs drawn from the run's seed; part 0 is the seed's own input. On
plans226 the cost of a pass follows how hard a few sources are to fit, which
changes from one input to the next, so a run averages over three.
"""

from __future__ import annotations

import csv
import subprocess
import sys
from pathlib import Path

import numpy as np

# (project, schema tag, metric count, modules, defective): the metric-set
# shapes of the public benchmark, copied from tests/helpers.py so that the
# benchmark's inputs stay fixed when the test helpers change.
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

# distribution offset per schema tag (as in tests/helpers.py): groups that
# share an offset match each other's metrics, distant ones do not
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

# four metric sets at their real module counts; only pc2 <-> pc4 share an
# offset, so hdp1 matches those two plans and reports NoMatchedMetrics on
# the other ten
BIGTARGET_PROJECTS = ("ML", "pc2", "pc4", "tomcat")

# the first two projects of each of the nine metric sets, 18 modules each:
# 16 projects give 226 heterogeneous plans, a quarter of the paper's 962,
# so that a plan-bound run fits the benchmark's time budget
PLANS_PER_TAG = 2
PLANS_MODULES = 18

DEFAULT_SEEDS = {"plans226": 3, "bigtargets": 5, "demo": 7}
PARTS = {"plans226": 3, "bigtargets": 1, "demo": 1}

# three metric sets, twelve modules each: six plans that run in about a
# second, to warm the package up before a timed pass
WARMUP_PROJECTS = ("Apache", "cm1", "ar1")
WARMUP_MODULES = 12

MAKE_SYNTHETIC = Path("scripts") / "make_synthetic.py"


def part_seed(seed: int, part: int):
    """The random seed of one part: the run's seed itself for part 0."""
    return seed if part == 0 else [seed, part]


def _write_stub_projects(
    out_dir: Path, projects: list[tuple], seed, n_modules: int | None
) -> Path:
    """Stub CSVs like tests/helpers.py:write_benchmark_stub_files.

    Values are lognormal shifted by the group's offset, a quarter of the
    modules are defective and carry a 1.6x planted signal. ``n_modules``
    None keeps each project's real module count.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    files_by_tag: dict[str, list[str]] = {}
    for name, tag, n_metrics, real_modules, _ in projects:
        n = real_modules if n_modules is None else n_modules
        labels = np.zeros(n, dtype=bool)
        labels[: max(2, n // 4)] = True
        values = rng.lognormal(1.0, 0.7, size=(n, n_metrics)) + STUB_SCALES[tag]
        values[labels] *= 1.6
        file_name = f"{name}.csv"
        with (out_dir / file_name).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"{tag}_m{j}" for j in range(n_metrics)] + ["bug"])
            for row, label in zip(values, labels):
                writer.writerow([repr(float(v)) for v in row] + [int(label)])
        files_by_tag.setdefault(tag, []).append(file_name)
    lines = []
    for tag, files in files_by_tag.items():
        lines += [f"[{tag}]", f"loc_metric = {tag}_m0", "granularity = file",
                  f"files = {' '.join(files)}", ""]
    manifest = out_dir / "manifest.ini"
    manifest.write_text("\n".join(lines))
    return manifest


def plans226(out_dir: Path, seed, root: Path) -> Path:
    kept: dict[str, int] = {}
    projects = []
    for project in BENCHMARK_PROJECTS:
        tag = project[1]
        if kept.get(tag, 0) < PLANS_PER_TAG:
            kept[tag] = kept.get(tag, 0) + 1
            projects.append(project)
    return _write_stub_projects(out_dir, projects, seed, PLANS_MODULES)


def bigtargets(out_dir: Path, seed, root: Path) -> Path:
    projects = [p for p in BENCHMARK_PROJECTS if p[0] in BIGTARGET_PROJECTS]
    return _write_stub_projects(out_dir, projects, seed, None)


def demo(out_dir: Path, seed, root: Path) -> Path:
    """The documented demo data: the repository's make_synthetic.py output."""
    if not isinstance(seed, int):  # the script takes one integer seed
        seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
    script = root / MAKE_SYNTHETIC
    if not script.is_file():
        raise FileNotFoundError(f"{MAKE_SYNTHETIC} not found under {root}")
    subprocess.run(
        [sys.executable, str(script), str(out_dir), "--seed", str(seed)],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return out_dir / "manifest.ini"


GENERATORS = {"plans226": plans226, "bigtargets": bigtargets, "demo": demo}


def generate(workload: str, out_dir: Path, seed: int, root: Path, part: int = 0) -> Path:
    """Write the workload's inputs for ``seed`` and ``part`` into ``out_dir``; returns the manifest."""
    return GENERATORS[workload](Path(out_dir), part_seed(seed, part), Path(root))


def warmup(out_dir: Path, seed: int) -> Path:
    """A small input that runs every method once, untimed, before the timed passes."""
    projects = [p for p in BENCHMARK_PROJECTS if p[0] in WARMUP_PROJECTS]
    return _write_stub_projects(Path(out_dir), projects, seed, WARMUP_MODULES)
