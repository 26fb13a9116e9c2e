"""What importing the package costs: the modules it loads.

The package and its command line load numpy and no scipy module. scipy
loads where it is first used: at the first KS p-value (``hdp1``), the
first connected spectral split (``eigsh`` and ``dsymv``) or the first
Scott-Knott or McNemar statistic of a report (``scipy.special``). So
loading datasets, as ``stats`` and ``combos`` do, loads no scipy module,
and ``report`` loads no eigensolver.
"""

import os
import subprocess
import sys
from pathlib import Path

import hdpbench
from hdpbench import harness

from helpers import write_synthetic_benchmark

MAKE_SYNTHETIC = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic.py"


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes longer to import than the rest of the package; the
    # package ranks with numpy, so a fresh interpreter that loads the package
    # and its command line must not load it (the tests use scipy.stats.rankdata
    # as an oracle only)
    src = str(Path(hdpbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, hdpbench, hdpbench.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"


def _last_line(code, *args):
    """The last line ``code`` prints in a fresh interpreter that has the
    package on its path and ``args`` in ``sys.argv[1:]``."""
    src = str(Path(hdpbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.splitlines()[-1]


def test_loading_datasets_imports_no_scipy(tmp_path):
    # loading a dataset needs only numpy, so stats and combos import no scipy
    write_synthetic_benchmark(tmp_path)
    code = (
        "import sys, hdpbench, hdpbench.cli\n"
        "from hdpbench.datasets import dataset_stats, enumerate_combinations, load_dataset, load_manifest_datasets\n"
        "enumerate_combinations(load_manifest_datasets(sys.argv[1]))\n"
        "dataset_stats(load_dataset(sys.argv[2]))\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    assert _last_line(code, tmp_path / "manifest.ini", tmp_path / "alpha.csv") == "[]"


def test_report_rebuilds_the_demo_reports_without_an_eigensolver(tmp_path):
    subprocess.run([sys.executable, str(MAKE_SYNTHETIC), str(tmp_path), "--seed", "7"],
                   check=True, capture_output=True, timeout=120)
    cfg = harness.load_config(tmp_path / "config.ini")
    result = harness.run_experiment(cfg)
    harness.export_results(result, cfg.output_dir)
    reports = harness.build_report(result)
    harness.write_report(reports, cfg.output_dir)
    results = Path(cfg.output_dir)
    exported = {name: (results / name).read_bytes() for name in reports}
    for name in reports:
        (results / name).unlink()
    code = (
        "import sys\n"
        "from hdpbench.cli import main\n"
        "status = main(['report', sys.argv[1]])\n"
        "print(status, sorted(m for m in sys.modules if m in ('scipy.special', 'scipy.linalg', 'scipy.sparse')))\n"
    )
    # scipy.special shows that the probe sees scipy; the report statistics need it
    assert _last_line(code, results) == "0 ['scipy.special']"
    assert {name: (results / name).read_bytes() for name in reports} == exported
