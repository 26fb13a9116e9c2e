"""What importing the package costs: the modules it loads."""

import os
import subprocess
import sys
from pathlib import Path

import hdpbench


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
