"""hdp5's features and the demo's exports do not depend on numpy's CPU dispatch.

numpy picks a SIMD kernel for many ufuncs when it is imported, by the CPU's
features, and some of those kernels round differently: its AVX-512 float
power gives other last bits than its other targets. This test repeats the
work in a fresh interpreter with this numpy build's AVX-512-level dispatch
targets disabled through ``NPY_DISABLE_CPU_FEATURES``, as on a CPU without
AVX-512, and compares the bytes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdpbench
from hdpbench.hdp import distribution_vector

from test_export_hashes import DEMO_7_EXPORTS, DEMO_7_REPORTS, SCRIPT

TESTS = Path(__file__).resolve().parent


def _avx512_targets() -> list[str]:
    """This build's AVX-512-level dispatch targets that this CPU has."""
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    dispatch = getattr(umath, "__cpu_dispatch__", [])
    features = getattr(umath, "__cpu_features__", {})
    return [t for t in dispatch if (t == "X86_V4" or t.startswith("AVX512")) and features.get(t)]


def feature_digest() -> str:
    """SHA-256 of the stacked feature rows of seeded lognormal and
    count-valued rows of every length from 2 to 80."""
    rng = np.random.default_rng(35)
    rows = []
    for n in range(2, 81):
        for _ in range(4):
            rows.append(rng.lognormal(1.0, 1.0, n))
            rows.append(np.floor(rng.lognormal(1.0, 1.0, n)))
    return hashlib.sha256(np.vstack([distribution_vector(r) for r in rows]).tobytes()).hexdigest()


def _without(targets: list[str], *args: str) -> str:
    """Standard output of a fresh interpreter, run with ``targets`` disabled."""
    src = str(Path(hdpbench.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, str(TESTS), os.environ.get("PYTHONPATH")])),
    }
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout


def test_features_and_demo_exports_do_not_depend_on_avx512_dispatch():
    targets = _avx512_targets()
    if not targets:
        pytest.skip("this CPU or numpy build has no AVX-512-level dispatch target")
    code = (
        "from numpy._core import _multiarray_umath as umath\n"
        "from test_cpu_dispatch import feature_digest\n"
        f"print(sorted(t for t in {targets!r} if umath.__cpu_features__[t]))\n"
        "print(feature_digest())\n"
    )
    enabled, digest = _without(targets, "-c", code).splitlines()
    assert enabled == "[]"
    assert digest == feature_digest()
    # every exported file and report of the demo keeps its pinned digest
    lines = _without(targets, str(SCRIPT), "--workload", "demo", "--seed", "7").splitlines()
    hashes = {name: sha for sha, name in (line.split("  ", 1) for line in lines)}
    pinned = {**DEMO_7_EXPORTS, **DEMO_7_REPORTS}
    assert {name: hashes[name] for name in pinned} == pinned
