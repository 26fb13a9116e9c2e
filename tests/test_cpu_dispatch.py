"""hdp5's features and the pinned exports do not depend on numpy's CPU dispatch.

numpy picks a SIMD kernel for many ufuncs when it is imported, by the CPU's
features, and some of those kernels round differently: its AVX-512 float
power, exp and log give other last bits than its other targets. These tests
repeat the work in a fresh interpreter with this numpy build's AVX-512-level
dispatch targets disabled through ``NPY_DISABLE_CPU_FEATURES``, as on a CPU
without AVX-512, and compare the bytes.
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

from test_export_hashes import (
    BIGTARGETS_5, DEMO_7_EXPORTS, DEMO_7_REPORTS, PLANS226_3_0, SCRIPT, _assert_pinned,
)

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


def _required_targets() -> list[str]:
    targets = _avx512_targets()
    if not targets:
        pytest.skip("this CPU or numpy build has no AVX-512-level dispatch target")
    return targets


def _hashes(targets: list[str], *args: str) -> dict[str, str]:
    """File name -> SHA-256, as ``scripts/export_hashes.py`` prints them with ``targets`` disabled."""
    lines = _without(targets, str(SCRIPT), *args).splitlines()
    return {name: sha for sha, name in (line.split("  ", 1) for line in lines)}


def test_features_and_demo_exports_do_not_depend_on_avx512_dispatch():
    targets = _required_targets()
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
    hashes = _hashes(targets, "--workload", "demo", "--seed", "7")
    pinned = {**DEMO_7_EXPORTS, **DEMO_7_REPORTS}
    assert {name: hashes[name] for name in pinned} == pinned


# hdp1's gain ratios take np.log2 and the logistic fit np.exp, whose last
# bits depend on the dispatch target, on inputs larger than the demo's
@pytest.mark.parametrize("args, pinned", [
    (("--workload", "plans226", "--seed", "3", "--part", "0"), PLANS226_3_0),
    (("--workload", "bigtargets", "--seed", "5"), BIGTARGETS_5),
], ids=["plans226-3-0", "bigtargets-5"])
def test_benchmark_exports_do_not_depend_on_avx512_dispatch(args, pinned):
    _assert_pinned(_hashes(_required_targets(), *args), pinned)
