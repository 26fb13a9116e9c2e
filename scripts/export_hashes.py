"""Print the SHA-256 of every file one benchmark input exports, of the
reports rebuilt from them, and of the files exported again from them.

Usage: python scripts/export_hashes.py --workload W --seed S [--part P]

Writes the input of ``perfbench.workloads.generate`` for (W, S, P) into a
temporary directory, then runs ``run_experiment`` -> ``export_results`` ->
``build_report``, ``load_results`` -> ``build_report`` and ``load_results``
-> ``export_results`` on it with the default configuration. Prints one
``<sha256>  <file>`` line per file: config.ini, the three CSV files,
summary.txt, the five reports, the five rebuilt reports (``rebuilt/<name>``)
and the re-exported CSV files and summary.txt (``reexported/<name>``). Two
source trees give the same outputs on that input when their lines are the
same, and a loaded directory exports the same bytes when each
``reexported/`` line repeats its file's.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from hdpbench import harness  # noqa: E402
from perfbench import workloads  # noqa: E402

MANIFEST = "manifest.ini"
EXPORTED = ("config.ini", "results.csv", "predictions.csv", "targets.csv", "summary.txt")
# config.ini names the manifest relative to its own directory, so a copy
# exported elsewhere names it differently
REEXPORTED = EXPORTED[1:]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def export_hashes(workload: str, seed: int, part: int = 0) -> dict[str, str]:
    """File name -> SHA-256 of the exported files, the reports, the reports
    rebuilt from the exported files (``rebuilt/<name>``) and the files
    exported again from them (``reexported/<name>``)."""
    with tempfile.TemporaryDirectory() as work:
        inputs = workloads.generate(workload, Path(work), seed, ROOT, part).parent
        # a relative manifest path keeps config.ini free of the directory's name
        cwd = os.getcwd()
        os.chdir(inputs)
        try:
            cfg = harness.ExperimentConfig(manifest=MANIFEST, output_dir="out", seed=seed)
            result = harness.run_experiment(cfg)
            harness.export_results(result, cfg.output_dir)
            report = harness.build_report(result)
            loaded = harness.load_results(cfg.output_dir)
            rebuilt = harness.build_report(loaded)
            harness.export_results(loaded, "reexported")
            hashes = {name: _sha256((Path(cfg.output_dir) / name).read_bytes()) for name in EXPORTED}
            reexported = {name: _sha256((Path("reexported") / name).read_bytes()) for name in REEXPORTED}
        finally:
            os.chdir(cwd)
    hashes.update({name: _sha256(text.encode()) for name, text in sorted(report.items())})
    hashes.update({f"rebuilt/{name}": _sha256(text.encode()) for name, text in sorted(rebuilt.items())})
    hashes.update({f"reexported/{name}": digest for name, digest in reexported.items()})
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    args = parser.parse_args(argv)
    for name, digest in export_hashes(args.workload, args.seed, args.part).items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
