"""hdpbench benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload plans226 --seed 3 --seconds 20 --trace 0

The benchmark generates the workload's inputs from ``--seed`` under
``.bench_work/`` in the checkout, runs the package from ``src/`` and checks
its outputs. With ``--trace 0`` it reports the end-to-end metrics:

- ``setup_s``: ``import hdpbench`` plus ``load_manifest_datasets`` in a fresh
  interpreter, median of several fresh processes;
- ``run_s``: the ``hdpbench run`` path (``run_experiment``,
  ``export_results``, ``build_report``, ``write_report``) after an untimed
  warm-up pass on a small input. Passes cycle through the workload's parts
  (``workloads.PARTS``, inputs drawn from the seed) until each part has run
  and ``--seconds`` have gone by; the metric is the mean over parts of each
  part's median;
- ``report_s``: the ``hdpbench report`` path on the exported directory
  (``load_results``, ``build_report``, ``write_report``), mean over the pass
  after each run pass and blocks of passes that alternate with the set-up
  probes;
- ``peak_rss_mb``: peak resident set of this process;
- ``ok_ratio``: (method, plan) cells whose failure is not an ``error:``,
  over the cells attempted.

The three times are taken under a ``perfbench.speed.SpeedProbe`` and given at
its nominal machine speed, because the host's own speed swings more than any
bound a regression check could use; a line before the result gives the same
figures in wall seconds.

With ``--trace 1`` it makes an untraced first pass, a traced pass and an
untraced pass, all on part 0, and reports the per-layer metrics of ``perfbench/layers.py``
in wall seconds; ``trace.overhead_s`` compares the last two. The last line
of standard output is the JSON result; the lines before it give the SHA-256
of the exported files and any traced function that no longer exists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, layers, workloads  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

SETUP_PROBES = 3
REPORT_BLOCK_S = 2.0  # report passes after each set-up probe
MANIFEST = "manifest.ini"

SETUP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from perfbench.speed import SpeedProbe

def setup():
    sys.path.insert(0, sys.argv[2])
    import hdpbench
    from hdpbench.datasets import load_manifest_datasets
    load_manifest_datasets(sys.argv[3])

with SpeedProbe() as probe:
    nominal, wall, _ = probe.timed(setup)
print(repr(nominal), repr(wall))
"""


def probe_setup(manifest: Path) -> tuple[float, float]:
    """Set-up time of one fresh interpreter, at nominal speed and in wall seconds."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(ROOT), str(SRC), str(manifest)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    nominal, wall = done.stdout.strip().splitlines()[-1].split()
    return float(nominal), float(wall)


def run_path(harness, out_dir: Path, seed: int) -> dict[str, str]:
    """The ``hdpbench run`` path; returns the in-memory report."""
    cfg = harness.ExperimentConfig(manifest=MANIFEST, output_dir=str(out_dir), seed=seed)
    result = harness.run_experiment(cfg)
    harness.export_results(result, out_dir)
    report = harness.build_report(result)
    harness.write_report(report, out_dir)
    return report


def report_path(harness, out_dir: Path) -> dict[str, str]:
    """The ``hdpbench report`` path; returns the regenerated report."""
    report = harness.build_report(harness.load_results(out_dir))
    harness.write_report(report, out_dir)
    return report


class Outcome:
    """Correctness and cell counts accumulated over every pass of a run."""

    def __init__(self, n_plans: int):
        self.n_plans = n_plans
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, list[str]] = {}  # per part

    def check(
        self, out_dir: Path, report: dict[str, str], regenerated: dict[str, str], part: int = 0
    ) -> None:
        problems, cells, errors = checks.check_results(out_dir, self.n_plans)
        self.problems += problems
        self.problems += checks.check_reports(out_dir, report, regenerated)
        self.attempted += cells
        self.failed += errors
        digests = self.digests.setdefault(part, [])
        digests.append(checks.digest(out_dir))
        if len(set(digests)) > 1:
            self.problems.append(f"exported files of part {part} differ between passes of one run")

    @property
    def correct(self) -> bool:
        return not self.problems


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def report_block(harness, out_dir: Path) -> int:
    """``hdpbench report`` passes for ``REPORT_BLOCK_S``; returns how many ran."""
    passes = 0
    began = time.perf_counter()
    while time.perf_counter() - began < REPORT_BLOCK_S:
        report_path(harness, out_dir)
        passes += 1
    return passes


def warm_up(harness, seed: int) -> None:
    """One untimed pass of both paths on a small input, so that imports and
    first calls are paid before the timed passes."""
    here = Path.cwd()
    os.chdir(workloads.warmup(Path("warmup"), seed).parent)
    try:
        run_path(harness, Path("out"), seed)
        report_path(harness, Path("out"))
    finally:
        os.chdir(here)


def end_to_end(harness, parts: list[Path], seed: int, seconds: float, outcome: Outcome) -> dict:
    """Passes cycle through the parts until each has run and ``--seconds`` have gone by."""
    out_dir = Path("out")
    runs: dict[int, list[tuple[float, float]]] = {}  # part -> (nominal, wall) per pass
    reports: list[tuple[float, float]] = []  # (nominal, wall) per pass, a block's mean
    setups: list[tuple[float, float]] = []
    warm_up(harness, seed)
    began = time.perf_counter()
    done = 0
    while done < len(parts) or time.perf_counter() - began < seconds:
        part = done % len(parts)
        os.chdir(parts[part])  # relative paths keep the exported files location-free
        shutil.rmtree(out_dir, ignore_errors=True)
        with SpeedProbe() as probe:
            nominal, wall, report = probe.timed(run_path, harness, out_dir, seed)
            runs.setdefault(part, []).append((nominal, wall))
            nominal, wall, regenerated = probe.timed(report_path, harness, out_dir)
            reports.append((nominal, wall))
        outcome.check(out_dir, report, regenerated, part)
        done += 1
    # the machine's speed shifts every few seconds, so set-up probes and
    # report passes alternate over one window instead of running in bursts
    for _ in range(SETUP_PROBES):
        setups.append(probe_setup(parts[0].resolve() / MANIFEST))
        with SpeedProbe() as probe:
            nominal, wall, passes = probe.timed(report_block, harness, out_dir)
        reports += [(nominal / passes, wall / passes)] * passes
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok_ratio = (outcome.attempted - outcome.failed) / outcome.attempted

    def run_time(column: int) -> float:  # the mean over parts of each part's median
        return statistics.fmean(
            statistics.median(pair[column] for pair in pairs) for pairs in runs.values())

    print(f"wall seconds: setup_s={statistics.median(w for _, w in setups):.4f} "
          f"run_s={run_time(1):.4f} report_s={statistics.fmean(w for _, w in reports):.4f}")
    return {
        "setup_s": (statistics.median(n for n, _ in setups), "s"),
        "run_s": (run_time(0), "s"),
        "report_s": (statistics.fmean(n for n, _ in reports), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "ok_ratio": (ok_ratio, "ratio"),
    }


def per_layer(harness, workload: str, seed: int, outcome: Outcome) -> dict:
    def untraced(out_dir: Path) -> float:
        seconds, report = timed(run_path, harness, out_dir, seed)
        outcome.check(out_dir, report, report_path(harness, out_dir))
        return seconds

    # the first pass in a process pays one-time costs, so the traced pass and
    # the untraced pass it is compared with both come after it
    untraced(Path("first"))
    tracer = Tracer(run_id=f"{workload}-{seed}-{os.getpid()}")
    facts = layers.Facts(tracer)
    with tracer:
        if "datasets.load" in tracer.originals:  # the set-up load, through the patched name
            import hdpbench.datasets
            hdpbench.datasets.load_manifest_datasets(MANIFEST)
        traced_s, report = timed(run_path, harness, Path("traced"), seed)
        regenerated = report_path(harness, Path("traced"))
    outcome.check(Path("traced"), report, regenerated)
    untraced_s = untraced(Path("untraced"))
    tracer.write(WORK / f"trace-{workload}-{seed}.json")
    metrics = layers.metrics(tracer, facts, traced_s - untraced_s)
    for metric, where in sorted(layers.absent(tracer).items()):
        print(f"absent: {metric} ({where})")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hdpbench benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    if not (SRC / "hdpbench" / "__init__.py").is_file():
        print(f"error: no hdpbench package under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # a traced run compares passes over one input, so it uses part 0 only
        n_parts = 1 if args.trace else workloads.PARTS[args.workload]
        manifests = [
            workloads.generate(args.workload, work / f"part{part}", seed, ROOT, part)
            for part in range(n_parts)
        ]
        outcome = Outcome(checks.expected_plans(manifests[0]))
        os.chdir(work)
        sys.path.insert(0, str(SRC))
        from hdpbench import harness

        if args.trace:
            os.chdir(manifests[0].parent)  # relative paths keep the exported files location-free
            metrics = per_layer(harness, args.workload, seed, outcome)
        else:
            parts = [manifest.parent for manifest in manifests]
            metrics = end_to_end(harness, parts, seed, args.seconds, outcome)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}")
    for part, digests in sorted(outcome.digests.items()):
        print(f"sha256 {args.workload} seed={seed} part={part} {digests[0]}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
