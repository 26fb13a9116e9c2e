"""Command-line entry points: run, report, stats, combos."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .datasets import dataset_stats, enumerate_combinations, load_dataset, load_manifest_datasets


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    result = harness.run_experiment(cfg)
    paths = harness.export_results(result, cfg.output_dir)
    paths += harness.write_report(harness.build_report(result), cfg.output_dir)
    for path in paths:
        print(path)
    failures = harness.method_failures(result)
    if failures:
        print("plans with recorded failures:", file=sys.stderr)
        for method, count in failures.items():
            print(f"  {method}: {count}", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args) -> int:
    result = harness.load_results(args.results_dir)
    for path in harness.write_report(harness.build_report(result), args.results_dir):
        print(path)
    return 0


def _cmd_stats(args) -> int:
    dataset = load_dataset(args.dataset)
    n, defective, pct = dataset_stats(dataset)
    print(f"{dataset.name}: {n} modules, {defective} defective ({pct:.2f}%)")
    return 0


def _cmd_combos(args) -> int:
    datasets = load_manifest_datasets(args.manifest)
    plans = enumerate_combinations(datasets)
    for source, target in plans:
        print(f"{source} -> {target}")
    print(f"total: {len(plans)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdpbench",
        description="Benchmark heterogeneous and unsupervised cross-project defect predictors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config")
    run.set_defaults(fn=_cmd_run)

    report = sub.add_parser("report", help="rebuild report tables from a results directory")
    report.add_argument("results_dir")
    report.set_defaults(fn=_cmd_report)

    stats = sub.add_parser("stats", help="print module/defect counts for one dataset file")
    stats.add_argument("dataset", help="a .arff file is read as ARFF, any other as CSV")
    stats.set_defaults(fn=_cmd_stats)

    combos = sub.add_parser("combos", help="list heterogeneous combinations for a manifest")
    combos.add_argument("manifest")
    combos.set_defaults(fn=_cmd_combos)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
