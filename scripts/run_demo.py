"""End-to-end demo: generate the synthetic benchmark, run every built-in
method under both scenarios, and print where the reports landed.

Usage: python scripts/run_demo.py [work_dir]
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from hdpbench import harness


def main() -> None:
    work = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_run")
    subprocess.run(
        [sys.executable, str(Path(__file__).parent / "make_synthetic.py"), str(work)],
        check=True,
    )
    cfg = harness.load_config(work / "config.ini")
    for scenario in ("scenario1", "scenario2"):
        scenario_cfg = replace(cfg, output_dir=str(work / scenario), scenario=scenario)
        result = harness.run_experiment(scenario_cfg)
        harness.export_results(result, scenario_cfg.output_dir)
        harness.write_report(harness.build_report(result), scenario_cfg.output_dir)
        failures = harness.method_failures(result)
        print(
            f"{scenario}: {len(result.plans)}/{result.n_plans_total} plans, "
            f"{len(result.plans) * len(result.values)} rows, failures={failures or 'none'}"
        )
        print(f"  reports in {scenario_cfg.output_dir}/")


if __name__ == "__main__":
    main()
