import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "settable_values.py"

# every parameter default, config field default and command-line option in
# the package; a new setting must be added here on purpose
SETTABLE = {
    "main.argv", "load_dataset.group_name", "load_dataset.loc_metric", "ExperimentConfig.methods", "ExperimentConfig.measures", "ExperimentConfig.scenario",
    "ExperimentConfig.seed", "TrainConfig.l2_strength",
    "TrainConfig.max_iters", "TrainConfig.tolerance", "train_logistic.cfg",
}


def _load_script():
    spec = importlib.util.spec_from_file_location("settable_values", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_package_has_11_settable_values(capsys):
    script = _load_script()
    values = script.settable_values()
    assert len(values) == len(SETTABLE) == 11
    assert {f"{owner}.{name}" for _, _, owner, name, _ in values} == SETTABLE
    assert script.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total: 11"
