import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "export_hashes.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("export_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_export_hashes_repeat_and_rebuilt_reports_match(capsys):
    script = _load_script()
    first = script.export_hashes("demo", 7)
    assert script.export_hashes("demo", 7) == first
    reports = [name for name in first if name.startswith("report_")]
    assert len(first) == 15 and len(reports) == 5
    assert all(first[f"rebuilt/{name}"] == first[name] for name in reports)
    assert script.main(["--workload", "demo", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{digest}  {name}" for name, digest in first.items()]
