import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "export_hashes.py"

# the exported files and the five reports of demo seed 7 with the default
# configuration; a change that alters any of them must name the change and
# update these
DEMO_7_EXPORTS = {
    "config.ini": "104b6e77686515cceaf441dcd57958be8f0945302cfc0deea1ad8fe956262511",
    "results.csv": "8e0d6eca04c6a9954155e1ac28b5058b0e4dcab1398206daf27c70a5ce59bec9",
    "predictions.csv": "f6fc66ae64e25d73f8c0f074bbfc950d6551ae5f88c40ffce6eaae5ff2be98d4",
    "targets.csv": "d0803104a1e97d27a95975d3b1f8ffaab3883024dcfa63cdfcbc6a8f88fee269",
    "summary.txt": "6f132500f779dfb34c2d812136703b93d6a5a515a88f580e23e2ea685f5f07d4",
}
DEMO_7_REPORTS = {
    "report_diversity.txt": "4d639451f1e30dedfc8acaaccac86ccf85b2e74256023021badf20ebf1abf388",
    "report_satisfactory.txt": "719a13f2d33cec2b9c96b83e3372a04e284d5a1f75997808804a5c7f8f61b141",
    "report_scottknott.txt": "930dbbe3c3cdd73864259ae7beb493c9c5192ca0fa466fc339c91062f46ef1f2",
    "report_unidentified.txt": "d8122ac44e9f757fa421e3dd153480c682b3d14f6fe46e83aeea29a31f90bd8d",
    "report_wtl.txt": "3b277e446b4519c7db69cbb96f149970c233e785a56f029de1b03fae867d0ec8",
}

# results.csv and the five reports of plans226 seed 3 part 0: with 14 or 15
# plans per target, many Wilcoxon tests of its win/tie/loss report take the
# normal approximation, which demo seed 7's three plans per target never reach
PLANS226_3_0 = {
    "results.csv": "b14889eb93ce7617f46627dcf50b4b9dfc9f3abe768bfc07c29fb1be6ad797e6",
    "report_diversity.txt": "8e26a3ca92b99c100a0abcb58e018ebef5f248fd080c0bebff9602a5b63d9d07",
    "report_satisfactory.txt": "84237ba0c7a84b154a696fc282213e3bb711f9786547f53d129a06dc61f21295",
    "report_scottknott.txt": "991ac2aa9cb965715ba9739279421c04e7fb65d96a2e7c7ce8dd96d55a780323",
    "report_unidentified.txt": "bb842045251ee6488dc4ae0d1cdc8fc043dbdec9f437a92dbd16db71fb4f3316",
    "report_wtl.txt": "4e245485a4427b8b122f020edb7f9b2f508392cbbe10a65fc129ab6bba62ac69",
}

# results.csv and the five reports of bigtargets seed 5: spectral runs at
# ML's 1,862 modules, and hdp1 matches projects of uneven size
BIGTARGETS_5 = {
    "results.csv": "54acd9bca0b31b1617459763f98b0e6fc95de79e15d2f0293513c74cc4a4c2d7",
    "report_diversity.txt": "a59560ef0f202e69dd2574352a37debf449fb1c32d3f908d8ef5c9838de75684",
    "report_satisfactory.txt": "003e61d17c8a86fada496939d194bce80b9aefda6ceef86bc94dc175b279f8de",
    "report_scottknott.txt": "7c412df68c0cd8928d1697c183978760af505ad278fd60edda255b93a272af79",
    "report_unidentified.txt": "3639c46c7f73aed2005faf7c07a9ec815727979e563aa94796285d95e7cdb756",
    "report_wtl.txt": "3b277e446b4519c7db69cbb96f149970c233e785a56f029de1b03fae867d0ec8",
}


def _load_script():
    spec = importlib.util.spec_from_file_location("export_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_export_hashes_repeat_and_rebuilt_reports_match(capsys):
    script = _load_script()
    first = script.export_hashes("demo", 7)
    assert script.export_hashes("demo", 7) == first
    assert len(first) == 19
    assert {name: first[name] for name in DEMO_7_EXPORTS} == DEMO_7_EXPORTS
    assert {name: first[name] for name in DEMO_7_REPORTS} == DEMO_7_REPORTS
    assert all(first[f"rebuilt/{name}"] == digest for name, digest in DEMO_7_REPORTS.items())
    # a loaded directory exports its files again byte for byte: results.csv
    # keeps its row order through the table
    reexported = ("results.csv", "predictions.csv", "targets.csv", "summary.txt")
    assert all(first[f"reexported/{name}"] == DEMO_7_EXPORTS[name] for name in reexported)
    assert script.main(["--workload", "demo", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{digest}  {name}" for name, digest in first.items()]


def _assert_pinned(hashes: dict[str, str], pinned: dict[str, str]) -> None:
    """The pinned digests, each report's rebuilt copy included."""
    assert {name: hashes[name] for name in pinned} == pinned
    reports = [name for name in pinned if name.startswith("report_")]
    assert all(hashes[f"rebuilt/{name}"] == pinned[name] for name in reports)


def test_plans226_reports_keep_their_digests():
    _assert_pinned(_load_script().export_hashes("plans226", 3, 0), PLANS226_3_0)


def test_bigtargets_reports_keep_their_digests():
    _assert_pinned(_load_script().export_hashes("bigtargets", 5), BIGTARGETS_5)


# results.csv, summary.txt and the five reports of plans226 seed 3 part 0
# under scenario2, which keeps only the plans hdp1 predicts
PLANS226_3_0_SCENARIO2 = {
    "results.csv": "bfd44a8d633feafe92264085b49a87d160fe27d8bd3b3ebf036300764ee2193f",
    "summary.txt": "8b5ac779f03c3de6ae68c4d5b9429b02811c4f01d06f698f63eb7fe3f292425d",
    "report_diversity.txt": "f95645afbdb39f2c0abb8fbdd93728107e9d9dc35cead3f710ceb403f822ac04",
    "report_satisfactory.txt": "a6eedbe34c33b76419864fe9cf218363368cdba13cef7289c4050bc67cd72762",
    "report_scottknott.txt": "f8162f7b5219f5f4f374a9098611488587782e389018fed62341061b02e87398",
    "report_unidentified.txt": "bb842045251ee6488dc4ae0d1cdc8fc043dbdec9f437a92dbd16db71fb4f3316",
    "report_wtl.txt": "5b63df6fc4595a13df95740dddcd6fe0c3d17a6b4e7f2405c9d94784b61c29c1",
}


def test_plans226_scenario2_keeps_its_plans_and_digests(tmp_path):
    script = _load_script()
    harness = script.harness
    manifest = script.workloads.generate("plans226", tmp_path, 3, script.ROOT, 0)
    cfg = harness.ExperimentConfig(str(manifest), str(tmp_path / "out"), scenario="scenario2", seed=3)
    result = harness.run_experiment(cfg)
    assert (len(result.plans), result.n_plans_total) == (58, 226)
    harness.export_results(result, cfg.output_dir)
    hashes = {name: script._sha256((tmp_path / "out" / name).read_bytes())
              for name in ("results.csv", "summary.txt")}
    for prefix, report in (("", harness.build_report(result)),
                           ("rebuilt/", harness.build_report(harness.load_results(cfg.output_dir)))):
        hashes.update({prefix + name: script._sha256(text.encode()) for name, text in report.items()})
    _assert_pinned(hashes, PLANS226_3_0_SCENARIO2)
