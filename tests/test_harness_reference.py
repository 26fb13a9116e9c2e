"""Byte-equal report sections against the earlier report code.

``reference_harness`` holds the Scott-Knott, win/tie/loss, diversity and
satisfactory sections as they were before the harness built them from one
value table. Hypothesis draws the shape of an ``ExperimentResult`` (targets,
groups, sources per target, methods, measures, scenario, how often values
are absent and plans fail) and a seed that fills in tie-heavy values and
labels; every section must be the same text.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_harness
from hdpbench import harness, measures
from hdpbench.harness import ExperimentConfig, ExperimentResult, ResultRow

# few distinct values give tied samples, tied differences and tied means
TIED_VALUES = np.array([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 1.0])
TRUTH_KINDS = ("mixed", "all_defective", "defect_free")


def build_result(seed, sources, truth, groups, methods, measure_ids, scenario, absent, failed):
    """An ExperimentResult with ``len(sources)`` targets: target i has
    ``sources[i]`` plans, truth of kind ``truth[i]`` and group ``groups[i]``.
    A method fails on a plan with probability ``failed`` (failure rows, no
    prediction); otherwise each value is absent with probability ``absent``."""
    rng = np.random.default_rng(seed)
    cfg = ExperimentConfig(manifest="manifest.ini", output_dir="out", methods=methods,
                           measures=measure_ids, scenario=scenario)
    target_truth, target_groups, plans = {}, {}, []
    for i, (n_sources, kind) in enumerate(zip(sources, truth)):
        target = f"t{i}"
        n_modules = int(rng.integers(1, 25))
        if kind == "mixed":
            target_truth[target] = rng.random(n_modules) < 0.5
        else:
            target_truth[target] = np.full(n_modules, kind == "all_defective")
        target_groups[target] = f"g{groups[i]}"
        plans += [(f"s{j}", target) for j in range(n_sources)]
    # each method's tied values lie next to its own level, so some pairs of
    # methods differ enough for a win or a loss
    level = {m: int(rng.integers(len(TIED_VALUES))) for m in methods}
    rows, predictions = [], {}
    for k in rng.permutation(len(plans)):  # row order must not matter
        source, target = plans[k]
        n_modules = len(target_truth[target])
        for method in methods:
            if rng.random() < failed:
                rows += [ResultRow(method, source, target, m, None, "error: boom") for m in measure_ids]
                continue
            for m in measure_ids:
                if rng.random() < absent:
                    rows.append(ResultRow(method, source, target, m, None, "NoDefects"))
                else:
                    near = np.clip(level[method] + rng.integers(-1, 2), 0, len(TIED_VALUES) - 1)
                    value = TIED_VALUES[near] if rng.random() < 0.7 else rng.random()
                    rows.append(ResultRow(method, source, target, m, float(value), None))
            for variant in harness._variants(method):
                predictions[(variant, source, target)] = rng.random(n_modules) < rng.choice([0.0, 0.3, 0.8, 1.0])
    return ExperimentResult(cfg, rows, target_groups, target_truth, predictions, len(plans))


@st.composite
def specs(draw):
    n_targets = draw(st.integers(1, 4))
    n_groups = draw(st.integers(1, 3))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        # up to 15 sources reach both the exact and the normal Wilcoxon path
        sources=draw(st.lists(st.integers(1, 15), min_size=n_targets, max_size=n_targets)),
        truth=draw(st.lists(st.sampled_from(TRUTH_KINDS), min_size=n_targets, max_size=n_targets)),
        groups=draw(st.lists(st.integers(0, n_groups - 1), min_size=n_targets, max_size=n_targets)),
        methods=tuple(draw(st.lists(st.sampled_from(list(harness.METHODS)), min_size=2, unique=True))),
        # precision and recall, which the satisfactory section needs, half the time
        measure_ids=tuple(dict.fromkeys(
            draw(st.lists(st.sampled_from(measures.MEASURE_IDS), min_size=1, max_size=4, unique=True))
            + (["precision", "recall"] if draw(st.booleans()) else [])
        )),
        scenario=draw(st.sampled_from(list(harness.SCENARIOS))),
        absent=draw(st.sampled_from([0.0, 0.1, 0.5])),
        failed=draw(st.sampled_from([0.0, 0.1, 0.4])),
    )


ALL_METHODS = tuple(harness.METHODS)


@settings(max_examples=80)
@given(specs())
# every feature at once: a single-source target, an all-defective and a
# defect-free target, 14 sources (the normal Wilcoxon path), absent values,
# failed plans and scenario2
@example(dict(seed=1, sources=[1, 14, 6, 3], truth=["mixed", "all_defective", "defect_free", "mixed"],
              groups=[0, 1, 0, 2], methods=ALL_METHODS, measure_ids=measures.MEASURE_IDS,
              scenario="scenario2", absent=0.1, failed=0.1))
# nothing absent and nothing failed: every pair is comparable on every plan
@example(dict(seed=2, sources=[12, 13], truth=["mixed", "mixed"], groups=[0, 0],
              methods=ALL_METHODS, measure_ids=("precision", "recall", "f1", "ifa"),
              scenario="scenario1", absent=0.0, failed=0.0))
# only unsupervised methods: no win/tie/loss matrix, no hdp diversity section
@example(dict(seed=3, sources=[2, 5], truth=["mixed", "defect_free"], groups=[0, 1],
              methods=("cla", "manual"), measure_ids=("f1",), scenario="scenario1",
              absent=0.5, failed=0.4))
def test_report_sections_equal_the_reference(spec):
    result = build_result(**spec)
    report = harness.build_report(result)
    for name, text in reference_harness.report_sections(result).items():
        assert report[name] == text, name
