"""Per-layer metrics computed from a traced run.

Time metrics are the summed duration of a traced function's calls, except
``harness.run_experiment_self_s``, which is the time inside
``run_experiment`` that no traced child covers. A metric whose function no
longer exists reads 0 and is listed by ``absent``.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from perfbench.checks import MEASURES
from perfbench.trace import Tracer

# metric -> (unit, span name, what to read from the span summary)
SPAN_METRICS = {
    "datasets.load_s": ("s", "datasets.load", "total_s"),
    "hdp.select_s": ("s", "hdp.select", "total_s"),
    "hdp.gain_ratio_calls": ("count", "hdp.gain_ratio", "calls"),
    "hdp.ks_s": ("s", "hdp.ks", "total_s"),
    "hdp.ks_calls": ("count", "hdp.ks", "calls"),
    "hdp.match_s": ("s", "hdp.match", "total_s"),
    "hdp.assign_s": ("s", "hdp.assign", "total_s"),
    "hdp.hdp1_s": ("s", "hdp.hdp1", "total_s"),
    "hdp.features_s": ("s", "hdp.features", "total_s"),
    "hdp.feature_rows": ("count", "hdp.features", "calls"),
    "hdp.hdp5_s": ("s", "hdp.hdp5", "total_s"),
    "learner.fit_s": ("s", "learner.fit", "total_s"),
    "learner.fits": ("count", "learner.fit", "calls"),
    "learner.predict_s": ("s", "learner.predict", "total_s"),
    "udp.bestmetric_s": ("s", "udp.bestmetric", "total_s"),
    "udp.bestmetric_calls": ("count", "udp.bestmetric", "calls"),
    "udp.spectral_s": ("s", "udp.spectral", "total_s"),
    "udp.cla_s": ("s", "udp.cla", "total_s"),
    "udp.clami_s": ("s", "udp.clami", "total_s"),
    "udp.manual_s": ("s", "udp.manual", "total_s"),
    **{f"measures.{m}_s": ("s", f"measures.{m}", "total_s") for m in MEASURES},
    "stats.scott_knott_s": ("s", "stats.scott_knott", "total_s"),
    "stats.wilcoxon_s": ("s", "stats.wilcoxon", "total_s"),
    "stats.wilcoxon_calls": ("count", "stats.wilcoxon", "calls"),
    "stats.mcnemar_s": ("s", "stats.mcnemar", "total_s"),
    "stats.mcnemar_calls": ("count", "stats.mcnemar", "calls"),
    "harness.build_report_s": ("s", "harness.build_report", "total_s"),
    "harness.report.scottknott_s": ("s", "harness.report.scottknott", "total_s"),
    "harness.report.wtl_s": ("s", "harness.report.wtl", "total_s"),
    "harness.report.diversity_s": ("s", "harness.report.diversity", "total_s"),
    "harness.report.unidentified_s": ("s", "harness.report.unidentified", "total_s"),
    "harness.report.satisfactory_s": ("s", "harness.report.satisfactory", "total_s"),
    "harness.load_results_s": ("s", "harness.load_results", "total_s"),
    "harness.export_s": ("s", "harness.export", "total_s"),
    "harness.run_experiment_self_s": ("s", "harness.run_experiment", "self_s"),
}

# metric -> (unit, span whose function the fact is read from)
FACT_METRICS = {
    "datasets.modules_loaded": ("count", "datasets.load"),
    "hdp.hdp1_matched_ratio": ("ratio", "hdp.hdp1"),
    "learner.fit_rows": ("count", "learner.fit"),
    "learner.unconverged_fits": ("count", "learner.fit"),
    "learner.grad_norm_max": ("norm", "learner.fit"),
    "measures.calls": ("count", "measures.compute"),
    "measures.modules_scored": ("count", "measures.compute"),
}

OVERHEAD_METRIC = "trace.overhead_s"

# the measure spans all come from one function, compute_measure
_SPAN_SOURCE = {f"measures.{m}": "measures.compute" for m in MEASURES}


def metric_names() -> list[str]:
    return [*SPAN_METRICS, *FACT_METRICS, OVERHEAD_METRIC]


class Facts:
    """Call hooks that collect counts the span summary cannot give."""

    def __init__(self, tracer: Tracer):
        self.modules_loaded = 0
        self.hdp1_ok = 0
        self.modules_scored = 0
        self.fits: list[tuple[tuple, dict, object]] = []
        tracer.hooks["datasets.load"] = self._loaded
        tracer.hooks["hdp.hdp1"] = self._hdp1
        tracer.hooks["learner.fit"] = self._fit
        tracer.hooks["measures.compute"] = self._measure
        tracer.namers["measures.compute"] = _measure_span

    def _loaded(self, args, kwargs, result) -> None:
        self.modules_loaded += sum(d.n_modules for d in result)

    def _hdp1(self, args, kwargs, result) -> None:
        self.hdp1_ok += bool(result.ok)

    def _fit(self, args, kwargs, result) -> None:
        # convergence is recomputed after the run, outside every span
        self.fits.append((args, kwargs, result))

    def _measure(self, args, kwargs, result) -> None:
        preds = args[1] if len(args) > 1 else kwargs["preds"]
        self.modules_scored += len(preds)


def _measure_span(args, kwargs) -> str:
    measure = args[0] if args else kwargs["measure"]
    return f"measures.{measure}"


def convergence(fits, train_logistic, predict_proba, zscore_apply) -> tuple[int, float]:
    """(unconverged fits, largest final gradient norm), recomputed from outside.

    The final gradient of the L2-regularised mean log-loss is rebuilt from
    the returned model and compared with ``TrainConfig.tolerance``, the
    fitter's own stopping test. Single-class fits return a constant model
    and count as converged.
    """
    unconverged = 0
    worst = 0.0
    signature = inspect.signature(train_logistic)
    for args, kwargs, model in fits:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        X = np.asarray(bound.arguments["X"], dtype=float)
        y = np.asarray(bound.arguments["y"], dtype=bool)
        cfg = bound.arguments["cfg"]
        if y.all() or not y.any():
            continue
        Z = zscore_apply(model.standardization, X)
        resid = predict_proba(model, X) - y
        grad_w = Z.T @ resid / len(y) + cfg.l2_strength * model.weights
        grad_b = float(np.mean(resid))
        norm = math.sqrt(float(grad_w @ grad_w) + grad_b * grad_b)
        worst = max(worst, norm)
        unconverged += norm >= cfg.tolerance
    return unconverged, worst


def absent(tracer: Tracer) -> dict[str, str]:
    """Metric -> qualified name of the traced function that does not exist."""
    missing = {}
    for metric, (_, span, _) in SPAN_METRICS.items():
        source = _SPAN_SOURCE.get(span, span)
        if source in tracer.absent:
            missing[metric] = tracer.absent[source]
    for metric, (_, span) in FACT_METRICS.items():
        if span in tracer.absent:
            missing[metric] = tracer.absent[span]
    return missing


def metrics(tracer: Tracer, facts: Facts, overhead_s: float) -> dict[str, tuple[float, str]]:
    summary = tracer.summary()
    out = {metric: (summary.get(span, {}).get(field, 0), unit)
           for metric, (unit, span, field) in SPAN_METRICS.items()}

    hdp1_calls = summary.get("hdp.hdp1", {}).get("calls", 0)
    unconverged, grad_norm_max = 0, 0.0
    if facts.fits:
        from hdpbench import learner

        unconverged, grad_norm_max = convergence(
            facts.fits, tracer.originals["learner.fit"], learner.predict_proba, learner.zscore_apply
        )
    values = {
        "datasets.modules_loaded": facts.modules_loaded,
        "hdp.hdp1_matched_ratio": facts.hdp1_ok / hdp1_calls if hdp1_calls else 0.0,
        "learner.fit_rows": sum(len(args[0] if args else kwargs["X"]) for args, kwargs, _ in facts.fits),
        "learner.unconverged_fits": unconverged,
        "learner.grad_norm_max": grad_norm_max,
        "measures.calls": sum(summary.get(f"measures.{m}", {}).get("calls", 0) for m in MEASURES),
        "measures.modules_scored": facts.modules_scored,
    }
    out.update({metric: (values[metric], unit) for metric, (unit, _) in FACT_METRICS.items()})
    out[OVERHEAD_METRIC] = (overhead_s, "s")
    return out
