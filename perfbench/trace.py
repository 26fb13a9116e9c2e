"""Outside-in tracing of the hdpbench package's public functions.

``Tracer.install`` replaces each traced function with a timing wrapper in
every loaded ``hdpbench`` module that holds it (a name bound by ``from ...
import`` lives in several modules), and ``Tracer.uninstall`` puts the
originals back. Every call becomes one span: name, start, end, parent span
and run id, kept in flat arrays so that hundreds of thousands of calls stay
cheap and every count stays exact. Spans are written out after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

PACKAGE = "hdpbench"

# span name -> (module, function); the span name is what the metrics use
TRACED = {
    "datasets.load": ("datasets", "load_manifest_datasets"),
    "hdp.select": ("hdp", "select_top_metrics"),
    "hdp.gain_ratio": ("hdp", "gain_ratio"),
    "hdp.ks": ("hdp", "ks_pvalue"),
    "hdp.match": ("hdp", "match_metrics"),
    "hdp.assign": ("hdp", "match_from_weights"),
    "hdp.hdp1": ("hdp", "hdp1_predict"),
    "hdp.features": ("hdp", "distribution_vector"),
    "hdp.hdp5": ("hdp", "hdp5_predict"),
    "learner.fit": ("learner", "train_logistic"),
    "learner.predict": ("learner", "predict_proba"),
    "udp.bestmetric": ("udp", "best_metric_oracle"),
    "udp.spectral": ("udp", "spectral_predict"),
    "udp.cla": ("udp", "cla_predict"),
    "udp.clami": ("udp", "clami_predict"),
    "udp.manual": ("udp", "manual_rank"),
    "measures.compute": ("measures", "compute_measure"),
    "stats.scott_knott": ("stats", "scott_knott"),
    "stats.wilcoxon": ("stats", "wilcoxon_signed_rank"),
    "stats.mcnemar": ("stats", "mcnemar"),
    "harness.run_experiment": ("harness", "run_experiment"),
    "harness.export": ("harness", "export_results"),
    "harness.load_results": ("harness", "load_results"),
    "harness.build_report": ("harness", "build_report"),
    "harness.report.scottknott": ("harness", "_report_scott_knott"),
    "harness.report.wtl": ("harness", "_report_wtl"),
    "harness.report.diversity": ("harness", "_report_diversity"),
    "harness.report.unidentified": ("harness", "_report_unidentified"),
    "harness.report.satisfactory": ("harness", "_report_satisfactory"),
}


def self_times(parents: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    Children of one span never overlap (calls are sequential), so the sum
    of their durations is the part of the parent's interval they cover.
    """
    durations = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=durations[has_parent],
                          minlength=len(durations))
    return durations - covered


class Tracer:
    """Span recorder plus the patching that feeds it.

    Call hooks see (args, kwargs, result) of one call and may keep
    per-call facts; they run outside the timed interval. A namer maps a
    call's (args, kwargs) to its span name, for a function whose calls
    belong to different layers.
    """

    def __init__(self, run_id: str, traced: dict[str, tuple[str, str]] = TRACED):
        self.run_id = run_id
        self.traced = dict(traced)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.hooks: dict[str, Callable] = {}
        self.namers: dict[str, Callable] = {}
        self.originals: dict[str, Callable] = {}
        self.absent: dict[str, str] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end
        hook = self.hooks.get(name)
        namer = self.namers.get(name)
        span_name_id = self._name_id

        def traced(*args, **kwargs):
            span = len(start)
            name_idx.append(name_id if namer is None else span_name_id(namer(args, kwargs)))
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(math.nan)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every traced function that exists; record the rest as absent."""
        for name, (module_name, attr) in self.traced.items():
            qualified = f"{PACKAGE}.{module_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent[name] = qualified
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent[name] = qualified
                continue
            self.originals[name] = original
            wrapper = self.wrap(name, original)
            for holder in _package_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) and self seconds."""
        idx = np.array(self.name_idx, dtype=np.int64)
        starts = np.array(self.start, dtype=float)
        ends = np.array(self.end, dtype=float)
        selfs = self_times(np.array(self.parent, dtype=np.int64), starts, ends)
        durations = ends - starts
        n = len(self.names)
        counts = np.bincount(idx, minlength=n)
        totals = np.bincount(idx, weights=durations, minlength=n)
        self_totals = np.bincount(idx, weights=selfs, minlength=n)
        return {
            name: {"calls": int(counts[i]), "total_s": float(totals[i]),
                   "self_s": float(self_totals[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent, run id) as JSON."""
        spans = [
            [self.names[k], s, e, p]
            for k, s, e, p in zip(self.name_idx, self.start, self.end, self.parent)
        ]
        doc = {"run_id": self.run_id, "fields": ["name", "start", "end", "parent"],
               "absent": self.absent, "spans": spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def _package_modules() -> list[object]:
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
