"""Per-layer spans for the traced benchmark run.

A layer is a module of `confee`. Its spans are recorded from outside the
package, by wrapping the public functions and methods listed in `SPANS`;
the package source is not edited. Every module namespace that holds a
wrapped function gets the wrapper, so calls through `from .x import f`
names are traced too.

A span's self time is its duration minus the time of the spans nested in
it, so each traced second lands in exactly one `*_s` metric, or in
`trace.unattributed_ratio` when no span covers it. Counts are exact; the
time spent computing them is charged to no layer.
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref
from collections import defaultdict

import numpy as np

import confee
from confee import cli, conformity, core, data, normalize, predictors, validity
from metrics import PER_LAYER

MODULES = (confee, cli, conformity, core, data, normalize, predictors, validity)

class Tracer:
    """Keeps a stack of open spans and sums self time and counts per metric."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.covered_s = 0.0
        self.knn_label_rows = weakref.WeakKeyDictionary()
        self._stack = []

    def wrap(self, metric, fn, count=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                stop = clock()
                stack.pop()
                self.self_s[metric] += stop - start - children[0]
                if ok and count is not None:
                    count(self, args, kwargs, result)
                spent = clock() - start
                if stack:
                    stack[-1][0] += spent
                else:
                    self.covered_s += spent

        return traced


def _calls(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += 1

    return count


def _count_sample(tracer, args, kwargs, dataset):
    tracer.counts["data.sample_obs"] += dataset.n


def _count_components(tracer, args, kwargs, result):
    tracer.counts["core.evector_components"] += len(args[0].values)


def _count_fit(tracer, args, kwargs, rule):
    tracer.counts["conformity.fit_calls"] += 1
    if isinstance(rule, getattr(conformity, "KnnRule", ())):
        proper = args[1] if len(args) > 1 else kwargs["proper"]
        labels, sizes = np.unique(proper.y, return_counts=True)
        tracer.knn_label_rows[rule] = dict(zip(labels.tolist(), sizes.tolist()))


def _count_knn_score(tracer, args, kwargs, out):
    # computed, not observed: each query row is compared with every proper
    # row of its own label, so pairs = sum over query rows of that count
    rule = args[0]
    y = args[2] if len(args) > 2 else kwargs["y"]
    rows = tracer.knn_label_rows.get(rule, {})
    tracer.counts["conformity.score_rows"] += len(out)
    tracer.counts["conformity.score_pairs"] += sum(rows.get(v, 0) for v in np.asarray(y).tolist())


def _count_rows(tracer, args, kwargs, out):
    tracer.counts["conformity.score_rows"] += len(out)


def _count_apply(tracer, args, kwargs, e_vector):
    tracer.counts["normalize.apply_calls"] += 1
    tracer.counts["normalize.components"] += len(e_vector)


_QUERIES = ("SplitEPredictor", ("sigma_at", "alphas_at", "e_at", "predict", "p_at", "p_predict")), (
    "CrossEPredictor", ("fold_e_at", "e_at", "predict", "fold_p_at"))

#: (metric charged with the self time, "module.function" or
#: "module.Class.method" inside confee, count or None).
SPANS = (
    ("data.sample_s", "data.sample", _count_sample),
    ("data.load_csv_s", "data.load_csv", None),
    ("core.dataset_s", "core.Dataset.__init__", None),
    ("core.dataset_s", "core.Dataset.subset", _calls("core.subset_calls")),
    ("core.dataset_s", "core.Dataset.observation", None),
    ("core.partition_s", "core.make_fold_partition", None),
    ("core.partition_s", "core.complement_indices", None),
    ("core.partition_s", "core.FoldPartition.__init__", None),
    ("core.evector_s", "core.EValueVector.__init__", _count_components),
    ("core.evector_s", "core.SummaryVector.__init__", None),
    ("core.evector_s", "core.make_e_vector", None),
    ("conformity.fit_s", "conformity.train_conformity", _count_fit),
    ("conformity.score_s", "conformity.KnnRule.score_many", _count_knn_score),
    ("conformity.score_s", "conformity.RidgeRule.score_many", _count_rows),
    ("normalize.apply_s", "normalize.Normalizer.apply", _count_apply),
    ("normalize.apply_s", "normalize.sum_normalize", None),
    ("normalize.apply_s", "normalize.mean_normalize", None),
    ("predictors.fit_s", "predictors.fit_split", None),
    ("predictors.fit_s", "predictors.fit_cross", None),
    ("predictors.fit_s", "predictors.fit_cross_from_partition", None),
    *(("predictors.query_s", f"predictors.{cls}.{m}", None) for cls, ms in _QUERIES for m in ms),
    ("predictors.query_s", "predictors.CrossEPredictor.fold_tables",
     _calls("predictors.fold_tables_calls")),
    ("validity.self_s", "validity.mc_space_validity", None),
    ("validity.self_s", "validity.online_time_validity", None),
    ("validity.self_s", "validity.build_predictor", None),
    ("cli.self_s", "cli.main", None),
    ("cli.report_write_s", "cli._write_report", None),
)


def install() -> Tracer:
    """Wrap every target in SPANS; returns the tracer that collects them.

    A target the package no longer has is skipped: its time then counts
    as self time of the span that calls it.
    """
    tracer = Tracer()
    for metric, path, count in SPANS:
        module, *classes, name = path.split(".")
        owner = getattr(confee, module)
        for cls in classes:
            owner = getattr(owner, cls, None)
        fn = vars(owner).get(name) if owner is not None else None
        if fn is None:
            continue
        wrapper = tracer.wrap(metric, fn, count)
        if classes:
            setattr(owner, name, wrapper)
            continue
        for namespace in MODULES:
            for attr, value in list(vars(namespace).items()):
                if value is fn:
                    setattr(namespace, attr, wrapper)
    return tracer


def percentiles_ms(durations_s) -> tuple:
    """(p50, p99) in milliseconds; (0.0, 0.0) when there are no samples."""
    ms = [d * 1e3 for d in durations_s]
    if not ms:
        return 0.0, 0.0
    if len(ms) == 1:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=100, method="inclusive")[98]


def metrics(tracer: Tracer, items: int, call_s: float, item_layer: str, item_durations,
            report_bytes: int) -> dict:
    """Every per-layer metric except trace.overhead_ratio, which needs the
    untraced run: name -> value.

    `call_s` is the wall time of the workload's call into confee, the base
    of trace.unattributed_ratio; `item_durations` are the traced items'
    times, charged to `item_layer` ("validity" or "cli").
    """
    out = {name: 0 for name in PER_LAYER if name != "trace.overhead_ratio"}
    out.update(tracer.self_s)
    out.update((name, n) for name, n in tracer.counts.items() if name in out)
    out["predictors.fold_tables_per_item"] = (
        tracer.counts["predictors.fold_tables_calls"] / items
    )
    p50, p99 = percentiles_ms(item_durations)
    out[f"{item_layer}.item_ms_p50"] = p50
    out[f"{item_layer}.item_ms_p99"] = p99
    out[f"{item_layer}.item_samples"] = len(item_durations)
    out["cli.report_bytes"] = report_bytes
    out["trace.unattributed_ratio"] = 1.0 - tracer.covered_s / call_s
    return out
