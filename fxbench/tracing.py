"""Outside-in tracer for fxstack.

The tracer replaces public functions in the module namespaces where
``fxstack.pipeline``, ``fxstack.recap``, ``fxstack.stacking``,
``fxstack.arima`` and ``fxstack.market_data`` look them up, so a call made by
the program goes through a wrapper that records a span (name, start, end,
parent) in memory. Counts are read off the returned objects right after each
call. Nothing under ``src/`` is changed.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

# pipeline stages in run order (the keys of RunReport.timings)
STAGES = ("ingest", "features", "clean", "split", "recap", "train", "stack",
          "emit")

# span name -> stages a top-level span of that name can belong to; a span
# goes to the first of them not before the stage of the previous span
SPAN_STAGES = {
    "market_data.load_csv": ("ingest",),
    "arima.select_order": ("features",),
    "arima.rolling": ("features",),
    "indicators.compute_features": ("features",),
    "market_data.label": ("clean",),
    "market_data.clean": ("clean",),
    "market_data.split_spec": ("split", "stack"),
    "recap.run": ("recap",),
    "market_data.window": ("train",),
    "trees.boost": ("train",),
    "trees.forest": ("train",),
    "trees.predict": ("train",),
    "recurrent.scale": ("train",),
    "recurrent.train": ("train",),
    "recurrent.predict": ("train",),
    "stacking.meta_frame": ("stack",),
    "stacking.search": ("stack",),
    "recap.export_scores": ("emit",),
    "evaluation.table": ("emit",),
    "trees.save": ("emit",),
    "recurrent.to_dict": ("emit",),
    "market_data.features_csv": ("emit",),
}

RECONCILE_TOLERANCE = 0.05   # ROADMAP item 1: layers sum to stages within 5%
RECONCILE_MIN_SHARE = 0.05   # stages below this share of the run are only
                             # checked through the total


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Route ``owner.attr`` through a span named ``name``.

        ``describe(args, kwargs, result)`` returns counters for the span; it
        runs after the span has ended.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name,
                        self._open[-1] if self._open else None,
                        time.perf_counter())
            self.spans.append(span)
            self._open.append(span.id)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def stage_of_top_level(self) -> dict[int, str | None]:
        """Stage of each top-level span (None when it falls between stages)."""
        out: dict[int, str | None] = {}
        current = 0
        for s in self.spans:
            if s.parent is not None:
                continue
            stage = None
            for candidate in SPAN_STAGES.get(s.name, ()):
                if STAGES.index(candidate) >= current:
                    stage = candidate
                    current = STAGES.index(candidate)
                    break
            out[s.id] = stage
        return out

    def to_json(self) -> list[dict]:
        own = self.self_times()
        return [
            {"id": s.id, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end, "self": own[s.id],
             "attrs": s.attrs}
            for s in self.spans
        ]


def _param(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _tree_counts(model) -> dict:
    return {"trees": len(model.trees),
            "nodes_split": sum(len(t.splits()) for t in model.trees)}


def _boost_attrs(args, kwargs, model) -> dict:
    return {"splitter": _param(args, kwargs, 2, "params").splitter,
            **_tree_counts(model)}


def _forest_attrs(args, kwargs, model) -> dict:
    return _tree_counts(model)


def _rnn_attrs(args, kwargs, result) -> dict:
    _, history = result
    val = [r.val_rmse for r in history]
    return {"epochs": len(history),
            "best_epoch": int(np.argmin(val)) if val else -1}


def _prediction_attrs(args, kwargs, pred) -> dict:
    return {"finite": bool(np.isfinite(pred).all())}


def _fit_arma_attrs(args, kwargs, model) -> dict:
    return {"q": model.q}


def _select_order_attrs(args, kwargs, result) -> dict:
    return {"order": list(result.selected)}


def _load_csv_attrs(args, kwargs, result) -> dict:
    return {"dropped": dict(result[1])}


def _to_csv_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_param(args, kwargs, 1, "path"))}


def install(fx) -> Tracer:
    """Wrap the layer entry points of the imported ``fxstack`` modules.

    ``fx`` maps module names (``pipeline``, ``recap``, ``stacking``,
    ``arima``, ``market_data``) to the imported modules.
    """
    tracer = Tracer()
    pipeline, recap, stacking = fx["pipeline"], fx["recap"], fx["stacking"]
    arima, market_data = fx["arima"], fx["market_data"]
    shared = [
        ("to_windowed", "market_data.window", None),
        ("to_sequences", "market_data.window", None),
        ("newton_boost_fit", "trees.boost", _boost_attrs),
        ("fit_random_forest", "trees.forest", _forest_attrs),
        ("fit_scaler", "recurrent.scale", None),
        ("apply_scaler", "recurrent.scale", None),
        ("train_rnn", "recurrent.train", _rnn_attrs),
        ("predict_rnn", "recurrent.predict", _prediction_attrs),
        ("compute_metrics", "evaluation.metrics", None),
    ]
    for attr, name, describe in shared:
        tracer.wrap(pipeline, attr, name, describe)
        tracer.wrap(recap, attr, name, describe)
    for attr, name, describe in [
        ("load_ohlc_csv", "market_data.load_csv", _load_csv_attrs),
        ("select_order", "arima.select_order", _select_order_attrs),
        ("rolling_forecast_feature", "arima.rolling", None),
        ("compute_features", "indicators.compute_features", None),
        ("compute_highest_high", "market_data.label", None),
        ("clean", "market_data.clean", None),
        ("split_spec_from_fractions", "market_data.split_spec", None),
        ("run_recap", "recap.run", None),
        ("predict_trees", "trees.predict", _prediction_attrs),
        ("build_meta_frame", "stacking.meta_frame", None),
        ("run_stacking_search", "stacking.search", None),
        ("export_scores_csv", "recap.export_scores", None),
        ("format_results_table", "evaluation.table", None),
        ("save_model", "trees.save", None),
        ("rnn_to_dict", "recurrent.to_dict", None),
    ]:
        tracer.wrap(pipeline, attr, name, describe)
    tracer.wrap(recap, "split_by_dates", "market_data.window")
    tracer.wrap(recap, "importance", "trees.importance")
    tracer.wrap(stacking, "split_meta", "stacking.split_meta")
    tracer.wrap(stacking, "train_meta_nn", "stacking.meta_fit")
    tracer.wrap(stacking, "compute_metrics", "evaluation.metrics")
    tracer.wrap(arima, "fit_arma", "arima.fit_arma", _fit_arma_attrs)
    # the features subcommand imports these from market_data at call time
    tracer.wrap(market_data, "compute_highest_high", "market_data.label")
    tracer.wrap(market_data, "clean", "market_data.clean")
    tracer.wrap(market_data.FeatureFrame, "to_csv",
                "market_data.features_csv", _to_csv_attrs)
    return tracer


def _under(tracer: Tracer, span: Span, ancestor_name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if tracer.spans[parent].name == ancestor_name:
            return True
        parent = tracer.spans[parent].parent
    return False


def layer_metrics(tracer: Tracer, stage_totals: dict[str, float]) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the recorded spans.

    ``stage_totals`` are the program's own stage timings; when it reports
    none (the features subcommand), stage times are summed from the spans.
    """
    own = tracer.self_times()
    stage_of = tracer.stage_of_top_level()
    spans = tracer.spans

    def total(name, pred=lambda s: True, use_self=False):
        return sum(own[s.id] if use_self else s.duration
                   for s in spans if s.name == name and pred(s))

    def count(name, pred=lambda s: True):
        return sum(1 for s in spans if s.name == name and pred(s))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    m: dict[str, tuple[float, str]] = {}
    span_stage_totals = {st: 0.0 for st in STAGES}
    for sid, st in stage_of.items():
        if st is not None:
            span_stage_totals[st] += spans[sid].duration
    for st in STAGES:
        value = stage_totals.get(st, span_stage_totals[st])
        m[f"pipeline.{st}_s"] = (value, "s")

    m["market_data.load_csv_s"] = (total("market_data.load_csv"), "s")
    m["market_data.rows_dropped"] = (sum(
        sum(s.attrs.get("dropped", {}).values())
        for s in spans if s.name == "market_data.load_csv"), "count")
    m["market_data.window_s"] = (total("market_data.window"), "s")
    m["market_data.features_csv_s"] = (total("market_data.features_csv"),
                                       "s")
    m["market_data.features_csv_bytes"] = (
        attr_sum("market_data.features_csv", "bytes"), "bytes")

    m["indicators.compute_features_s"] = (
        total("indicators.compute_features"), "s")

    m["arima.select_order_s"] = (total("arima.select_order"), "s")
    m["arima.rolling_s"] = (total("arima.rolling"), "s")
    m["arima.rolling_self_s"] = (total("arima.rolling", use_self=True), "s")
    m["arima.fit_arma_calls"] = (count("arima.fit_arma"), "count")
    m["arima.fit_arma_s"] = (total("arima.fit_arma"), "s")
    m["arima.ma_fit_calls"] = (
        count("arima.fit_arma", lambda s: s.attrs.get("q", 0) >= 1), "count")

    exact = total("trees.boost", lambda s: s.attrs["splitter"] == "exact")
    hist = total("trees.boost", lambda s: s.attrs["splitter"] == "histogram")
    forest = total("trees.forest")
    nodes = attr_sum("trees.boost", "nodes_split") + attr_sum(
        "trees.forest", "nodes_split")
    fit_s = exact + hist + forest
    m["trees.boost_exact_s"] = (exact, "s")
    m["trees.boost_hist_s"] = (hist, "s")
    m["trees.forest_s"] = (forest, "s")
    m["trees.predict_s"] = (total("trees.predict"), "s")
    m["trees.importance_s"] = (total("trees.importance"), "s")
    m["trees.trees_grown"] = (attr_sum("trees.boost", "trees")
                              + attr_sum("trees.forest", "trees"), "count")
    m["trees.nodes_split"] = (nodes, "count")
    m["trees.nodes_per_s"] = (nodes / fit_s if fit_s > 0 else 0.0, "1/s")

    train_s = total("recurrent.train")
    epochs = attr_sum("recurrent.train", "epochs")
    useful = sum(s.attrs["best_epoch"] + 1 for s in spans
                 if s.name == "recurrent.train")
    m["recurrent.train_s"] = (train_s, "s")
    m["recurrent.predict_s"] = (total("recurrent.predict"), "s")
    m["recurrent.epochs_run"] = (epochs, "count")
    m["recurrent.epoch_s"] = (train_s / epochs if epochs else 0.0, "s")
    m["recurrent.useful_epoch_ratio"] = (
        useful / epochs if epochs else 0.0, "ratio")

    def in_recap(s):
        return _under(tracer, s, "recap.run")

    m["recap.run_s"] = (total("recap.run"), "s")
    m["recap.self_s"] = (total("recap.run", use_self=True), "s")
    m["recap.trees_s"] = (sum(
        total(n, in_recap) for n in ("trees.boost", "trees.forest",
                                     "trees.importance")), "s")
    m["recap.rnn_s"] = (sum(
        total(n, in_recap) for n in ("recurrent.train", "recurrent.predict",
                                     "recurrent.scale")), "s")

    m["stacking.search_s"] = (total("stacking.search"), "s")
    m["stacking.meta_fits"] = (count("stacking.meta_fit"), "count")
    m["stacking.meta_fit_s"] = (total("stacking.meta_fit"), "s")
    return m


def reconcile(tracer: Tracer, stage_totals: dict[str, float]) -> dict:
    """Compare the per-layer self times of each stage with its total.

    The self times of a stage's spans sum to the durations of its top-level
    spans, so the check is that the wrapped layers cover the stage: within
    ``RECONCILE_TOLERANCE`` for every stage that holds at least
    ``RECONCILE_MIN_SHARE`` of the run, and for the sum over all stages.
    """
    stage_of = tracer.stage_of_top_level()
    covered = {st: 0.0 for st in stage_totals}
    for sid, st in stage_of.items():
        key = st if st in covered else None
        if key is None and len(covered) == 1:
            key = next(iter(covered))   # single-stage run: all spans count
        if key is not None:
            covered[key] += tracer.spans[sid].duration
    run_total = sum(stage_totals.values())
    rows = {}
    ok = True
    for st, want in stage_totals.items():
        ratio = covered[st] / want if want > 0 else 1.0
        checked = want >= RECONCILE_MIN_SHARE * run_total
        within = abs(ratio - 1.0) <= RECONCILE_TOLERANCE
        ok &= within or not checked
        rows[st] = {"stage_s": want, "layers_s": covered[st],
                    "ratio": ratio, "checked": checked}
    total_ratio = sum(covered.values()) / run_total if run_total else 1.0
    ok &= abs(total_ratio - 1.0) <= RECONCILE_TOLERANCE
    return {"ok": ok, "total_ratio": total_ratio, "stages": rows}
