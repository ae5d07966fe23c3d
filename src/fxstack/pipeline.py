"""End-to-end orchestration: ingest -> features -> label/clean -> split ->
recap -> base-model training -> stacking search -> artifact emission.

Recap fits on the main train range and scores on validation. The base
models fit on train+validation; their test-range predictions form the
stacking window. ``BASE_LEARNERS`` is the one table of base learners, in
``stacking.MODEL_ORDER``: how each fits, predicts and saves its model. The
train stage loops over it and the emit stage saves each model through it.

Every stage failure aborts with the stage name and original cause; artifacts
are only written after all compute succeeds, and a failed write cleans up
whatever it managed to create. ``report.json`` excludes wall-clock timings
(they go to ``timings.json``) and the output directory, so identical
config+seed runs are byte-identical wherever they write.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__
from .arima import rolling_forecast_feature, select_order
from .config import PipelineConfig, check_config, config_to_mapping
from .errors import FxStackError, InsufficientDataError
from .evaluation import Metrics, compute_metrics, format_results_table
from .indicators import compute_features
from .market_data import (
    CandleSeries, FeatureFrame, SequenceDataset, SplitSpec, clean,
    compute_highest_high, generate_synthetic_ohlc, load_ohlc_csv,
    split_spec_from_fractions, to_sequences, to_windowed)
from .recap import RecapConfig, RecapResult, export_scores_csv, run_recap
from .recurrent import (RnnArch, TrainConfig, apply_scaler, fit_scaler,
                        predict_rnn, rnn_to_dict, train_rnn)
from .seeding import derive_seed
from .stacking import (META_TRAIN, MODEL_ORDER, StackingReport,
                       build_meta_frame, run_stacking_search)
from .trees import BoostParams, ForestParams, newton_boost_fit, fit_random_forest
from .trees import predict as predict_trees
from .trees import save_model


class StageError(FxStackError):
    """A pipeline stage failed; carries the stage name and the original cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunReport:
    version: str
    config: dict
    cleaning_counts: dict
    ingest_dropped: dict
    arima_orders: dict
    arima_refit_fallbacks: dict  # ARIMA column -> refits that kept old coefs
    recap: dict                 # str(k) -> RecapResult dict
    selected_k: int
    selected_features: list[str]
    base_metrics: dict          # model name -> metrics dict (stacking window)
    stacking: dict
    artifacts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)  # not part of report.json

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        del out["timings"]
        return out


def _ingest(config: PipelineConfig) -> tuple[CandleSeries, dict]:
    if config.source == "csv":
        return load_ohlc_csv(config.csv_path)
    series = generate_synthetic_ohlc(
        config.synthetic_n,
        seed=derive_seed(config.seed, "data"),
        volatility=config.synthetic_volatility,
        start_price=config.start_price,
        timeframe=np.timedelta64(config.timeframe_minutes, "m"),
    )
    return series, {}


def _features(
    config: PipelineConfig, series: CandleSeries
) -> tuple[FeatureFrame, dict, dict]:
    """Feature frame, the selected ARIMA order of each ARIMA column and the
    count of its rolling refits that kept the previous coefficients."""
    extra: dict[str, np.ndarray] = {}
    orders: dict[str, list[int]] = {}
    fallbacks: dict[str, int] = {}
    if config.use_arima:
        if len(series) <= config.arima_fit_len:
            raise InsufficientDataError(
                f"{len(series)} bars; the ARIMA columns need more than "
                f"arima.fit_len = {config.arima_fit_len}")
        for name, values in (("arima_close", series.close),
                             ("arima_high", series.high)):
            search = select_order(
                values[:config.arima_fit_len],
                p_max=config.arima_p_max,
                d_set=tuple(config.arima_d),
                q_max=config.arima_q_max,
            )
            orders[name] = list(search.selected)
            extra[name], fallbacks[name] = rolling_forecast_feature(
                values, search.selected, fit_len=config.arima_fit_len,
                refit_every=config.arima_refit_every,
            )
    frame = compute_features(series, config.use_indicators, extra=extra)
    return frame, orders, fallbacks


class BaseLearner(NamedTuple):
    """How the train stage fits, applies and saves one base learner, on
    the lookback windows of :func:`to_sequences`: ``fit(windows, config,
    seed)`` returns the model, ``predict(model, windows)`` one prediction
    per window, and ``save(model, path)`` writes ``models/<name>.json``.
    Each looks up this module's functions when it runs, so a wrapper set on
    one sees the call.
    """

    fit: Callable[[SequenceDataset, PipelineConfig, int], object]
    predict: Callable[[object, SequenceDataset], np.ndarray]
    save: Callable[[object, str], None]


def _tree_learner(fit) -> BaseLearner:
    """A tree learner on flattened windows; ``fit(windowed, config, seed)``."""
    return BaseLearner(
        lambda windows, config, seed: fit(to_windowed(windows), config, seed),
        lambda model, windows: predict_trees(model, to_windowed(windows).X),
        lambda model, path: save_model(model, path))


def _boosted(params) -> BaseLearner:
    """A boosted tree learner with ``params(config)``."""
    return _tree_learner(lambda windowed, config, seed: newton_boost_fit(
        windowed.X, windowed.y, params(config),
        feature_names=windowed.feature_names, seed=seed))


def _rnn_learner(cell: str) -> BaseLearner:
    """A recurrent learner whose input scaler is fit on all the fit rows;
    the last 15% of them stop training early."""

    def fit(windows, config, seed):
        scaler = fit_scaler(windows)
        scaled = apply_scaler(scaler, windows)
        n_stop = max(1, int(round(len(scaled.y) * 0.15)))
        model, _ = train_rnn(
            scaled.take(slice(None, -n_stop)),
            scaled.take(slice(-n_stop, None)),
            RnnArch(cell=cell, hidden_size=config.rnn_hidden),
            TrainConfig(
                batch_size=config.rnn_batch, learning_rate=config.rnn_lr,
                max_epochs=config.rnn_epochs, patience=config.rnn_patience),
            scaler, seed=seed)
        return model

    return BaseLearner(
        fit,
        lambda model, windows: predict_rnn(model, windows),
        lambda model, path: _write_json(path, rnn_to_dict(model)))


# the base learners, keyed in ``MODEL_ORDER``
BASE_LEARNERS: dict[str, BaseLearner] = dict(zip(MODEL_ORDER, (
    _boosted(lambda c: BoostParams(
        n_trees=c.xgb_n_trees, max_depth=c.xgb_max_depth,
        learning_rate=c.xgb_learning_rate, lam=c.xgb_reg_lambda)),
    _boosted(lambda c: BoostParams(
        n_trees=c.lgbm_n_trees, max_leaves=c.lgbm_max_leaves,
        max_depth=c.xgb_max_depth + 2, splitter="histogram",
        bins=c.lgbm_bins, learning_rate=c.lgbm_learning_rate,
        goss=(0.2, 0.1))),
    _tree_learner(lambda windowed, c, seed: fit_random_forest(
        windowed.X, windowed.y, ForestParams(
            n_trees=c.forest_n_trees, max_depth=c.forest_max_depth,
            m=min(c.forest_m, windowed.X.shape[1])),
        feature_names=windowed.feature_names, seed=seed)),
    _rnn_learner("lstm"),
    _rnn_learner("gru"),
), strict=True))


def _train_base_models(config: PipelineConfig, frame: FeatureFrame,
                       spec: SplitSpec, selected_base: list[str]):
    """Fit each base learner on the windows of the train+validation rows of
    the selected features, with seed ``derive_seed(config.seed, "base",
    name)``, and predict over the windows of the test (stacking) range,
    which are returned for their labels and stamps. Each range is windowed
    once, here."""
    narrowed = frame.select(selected_base)
    fit_windows = to_sequences(narrowed.take(slice(spec.test.start)),
                               config.lookback)
    test_windows = to_sequences(narrowed.take(spec.test), config.lookback)
    models: dict[str, object] = {}
    predictions: dict[str, np.ndarray] = {}
    for name, learner in BASE_LEARNERS.items():
        models[name] = learner.fit(
            fit_windows, config, derive_seed(config.seed, "base", name))
        predictions[name] = learner.predict(models[name], test_windows)
    return models, predictions, test_windows


def _label_and_clean(config: PipelineConfig, series: CandleSeries,
                     frame: FeatureFrame) -> tuple[FeatureFrame, dict]:
    """``frame`` labelled with the highest high over ``config.horizon``
    bars, then cleaned; returns the clean frame and the cleaning counts."""
    return clean(frame.with_label(
        "highest_high", compute_highest_high(series, config.horizon)))


def run_pipeline(config: PipelineConfig) -> RunReport:
    check_config(config)

    timings: dict[str, float] = {}

    def staged(name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except FxStackError as exc:
            raise StageError(name, exc) from exc
        timings[name] = time.perf_counter() - start
        return result

    series, dropped = staged("ingest", _ingest, config)
    frame, arima_orders, arima_refit_fallbacks = staged(
        "features", _features, config, series)

    clean_frame, cleaning_counts = staged(
        "clean", _label_and_clean, config, series, frame)

    spec = staged(
        "split", split_spec_from_fractions, clean_frame.index, config.main_split
    )

    def _run_recaps() -> dict[int, RecapResult]:
        results = {}
        for k in config.recap_ks:
            recap_cfg = RecapConfig(
                k=k,
                lookback=config.lookback,
                rnn_arch=RnnArch(cell="gru", hidden_size=config.recap_rnn_hidden),
                rnn_cfg=TrainConfig(
                    batch_size=config.rnn_batch,
                    learning_rate=config.recap_rnn_lr,
                    max_epochs=config.recap_rnn_epochs, patience=3,
                ),
                seed=derive_seed(config.seed, "recap", k),
            )
            results[k] = run_recap(clean_frame, spec, recap_cfg)
        return results

    recap_results = staged("recap", _run_recaps)
    selected_k = min(
        recap_results, key=lambda k: (recap_results[k].final_metrics.rmse, k)
    )
    selected_base = recap_results[selected_k].selected_base

    models, predictions, test_windows = staged(
        "train", _train_base_models, config, clean_frame, spec, selected_base
    )
    base_metrics = {
        name: compute_metrics(pred, test_windows.y)
        for name, pred in predictions.items()
    }

    def _stack() -> StackingReport:
        meta = build_meta_frame(
            predictions, test_windows.y, test_windows.row_timestamps
        )
        meta_spec = split_spec_from_fractions(meta.index, config.meta_split)
        return run_stacking_search(
            meta, meta_spec,
            seed=derive_seed(config.seed, "stack"),
            hidden=config.meta_hidden,
            cfg=dataclasses.replace(
                META_TRAIN, learning_rate=config.meta_lr,
                max_epochs=config.meta_epochs, patience=config.meta_patience,
            ),
        )

    stacking_report = staged("stack", _stack)

    report = RunReport(
        version=__version__,
        config={k: v for k, v in config_to_mapping(config).items()
                if k != "out_dir"},
        cleaning_counts=cleaning_counts,
        ingest_dropped=dropped,
        arima_orders=arima_orders,
        arima_refit_fallbacks=arima_refit_fallbacks,
        recap={str(k): r.to_dict() for k, r in recap_results.items()},
        selected_k=selected_k,
        selected_features=selected_base,
        base_metrics={n: m.to_dict() for n, m in base_metrics.items()},
        stacking=stacking_report.to_dict(),
        timings=timings,
    )
    written: list[str] = []
    staged(
        "emit", _emit_artifacts,
        config.out_dir, report, recap_results[selected_k], base_metrics,
        stacking_report, models, written,
    )
    # written once the emit stage has returned, so that it includes "emit"
    _write_artifacts(config.out_dir, report, {
        "timings.json": lambda p: _write_json(p, report.timings, indent=2)},
        written)
    return report


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path: str, payload, indent: int | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=indent)


def _write_artifacts(out_dir: str, report: RunReport, writers: dict,
                     written: list[str]) -> None:
    """Call each ``writers[rel_path](path)`` in order and list the file in
    ``report.artifacts``; on failure remove every path in ``written``."""
    try:
        for rel_path, write_fn in writers.items():
            path = os.path.join(out_dir, rel_path)
            write_fn(path)
            written.append(path)
            # stored relative to the output directory so reports stay portable
            # (and byte-identical across runs into different directories)
            report.artifacts[rel_path] = rel_path
    except Exception:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def _emit_artifacts(
    out_dir: str,
    report: RunReport,
    recap_result: RecapResult,
    base_metrics: dict[str, Metrics],
    stacking_report: StackingReport,
    models: dict,
    written: list[str],
) -> None:
    os.makedirs(os.path.join(out_dir, "models"), exist_ok=True)
    selected = stacking_report.selected
    table_rows = [(name, base_metrics[name]) for name in sorted(base_metrics)]
    table_rows.append((
        f"stacked({selected.combo_id}:{'+'.join(selected.members)})",
        selected.test))
    writers = {
        "recap_scores.csv": lambda p: export_scores_csv(recap_result, p),
        "metrics_table.csv":
            lambda p: _write_text(p, format_results_table(table_rows)),
        "stacking_report.csv":
            lambda p: _write_text(p, stacking_report.to_csv()),
    }
    for name in models:
        writers[os.path.join("models", f"{name}.json")] = (
            lambda p, name=name: BASE_LEARNERS[name].save(models[name], p))
    # last, so that it lists every artifact above
    writers["report.json"] = lambda p: _write_json(p, report.to_dict(),
                                                   indent=2)
    _write_artifacts(out_dir, report, writers, written)
