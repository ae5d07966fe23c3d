"""End-to-end orchestration: ingest -> features -> label/clean -> split ->
recap -> base-model training -> stacking search -> artifact emission.

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
from dataclasses import dataclass, field
from datetime import timedelta

import numpy as np

from . import __version__
from .arima import rolling_forecast_feature, select_order
from .config import PipelineConfig, check_config, config_to_mapping
from .errors import FxStackError
from .evaluation import Metrics, compute_metrics, format_results_table
from .indicators import compute_features
from .market_data import (
    CandleSeries,
    FeatureFrame,
    SplitSpec,
    clean,
    compute_highest_high,
    generate_synthetic_ohlc,
    in_range,
    load_ohlc_csv,
    split_spec_from_fractions,
    to_sequences,
    to_windowed,
)
from .recap import RecapConfig, RecapResult, export_scores_csv, run_recap
from .recurrent import (
    RnnArch,
    TrainConfig,
    apply_scaler,
    fit_scaler,
    predict_rnn,
    rnn_to_dict,
    train_rnn,
)
from .seeding import derive_seed
from .stacking import (
    MetaTrainConfig,
    StackingReport,
    build_meta_frame,
    run_stacking_search,
)
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
    warnings: list[str]
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
        timeframe=timedelta(minutes=config.timeframe_minutes),
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


def _recap_split(config: PipelineConfig, spec: SplitSpec) -> SplitSpec:
    """Recap train/held-out windows.

    Default: held-out = the main validation range (test stays untouched).
    paper_mode: train on train+validation and hold out the test window itself
    (reproducing the published overlap, flagged as a leakage warning).
    """
    if not config.paper_mode:
        return spec
    eps = timedelta(seconds=1)
    return SplitSpec(
        train=(spec.train[0], spec.validation[1]),
        validation=spec.test,
        test=(spec.test[1], spec.test[1] + eps),
    )


def _train_base_models(
    config: PipelineConfig,
    frame: FeatureFrame,
    spec: SplitSpec,
    selected_base: list[str],
):
    """Fit the five base learners on train+validation rows of the selected
    features and predict over the test (stacking) window."""
    narrowed = frame.select(selected_base)
    fit_frame = narrowed.take(
        in_range(narrowed.index, spec.train[0], spec.validation[1]))
    test_frame = narrowed.take(in_range(narrowed.index, *spec.test))

    windowed_fit = to_windowed(fit_frame, config.lookback)
    windowed_test = to_windowed(test_frame, config.lookback)
    n_features = windowed_fit.X.shape[1]

    models: dict[str, object] = {}
    predictions: dict[str, np.ndarray] = {}

    xgb = newton_boost_fit(
        windowed_fit.X, windowed_fit.y,
        BoostParams(
            n_trees=config.xgb_n_trees, max_depth=config.xgb_max_depth,
            learning_rate=config.xgb_learning_rate, lam=config.xgb_reg_lambda,
        ),
        feature_names=windowed_fit.feature_names,
        seed=derive_seed(config.seed, "base", "xgboost"),
    )
    models["xgboost"] = xgb
    predictions["xgboost"] = predict_trees(xgb, windowed_test.X)

    lgbm = newton_boost_fit(
        windowed_fit.X, windowed_fit.y,
        BoostParams(
            n_trees=config.lgbm_n_trees, max_leaves=config.lgbm_max_leaves,
            max_depth=config.xgb_max_depth + 2, growth="leaf",
            splitter="histogram", bins=config.lgbm_bins,
            learning_rate=config.lgbm_learning_rate, goss=(0.2, 0.1),
        ),
        feature_names=windowed_fit.feature_names,
        seed=derive_seed(config.seed, "base", "lightgbm"),
    )
    models["lightgbm"] = lgbm
    predictions["lightgbm"] = predict_trees(lgbm, windowed_test.X)

    forest = fit_random_forest(
        windowed_fit.X, windowed_fit.y,
        ForestParams(
            n_trees=config.forest_n_trees, max_depth=config.forest_max_depth,
            m=min(config.forest_m, n_features),
            seed=derive_seed(config.seed, "base", "random_forest"),
        ),
        feature_names=windowed_fit.feature_names,
    )
    models["random_forest"] = forest
    predictions["random_forest"] = predict_trees(forest, windowed_test.X)

    # recurrent models: carve an early-stop split off the end of the fit rows
    seq_fit = to_sequences(fit_frame, config.lookback)
    seq_test = to_sequences(test_frame, config.lookback)
    n_rows = seq_fit.X.shape[0]
    n_stop = max(1, int(round(n_rows * 0.15)))
    scaler = fit_scaler(seq_fit)
    fit_scaled = apply_scaler(scaler, seq_fit)
    test_scaled = apply_scaler(scaler, seq_test)
    core = fit_scaled.take(slice(None, n_rows - n_stop))
    early = fit_scaled.take(slice(n_rows - n_stop, None))
    for cell in ("lstm", "gru"):
        cfg = TrainConfig(
            batch_size=config.rnn_batch, learning_rate=config.rnn_lr,
            max_epochs=config.rnn_epochs, patience=config.rnn_patience,
            seed=derive_seed(config.seed, "base", cell),
        )
        model, _ = train_rnn(
            core, early, RnnArch(cell=cell, hidden_size=config.rnn_hidden), cfg
        )
        models[cell] = model
        predictions[cell] = predict_rnn(model, test_scaled)

    return models, predictions, windowed_test


def run_pipeline(config: PipelineConfig, out_dir: str | None = None) -> RunReport:
    warnings = check_config(config)
    out_dir = config.out_dir if out_dir is None else out_dir

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

    def _label_and_clean():
        labeled = frame.with_label(
            "highest_high", compute_highest_high(series, config.horizon)
        )
        return clean(labeled)

    clean_frame, cleaning_counts = staged("clean", _label_and_clean)

    spec = staged(
        "split", split_spec_from_fractions, clean_frame.index, config.main_split
    )
    recap_split = _recap_split(config, spec)

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
            # paper_mode holds out the test window on purpose
            results[k] = run_recap(clean_frame, recap_split, recap_cfg,
                                   None if config.paper_mode else spec.test)
        return results

    recap_results = staged("recap", _run_recaps)
    selected_k = min(
        recap_results, key=lambda k: (recap_results[k].final_metrics.rmse, k)
    )
    selected_base = recap_results[selected_k].selected_base

    models, predictions, windowed_test = staged(
        "train", _train_base_models, config, clean_frame, spec, selected_base
    )
    base_metrics = {
        name: compute_metrics(pred, windowed_test.y)
        for name, pred in predictions.items()
    }

    def _stack() -> StackingReport:
        meta = build_meta_frame(
            predictions, windowed_test.y, windowed_test.row_timestamps
        )
        meta_spec = split_spec_from_fractions(meta.index, config.meta_split)
        return run_stacking_search(
            meta, meta_spec,
            seed=derive_seed(config.seed, "stack"),
            cfg=MetaTrainConfig(
                hidden=config.meta_hidden, learning_rate=config.meta_lr,
                max_epochs=config.meta_epochs, patience=config.meta_patience,
            ),
            paper_mode=config.paper_mode,
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
        warnings=warnings,
        timings=timings,
    )
    written: list[str] = []
    staged(
        "emit", _emit_artifacts,
        out_dir, report, recap_results[selected_k], base_metrics,
        stacking_report, models, written,
    )
    # written once the emit stage has returned, so that it includes "emit"
    _write_artifacts(out_dir, report, {"timings.json": lambda p: _write_json(
        p, report.timings, indent=2)}, written)
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
    table_rows = [(name, base_metrics[name]) for name in sorted(base_metrics)]
    table_rows.append((
        f"stacked({stacking_report.selected.combo_id}:"
        f"{'+'.join(stacking_report.selected.members)})",
        Metrics(
            mse=stacking_report.selected.test_rmse ** 2,
            rmse=stacking_report.selected.test_rmse,
            mae=stacking_report.selected.test_mae,
            mape=None,
            n=0,
        ),
    ))
    writers = {
        "recap_scores.csv": lambda p: export_scores_csv(recap_result, p),
        "metrics_table.csv":
            lambda p: _write_text(p, format_results_table(table_rows)),
        "stacking_report.csv":
            lambda p: _write_text(p, stacking_report.to_csv()),
    }
    for name, model in models.items():
        writers[os.path.join("models", f"{name}.json")] = (
            (lambda p, m=model: _write_json(p, rnn_to_dict(m)))
            if name in ("lstm", "gru")
            else (lambda p, m=model: save_model(m, p)))
    # last, so that it lists every artifact above
    writers["report.json"] = lambda p: _write_json(p, report.to_dict(),
                                                   indent=2)
    _write_artifacts(out_dir, report, writers, written)
