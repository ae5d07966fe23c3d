"""Importance-recap feature selection.

Three tree models score each lagged feature column (boosted gain, forest
impurity decrease, histogram-boosted split count). A sequence model is then
trained on each model's top-k selection and its held-out RMSE recorded. The
fused score per feature is the sum over models of its min-max normalized
importance divided by that model's RMSE; the final top-k lagged columns
(collapsed to base features) feed the final sequence model.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import LeakageError, ParameterError
from .evaluation import Metrics, compute_metrics
from .market_data import FeatureFrame, SplitSpec, split_by_dates, to_sequences, to_windowed
from .recurrent import (
    MinMaxScaler,
    RnnArch,
    TrainConfig,
    apply_scaler,
    fit_scaler,
    predict_rnn,
    train_rnn,
)
from .seeding import derive_seed
from .trees import (
    BoostParams,
    ForestParams,
    ImportanceVector,
    fit_random_forest,
    importance,
    newton_boost_fit,
)

_LAGGED_NAME = re.compile(r"^(?P<base>.+?)\(t(?:-(?P<lag>\d+))?\)$")


def normalize_scores(v: ImportanceVector) -> ImportanceVector:
    """Min-max scale scores into [0, 1]; an all-equal vector maps to 0.5."""
    if not v.scores:
        raise ParameterError("importance vector is empty")
    values = np.array(list(v.scores.values()), dtype=float)
    scaled = MinMaxScaler.fit(values).transform(values)
    return ImportanceVector(kind=v.kind, scores=dict(zip(v.scores, scaled)))


def recap_scores(
    norm_scores: list[ImportanceVector], rmses: list[float]
) -> dict[str, float]:
    """Fused score: final(f) = sum over models of norm_m(f) / rmse_m."""
    if len(norm_scores) != len(rmses):
        raise ParameterError("need one RMSE per importance vector")
    if any(r <= 0 for r in rmses):
        raise ParameterError("RMSEs must be > 0")
    universe = set(norm_scores[0].scores)
    for v in norm_scores[1:]:
        if set(v.scores) != universe:
            raise ParameterError("importance vectors cover different features")
    final: dict[str, float] = {name: 0.0 for name in universe}
    for v, rmse in zip(norm_scores, rmses):
        for name, s in v.scores.items():
            final[name] += s / rmse
    return final


def top_k_columns(scores: dict[str, float], k: int) -> list[str]:
    """Highest-scoring k column names; ties break lexicographically by name."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [name for name, _ in ranked[:k]]


def collapse_to_base(selected: list[str]) -> list[str]:
    """Strip ``(t-j)`` lag suffixes, dedupe, keep first-selected order."""
    seen: dict[str, None] = {}
    for name in selected:
        match = _LAGGED_NAME.match(name)
        if match is None:
            raise ParameterError(f"malformed lagged column name {name!r}")
        seen.setdefault(match.group("base"))
    return list(seen)


@dataclass(frozen=True)
class RecapResult:
    k: int
    normalized: dict[str, ImportanceVector]
    model_rmses: dict[str, float]
    per_model_selected: dict[str, list[str]]
    final_scores: dict[str, float]
    selected_lagged: list[str]
    selected_base: list[str]
    final_metrics: Metrics
    baseline_metrics: Metrics | None = None

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "model_rmses": self.model_rmses,
            "per_model_selected": self.per_model_selected,
            "final_scores": self.final_scores,
            "selected_lagged": self.selected_lagged,
            "selected_base": self.selected_base,
            "final_metrics": self.final_metrics.to_dict(),
            "baseline_metrics": (
                None if self.baseline_metrics is None
                else self.baseline_metrics.to_dict()
            ),
        }


@dataclass(frozen=True)
class RecapConfig:
    k: int = 20
    lookback: int = 5
    boost_params: BoostParams = field(default_factory=lambda: BoostParams(
        n_trees=30, learning_rate=0.3, max_depth=5))
    hist_params: BoostParams = field(default_factory=lambda: BoostParams(
        n_trees=30, learning_rate=0.3, max_depth=6, max_leaves=31,
        splitter="histogram", bins=64, goss=(0.2, 0.1)))
    forest_params: ForestParams = field(default_factory=lambda: ForestParams(
        n_trees=20, max_depth=8, m=20))
    rnn_arch: RnnArch = field(default_factory=lambda: RnnArch(
        cell="gru", hidden_size=16))
    rnn_cfg: TrainConfig = field(default_factory=lambda: TrainConfig(
        batch_size=256, learning_rate=3e-3, max_epochs=8, patience=3))
    seed: int = 0
    with_baseline: bool = False

    # importance kind per tree model, in Eq-order (boost, forest, histogram)
    MODEL_KINDS = (
        ("xgboost", "gain"),
        ("random_forest", "impurity_decrease"),
        ("lightgbm", "split_count"),
    )


def _train_sequence_model(
    frame_train: FeatureFrame,
    frame_heldout: FeatureFrame,
    base_features: list[str],
    lookback: int,
    arch: RnnArch,
    cfg: TrainConfig,
) -> Metrics:
    train_seq = to_sequences(frame_train.select(base_features), lookback)
    held_seq = to_sequences(frame_heldout.select(base_features), lookback)
    scaler = fit_scaler(train_seq)
    train_scaled = apply_scaler(scaler, train_seq)
    held_scaled = apply_scaler(scaler, held_seq)
    model, _ = train_rnn(train_scaled, held_scaled, arch, cfg)
    pred = predict_rnn(model, held_scaled)
    return compute_metrics(pred, held_seq.y)


def run_recap(
    frame: FeatureFrame,
    recap_split: SplitSpec,
    config: RecapConfig,
    final_test_range: tuple | None = None,
) -> RecapResult:
    """Full recap procedure on a cleaned, labeled frame.

    ``recap_split.validation`` is the held-out range used for the per-model
    RMSEs and the final evaluation; when ``final_test_range`` is given, no
    recap range but ``test`` may overlap it (:class:`LeakageError`).
    """
    if final_test_range is not None:
        test_start, test_end = final_test_range
        for name, (start, end) in recap_split.ranges().items():
            if name == "test":
                continue
            if start < test_end and test_start < end:
                raise LeakageError(
                    f"recap {name} range overlaps the final test window"
                )
    train_frame, heldout_frame, _ = split_by_dates(frame, recap_split)
    windowed = to_windowed(train_frame, config.lookback)

    fitters = {
        "xgboost": lambda: newton_boost_fit(
            windowed.X, windowed.y, config.boost_params,
            feature_names=windowed.feature_names,
            seed=derive_seed(config.seed, "recap-xgb")),
        "lightgbm": lambda: newton_boost_fit(
            windowed.X, windowed.y, config.hist_params,
            feature_names=windowed.feature_names,
            seed=derive_seed(config.seed, "recap-lgbm")),
        "random_forest": lambda: fit_random_forest(
            windowed.X, windowed.y,
            dataclasses.replace(config.forest_params,
                                seed=derive_seed(config.seed, "recap-rf")),
            feature_names=windowed.feature_names),
    }
    raw: dict[str, ImportanceVector] = {}
    rmses: dict[str, float] = {}
    per_model_selected: dict[str, list[str]] = {}
    rnn_cfg = dataclasses.replace(
        config.rnn_cfg, seed=derive_seed(config.seed, "recap-rnn")
    )
    for model_name, kind in RecapConfig.MODEL_KINDS:
        model = fitters[model_name]()
        raw[model_name] = importance(model, kind)
        lagged = top_k_columns(raw[model_name].scores, config.k)
        per_model_selected[model_name] = lagged
        base = collapse_to_base(lagged)
        metrics = _train_sequence_model(
            train_frame, heldout_frame, base, config.lookback,
            config.rnn_arch, rnn_cfg,
        )
        rmses[model_name] = metrics.rmse
    normalized = {name: normalize_scores(v) for name, v in raw.items()}
    ordered = [name for name, _ in RecapConfig.MODEL_KINDS]
    final_scores = recap_scores(
        [normalized[m] for m in ordered], [rmses[m] for m in ordered]
    )
    selected_lagged = top_k_columns(final_scores, config.k)
    selected_base = collapse_to_base(selected_lagged)
    final_metrics = _train_sequence_model(
        train_frame, heldout_frame, selected_base, config.lookback,
        config.rnn_arch, rnn_cfg,
    )
    baseline = None
    if config.with_baseline:
        baseline = _train_sequence_model(
            train_frame, heldout_frame, train_frame.feature_names,
            config.lookback, config.rnn_arch, rnn_cfg,
        )
    return RecapResult(
        k=config.k,
        normalized=normalized,
        model_rmses=rmses,
        per_model_selected=per_model_selected,
        final_scores=final_scores,
        selected_lagged=selected_lagged,
        selected_base=selected_base,
        final_metrics=final_metrics,
        baseline_metrics=baseline,
    )


def export_scores_csv(result: RecapResult, path) -> None:
    with open(path, "w") as fh:
        fh.write("feature,score\n")
        for name in sorted(result.final_scores,
                           key=lambda n: (-result.final_scores[n], n)):
            fh.write(f"{name},{result.final_scores[name]:.12g}\n")
