"""Importance-recap feature selection.

Three tree models score the lagged feature columns of the train range
(boosted gain, forest impurity decrease, histogram-boosted split count),
each as a float array in the windowed ``feature_names`` order. A sequence
model (a GRU by default) is trained on each model's top-k columns, collapsed
to base features, and its held-out RMSE weights that model. The fused score
per column is the sum over models of its min-max normalized importance
divided by that model's RMSE; the final top-k lagged columns (collapsed to
base features) feed the final sequence model.

``IMPORTANCE_MODELS`` is the one table of the three tree models, in the
order their scores are fused: each entry's name, importance kind and fit,
with the budget and seed of :class:`RecapConfig`. The sequence model stops
early on the held-out range it is scored on.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .evaluation import Metrics, compute_metrics
from .market_data import FeatureFrame, SplitSpec, split_by_dates, to_sequences, to_windowed
from .recurrent import (MinMaxScaler, RnnArch, TrainConfig, apply_scaler,
                        fit_scaler, predict_rnn, train_rnn)
from .seeding import derive_seed
from .trees import (BoostParams, ForestParams, fit_random_forest, importance,
                    newton_boost_fit)

_LAGGED_NAME = re.compile(r"^(?P<base>.+?)\(t(?:-(?P<lag>\d+))?\)$")


def recap_scores(
    norm_scores: list[np.ndarray], rmses: list[float]
) -> np.ndarray:
    """Fused score: final(f) = sum over models of norm_m(f) / rmse_m, added
    model by model in the order given."""
    if len(norm_scores) != len(rmses):
        raise ParameterError("need one RMSE per importance vector")
    if any(r <= 0 for r in rmses):
        raise ParameterError("RMSEs must be > 0")
    final = np.zeros(len(norm_scores[0]))
    for norm, rmse in zip(norm_scores, rmses):
        final += norm / rmse
    return final


def top_k_columns(names: list[str], scores, k: int) -> list[str]:
    """The k names of highest score; ties break lexicographically by name."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    ranked = sorted(zip(names, scores), key=lambda item: (-item[1], item[0]))
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
    normalized: dict[str, np.ndarray]
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


# the tree models in Eq-order (boost, forest, histogram): name, importance
# kind, and fit(windowed, config) with the model's budget and seed
IMPORTANCE_MODELS = (
    ("xgboost", "gain", lambda windowed, config: newton_boost_fit(
        windowed.X, windowed.y, config.boost_params,
        feature_names=windowed.feature_names,
        seed=derive_seed(config.seed, "recap-xgb"))),
    ("random_forest", "impurity_decrease",
     lambda windowed, config: fit_random_forest(
         windowed.X, windowed.y,
         dataclasses.replace(config.forest_params,
                             seed=derive_seed(config.seed, "recap-rf")),
         feature_names=windowed.feature_names)),
    ("lightgbm", "split_count", lambda windowed, config: newton_boost_fit(
        windowed.X, windowed.y, config.hist_params,
        feature_names=windowed.feature_names,
        seed=derive_seed(config.seed, "recap-lgbm"))),
)


def run_recap(
    frame: FeatureFrame,
    spec: SplitSpec,
    config: RecapConfig,
) -> RecapResult:
    """Full recap procedure on a cleaned, labeled frame.

    The tree and sequence models fit on ``spec.train``; ``spec.validation``
    is the held-out range of the per-model RMSEs and the final evaluation.
    Nothing it computes depends on a row of ``spec.test``.
    """
    train_frame, heldout_frame, _ = split_by_dates(frame, spec)
    windowed = to_windowed(train_frame, config.lookback)
    rnn_cfg = dataclasses.replace(
        config.rnn_cfg, seed=derive_seed(config.seed, "recap-rnn")
    )

    def sequence_metrics(base_features: list[str]) -> Metrics:
        """Held-out metrics of ``config.rnn_arch`` on ``base_features``: it
        stops early on the held-out range and is scored on it."""
        lookback = config.lookback
        train_seq = to_sequences(train_frame.select(base_features), lookback)
        held_seq = to_sequences(heldout_frame.select(base_features), lookback)
        scaler = fit_scaler(train_seq)
        model, _ = train_rnn(apply_scaler(scaler, train_seq),
                             apply_scaler(scaler, held_seq), config.rnn_arch,
                             rnn_cfg, scaler)
        return compute_metrics(predict_rnn(model, held_seq), held_seq.y)

    names = windowed.feature_names
    normalized: dict[str, np.ndarray] = {}
    rmses: dict[str, float] = {}
    per_model_selected: dict[str, list[str]] = {}
    for name, kind, fit in IMPORTANCE_MODELS:
        scores = importance(fit(windowed, config), kind)
        per_model_selected[name] = top_k_columns(names, scores, config.k)
        rmses[name] = sequence_metrics(
            collapse_to_base(per_model_selected[name])).rmse
        normalized[name] = MinMaxScaler.fit(scores).transform(scores)
    fused = recap_scores(list(normalized.values()), list(rmses.values()))
    final_scores = dict(zip(names, fused.tolist()))
    selected_lagged = top_k_columns(names, fused, config.k)
    selected_base = collapse_to_base(selected_lagged)
    final_metrics = sequence_metrics(selected_base)
    baseline = (sequence_metrics(train_frame.feature_names)
                if config.with_baseline else None)
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
        scores = result.final_scores
        for name in top_k_columns(list(scores), list(scores.values()),
                                  len(scores)):
            fh.write(f"{name},{scores[name]:.12g}\n")
