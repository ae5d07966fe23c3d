"""Two-layer stacking: enumerate all 31 nonempty subsets of the five base
models, train a small neural meta-learner per subset on their out-of-sample
predictions, and select the winner.

The meta-learner reuses the training pieces of :mod:`fxstack.recurrent`:
its min-max scaler for inputs and label, and its Adam early-stopping loop.

Selection uses the meta-validation RMSE by default; ``paper_mode`` selects on
the meta-test RMSE instead (and is flagged as selection-biased in reports).
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SplitError
from .evaluation import compute_metrics
from .market_data import SplitSpec, format_rfc3339
from .recurrent import MinMaxScaler, train_minibatch
from .seeding import derive_seed

MODEL_ORDER = ("xgboost", "lightgbm", "random_forest", "lstm", "gru")


@dataclass(frozen=True)
class MetaFrame:
    """Stacking-window frame: one prediction column per base model plus the
    actual label."""

    index: np.ndarray
    predictions: dict[str, np.ndarray]
    labels: np.ndarray


@dataclass(frozen=True)
class Combination:
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (1 <= len(self.members) <= len(MODEL_ORDER)):
            raise ParameterError("combination must have 1..5 members")
        if any(m not in MODEL_ORDER for m in self.members):
            raise ParameterError(f"unknown members in {self.members}")

    def label(self) -> str:
        return "+".join(self.members)


def build_meta_frame(
    base_predictions: dict[str, np.ndarray],
    labels: np.ndarray,
    timestamps: np.ndarray,
) -> MetaFrame:
    """Assemble the five prediction columns and the label, in fixed order."""
    if set(base_predictions) != set(MODEL_ORDER):
        raise ParameterError(
            f"expected predictions for exactly {MODEL_ORDER}, "
            f"got {sorted(base_predictions)}"
        )
    labels = np.asarray(labels, dtype=float)
    n = len(labels)
    if len(timestamps) != n:
        raise ParameterError("timestamps and labels length mismatch")
    ordered = {}
    for name in MODEL_ORDER:
        pred = np.asarray(base_predictions[name], dtype=float)
        if len(pred) != n:
            raise ParameterError(f"prediction length mismatch for {name!r}")
        if not np.isfinite(pred).all():
            raise ParameterError(f"non-finite prediction from model {name!r}")
        ordered[name] = pred
    if not np.isfinite(labels).all():
        raise ParameterError("labels must be finite")
    return MetaFrame(index=timestamps, predictions=ordered, labels=labels)


def enumerate_combinations() -> list[Combination]:
    """All 31 nonempty subsets, ordered by size then member order."""
    combos = []
    for size in range(1, len(MODEL_ORDER) + 1):
        for members in itertools.combinations(MODEL_ORDER, size):
            combos.append(Combination(members=members))
    return combos


def split_meta(
    frame: MetaFrame, spec: SplitSpec
) -> tuple[MetaFrame, MetaFrame, MetaFrame]:
    """Timestamp partition of the stacking window into train/val/test."""
    out = []
    for name, (start, end) in spec.ranges().items():
        mask = np.fromiter(
            ((start <= t < end) for t in frame.index),
            dtype=bool, count=len(frame.index),
        )
        if not mask.any():
            raise SplitError(f"meta {name} split contains no rows")
        out.append(MetaFrame(
            index=frame.index[mask],
            predictions={k: v[mask] for k, v in frame.predictions.items()},
            labels=frame.labels[mask],
        ))
    return out[0], out[1], out[2]


@dataclass
class MetaModel:
    """One-hidden-layer rectified network over min-max scaled inputs and
    a min-max scaled label."""

    members: tuple[str, ...]
    in_scaler: MinMaxScaler
    label_scaler: MinMaxScaler
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray  # shape (1,)

    def _forward_scaled(self, Xs: np.ndarray) -> np.ndarray:
        hidden = np.maximum(Xs @ self.W1 + self.b1, 0.0)
        return hidden @ self.W2 + self.b2

    def predict(self, frame: MetaFrame) -> np.ndarray:
        X = _inputs(frame, self.members)
        ys = self._forward_scaled(self.in_scaler.transform(X))
        return self.label_scaler.inverse_transform(ys)


def _inputs(frame: MetaFrame, members: tuple[str, ...]) -> np.ndarray:
    return np.column_stack([frame.predictions[m] for m in members])


@dataclass(frozen=True)
class MetaTrainConfig:
    hidden: int = 16
    learning_rate: float = 0.01
    max_epochs: int = 300
    patience: int = 30
    batch_size: int = 128


def train_meta_nn(
    meta_train: MetaFrame,
    meta_val: MetaFrame,
    combo: Combination,
    seed: int,
    cfg: MetaTrainConfig = MetaTrainConfig(),
) -> MetaModel:
    """Fit the meta network on the combo's prediction columns.

    Inputs and label are min-max scaled on meta-train; training is
    :func:`recurrent.train_minibatch` (Adam, early stopping on the
    meta-validation RMSE); one generator seeded from ``seed`` draws the
    initial weights and then each epoch's row order.
    """
    members = combo.members
    X = _inputs(meta_train, members)
    rng = np.random.default_rng(derive_seed(seed, "meta-nn", *members))
    hid = cfg.hidden
    model = MetaModel(
        members=members,
        in_scaler=MinMaxScaler.fit(X),
        label_scaler=MinMaxScaler.fit(meta_train.labels),
        W1=rng.uniform(-1, 1, size=(len(members), hid))
        * np.sqrt(6.0 / (len(members) + hid)),
        b1=np.zeros(hid),
        W2=rng.uniform(-1, 1, size=hid) * np.sqrt(6.0 / (hid + 1)),
        b2=np.zeros(1),
    )
    Xs = model.in_scaler.transform(X)
    Xvs = model.in_scaler.transform(_inputs(meta_val, members))
    ys = model.label_scaler.transform(meta_train.labels)
    yvs = model.label_scaler.transform(meta_val.labels)

    def loss_and_grads(rows: np.ndarray):
        xb, yb = Xs[rows], ys[rows]
        pre = xb @ model.W1 + model.b1
        hidden = np.maximum(pre, 0.0)
        resid = hidden @ model.W2 + model.b2 - yb
        dpred = 2.0 * resid / len(yb)
        dhidden = np.outer(dpred, model.W2) * (pre > 0)
        grads = [xb.T @ dhidden, dhidden.sum(axis=0), hidden.T @ dpred,
                 np.array([dpred.sum()])]
        return float(np.mean(resid**2)), grads

    def val_rmse() -> float:
        return float(np.sqrt(np.mean((model._forward_scaled(Xvs) - yvs) ** 2)))

    train_minibatch([model.W1, model.b1, model.W2, model.b2],
                    loss_and_grads, val_rmse, len(ys), cfg, rng)
    return model


@dataclass(frozen=True)
class CombinationResult:
    combo_id: int
    members: tuple[str, ...]
    val_rmse: float
    test_rmse: float
    test_mae: float


@dataclass(frozen=True)
class StackingReport:
    rows: list[CombinationResult]
    selected_id: int
    selection_basis: str  # "validation" | "test"
    meta_spec_ranges: dict[str, tuple[str, str]] = field(default_factory=dict)

    @property
    def selected(self) -> CombinationResult:
        return self.rows[self.selected_id]

    def to_dict(self) -> dict:
        return {
            "selection_basis": self.selection_basis,
            "selected_id": self.selected_id,
            "selected_members": list(self.selected.members),
            "rows": [
                {
                    "id": r.combo_id,
                    "members": list(r.members),
                    "val_rmse": r.val_rmse,
                    "test_rmse": r.test_rmse,
                    "test_mae": r.test_mae,
                }
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("id,rmse,mae,combination\n")
        for r in self.rows:
            out.write(
                f"{r.combo_id},{r.test_rmse:.10g},{r.test_mae:.10g},"
                f"{'+'.join(r.members)}\n"
            )
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def run_stacking_search(
    frame: MetaFrame,
    meta_spec: SplitSpec,
    seed: int,
    cfg: MetaTrainConfig = MetaTrainConfig(),
    paper_mode: bool = False,
) -> StackingReport:
    """Train all 31 meta models and select the winner.

    Default selection is the minimum meta-validation RMSE; ``paper_mode``
    selects on meta-test RMSE (selection bias; reported as such).
    """
    meta_train, meta_val, meta_test = split_meta(frame, meta_spec)
    rows: list[CombinationResult] = []
    for combo_id, combo in enumerate(enumerate_combinations()):
        model = train_meta_nn(
            meta_train, meta_val, combo,
            seed=derive_seed(seed, "stacking", combo_id), cfg=cfg,
        )
        val_metrics = compute_metrics(model.predict(meta_val), meta_val.labels)
        test_metrics = compute_metrics(model.predict(meta_test),
                                       meta_test.labels)
        rows.append(CombinationResult(
            combo_id=combo_id,
            members=combo.members,
            val_rmse=val_metrics.rmse,
            test_rmse=test_metrics.rmse,
            test_mae=test_metrics.mae,
        ))
    basis = "test" if paper_mode else "validation"
    key = (lambda r: r.test_rmse) if paper_mode else (lambda r: r.val_rmse)
    selected = min(rows, key=lambda r: (key(r), r.combo_id))
    return StackingReport(
        rows=rows,
        selected_id=selected.combo_id,
        selection_basis=basis,
        meta_spec_ranges={
            name: (format_rfc3339(start), format_rfc3339(end))
            for name, (start, end) in meta_spec.ranges().items()
        },
    )
