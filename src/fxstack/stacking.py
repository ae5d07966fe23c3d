"""Two-layer stacking: enumerate all 31 nonempty subsets of the five base
models, train a small neural meta-learner per subset on their out-of-sample
predictions, and select the winner.

The stacking window is a ``FeatureFrame``: the five base-model prediction
columns in ``MODEL_ORDER`` plus the label column.

The meta-learners reuse the training pieces of :mod:`fxstack.recurrent`:
its min-max scaler for inputs and label, and its Adam early-stopping loop,
which :func:`train_meta_nn` runs once for all 31 nets stacked along a
leading net axis.

Selection uses the meta-validation RMSE by default; ``paper_mode`` selects on
the meta-test RMSE instead (and is flagged as selection-biased in reports).
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .evaluation import compute_metrics
from .market_data import FeatureFrame, SplitSpec, split_by_dates
from .recurrent import MinMaxScaler, train_minibatch
from .seeding import derive_seed

MODEL_ORDER = ("xgboost", "lightgbm", "random_forest", "lstm", "gru")


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
) -> FeatureFrame:
    """Assemble the five prediction columns, in ``MODEL_ORDER``, and the
    label column."""
    if set(base_predictions) != set(MODEL_ORDER):
        raise ParameterError(
            f"expected predictions for exactly {MODEL_ORDER}, "
            f"got {sorted(base_predictions)}"
        )
    labels = np.asarray(labels, dtype=float)
    n = len(labels)
    if len(timestamps) != n:
        raise ParameterError("timestamps and labels length mismatch")
    columns = {}
    for name in MODEL_ORDER:
        pred = np.asarray(base_predictions[name], dtype=float)
        if len(pred) != n:
            raise ParameterError(f"prediction length mismatch for {name!r}")
        if not np.isfinite(pred).all():
            raise ParameterError(f"non-finite prediction from model {name!r}")
        columns[name] = pred
    if not np.isfinite(labels).all():
        raise ParameterError("labels must be finite")
    columns["label"] = labels
    return FeatureFrame(index=timestamps, columns=columns, label_name="label")


def enumerate_combinations() -> list[Combination]:
    """All 31 nonempty subsets, ordered by size then member order."""
    combos = []
    for size in range(1, len(MODEL_ORDER) + 1):
        for members in itertools.combinations(MODEL_ORDER, size):
            combos.append(Combination(members=members))
    return combos


def split_meta(
    frame: FeatureFrame, spec: SplitSpec
) -> tuple[FeatureFrame, FeatureFrame, FeatureFrame]:
    """Timestamp partition of the stacking window into train/val/test (its
    own name so that the benchmark tracer can time the meta split)."""
    return split_by_dates(frame, spec)


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

    def predict(self, frame: FeatureFrame) -> np.ndarray:
        X = frame.matrix(list(self.members))
        ys = self._forward_scaled(self.in_scaler.transform(X))
        return self.label_scaler.inverse_transform(ys)


@dataclass(frozen=True)
class MetaTrainConfig:
    hidden: int = 16
    learning_rate: float = 0.01
    max_epochs: int = 300
    patience: int = 30
    batch_size: int = 128


def train_meta_nn(
    meta_train: FeatureFrame,
    meta_val: FeatureFrame,
    combos: list[Combination],
    seeds: list[int],
    cfg: MetaTrainConfig = MetaTrainConfig(),
) -> list[MetaModel]:
    """Fit one meta network per combination, all in one stacked
    :func:`recurrent.train_minibatch` call (Adam, early stopping on each
    net's meta-validation RMSE).

    Net k sees the prediction columns of ``combos[k]``; inputs and label are
    min-max scaled on meta-train. A generator seeded from ``seeds[k]`` draws
    the net's initial weights and then each epoch's row order. The nets step
    together on (nets, rows, hidden) arrays. Only the first layer, whose
    width is the member count, is multiplied once per run of consecutive
    combinations of equal size. Each slice of a stacked product has the shape
    and memory layout of a single net's 2-D product, so every net ends with
    the weights a fit of its own would give.
    """
    if len(seeds) != len(combos):
        raise ParameterError(
            f"{len(combos)} combinations but {len(seeds)} seeds")
    n_nets, hid = len(combos), cfg.hidden
    # per-column scaling, so each net's inputs are columns of one scaled frame
    X = meta_train.matrix(list(MODEL_ORDER))
    in_scaler = MinMaxScaler.fit(X)
    S = in_scaler.transform(X)
    Sv = in_scaler.transform(meta_val.matrix(list(MODEL_ORDER)))
    label_scaler = MinMaxScaler.fit(meta_train.label)
    ys = label_scaler.transform(meta_train.label)
    yvs = label_scaler.transform(meta_val.label)

    columns = [[MODEL_ORDER.index(m) for m in c.members] for c in combos]
    rngs = [np.random.default_rng(derive_seed(seed, "meta-nn", *c.members))
            for c, seed in zip(combos, seeds)]
    W1_init, W2 = [], np.empty((n_nets, hid))
    for k, (rng, cols) in enumerate(zip(rngs, columns)):
        W1_init.append(rng.uniform(-1, 1, size=(len(cols), hid))
                       * np.sqrt(6.0 / (len(cols) + hid)))
        W2[k] = rng.uniform(-1, 1, size=hid) * np.sqrt(6.0 / (hid + 1))
    b1, b2 = np.zeros((n_nets, hid)), np.zeros((n_nets, 1))
    # runs of equal-size combinations: (their nets, (nets, width) columns)
    groups = []
    for _, run in itertools.groupby(range(n_nets),
                                    key=lambda k: len(columns[k])):
        run = list(run)
        groups.append((slice(run[0], run[-1] + 1),
                       np.array([columns[k] for k in run])))
    W1 = [np.stack(W1_init[nets]) for nets, _ in groups]
    Xv = [np.ascontiguousarray(Sv[:, cols].transpose(1, 0, 2))
          for _, cols in groups]

    def forward(inputs: list[np.ndarray], y: np.ndarray):
        """The hidden layer, in a new (nets, rows, hidden) buffer, and the
        residuals against ``y``."""
        hidden = np.empty((n_nets, y.shape[-1], hid))
        for (nets, _), x, w in zip(groups, inputs, W1):
            np.matmul(x, w, out=hidden[nets])
        hidden += b1[:, None, :]
        np.maximum(hidden, 0.0, out=hidden)
        resid = (hidden @ W2[:, :, None])[:, :, 0]
        resid += b2
        resid -= y
        return hidden, resid

    def loss_and_grads(rows: np.ndarray):
        xb = [S[rows[nets][:, :, None], cols[:, None, :]]
              for nets, cols in groups]
        hidden, resid = forward(xb, ys[rows])
        dpred = 2.0 * resid / rows.shape[1]
        g_W2 = hidden.transpose(0, 2, 1) @ dpred[:, :, None]
        # the hidden gradient overwrites the hidden layer
        active = hidden > 0
        dhidden = np.multiply(dpred[:, :, None], W2[:, None, :], out=hidden)
        dhidden *= active
        grads = [x.transpose(0, 2, 1) @ dhidden[nets]
                 for (nets, _), x in zip(groups, xb)]
        grads += [dhidden.sum(axis=1), g_W2, dpred.sum(axis=1)]
        return np.mean(resid**2, axis=1), grads

    def val_rmse() -> np.ndarray:
        _, resid = forward(Xv, yvs)
        return np.sqrt(np.mean(resid**2, axis=1))

    train_minibatch(W1 + [b1, W2, b2], loss_and_grads, val_rmse, len(ys),
                    cfg, rngs, owners=[nets for nets, _ in groups]
                    + [slice(None)] * 3)
    W1_nets = [w for group in W1 for w in group]
    return [
        MetaModel(members=c.members,
                  in_scaler=MinMaxScaler(mins=in_scaler.mins[cols],
                                         maxs=in_scaler.maxs[cols]),
                  label_scaler=label_scaler,
                  W1=W1_nets[k], b1=b1[k], W2=W2[k], b2=b2[k])
        for k, (c, cols) in enumerate(zip(combos, columns))
    ]


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
    frame: FeatureFrame,
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
    combos = enumerate_combinations()
    models = train_meta_nn(
        meta_train, meta_val, combos,
        [derive_seed(seed, "stacking", combo_id)
         for combo_id in range(len(combos))],
        cfg=cfg,
    )
    rows: list[CombinationResult] = []
    for combo_id, (combo, model) in enumerate(zip(combos, models)):
        val_metrics = compute_metrics(model.predict(meta_val), meta_val.label)
        test_metrics = compute_metrics(model.predict(meta_test),
                                       meta_test.label)
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
    )
