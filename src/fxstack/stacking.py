"""Two-layer stacking: enumerate all 31 nonempty subsets of the five base
models, train a small neural meta-learner per subset on their out-of-sample
predictions, and select the winner.

The stacking window is a ``FeatureFrame``: the five base-model prediction
columns in ``MODEL_ORDER`` plus the label column.

The meta-learners reuse the training pieces of :mod:`fxstack.recurrent`:
its min-max scaler for inputs and label, and its Adam early-stopping loop,
which :func:`train_meta_nn` runs once for all 31 nets stacked along a
leading net axis, computing only the nets that have not stopped.

The winner is the combination with the lowest meta-validation RMSE; the
meta-test rows only score it.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .evaluation import Metrics, compute_metrics
from .market_data import FeatureFrame, SplitSpec, split_by_dates
from .recurrent import MinMaxScaler, TrainConfig, train_minibatch
from .seeding import derive_seed

MODEL_ORDER = ("xgboost", "lightgbm", "random_forest", "lstm", "gru")


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


def enumerate_combinations() -> list[tuple[str, ...]]:
    """The members of all 31 nonempty subsets, ordered by size then member
    order."""
    return [members for size in range(1, len(MODEL_ORDER) + 1)
            for members in itertools.combinations(MODEL_ORDER, size)]


def split_meta(
    frame: FeatureFrame, spec: SplitSpec
) -> tuple[FeatureFrame, FeatureFrame, FeatureFrame]:
    """The stacking window's consecutive train/val/test row ranges (its
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


# the meta-nets' default width and budget, the home of the pipeline's
# meta.* defaults; their minibatch of 128 rows has no config key
META_HIDDEN = 16
META_TRAIN = TrainConfig(batch_size=128, learning_rate=0.01, max_epochs=300,
                         patience=30)


def train_meta_nn(
    meta_train: FeatureFrame,
    meta_val: FeatureFrame,
    combos: list[tuple[str, ...]],
    seeds: list[int],
    hidden: int = META_HIDDEN,
    cfg: TrainConfig = META_TRAIN,
) -> list[MetaModel]:
    """Fit one meta network of ``hidden`` units per combination, all in
    one stacked :func:`recurrent.train_minibatch` call with budget ``cfg``
    (Adam, early stopping on each net's meta-validation RMSE).

    Net k sees the prediction columns of ``combos[k]``; inputs and label are
    min-max scaled on meta-train. A generator seeded from ``seeds[k]`` draws
    the net's initial weights and then each epoch's row order. The nets
    still running step together on (nets, rows, hidden) arrays; a net that
    stops leaves them, and its passes are rebuilt over the rest. The first
    layers are one zero-filled (nets, 5, hidden) array, a net's in its first
    member-count rows; the rows past that get a zero gradient, so Adam never
    moves them. Each run of consecutive running combinations of equal size
    multiplies on its view of that array. Each slice of a stacked product
    has the shape and memory layout of a single net's 2-D product, so every
    net ends with the weights a fit of its own would give.
    """
    if len(seeds) != len(combos):
        raise ParameterError(
            f"{len(combos)} combinations but {len(seeds)} seeds")
    if hidden < 1:
        raise ParameterError("hidden must be >= 1")
    n_nets, hid = len(combos), hidden
    # per-column scaling, so each net's inputs are columns of one scaled frame
    X = meta_train.matrix(list(MODEL_ORDER))
    in_scaler = MinMaxScaler.fit(X)
    S = in_scaler.transform(X)
    Sv = in_scaler.transform(meta_val.matrix(list(MODEL_ORDER)))
    label_scaler = MinMaxScaler.fit(meta_train.label)
    ys = label_scaler.transform(meta_train.label)
    yvs = label_scaler.transform(meta_val.label)

    columns = [[MODEL_ORDER.index(m) for m in c] for c in combos]
    rngs = [np.random.default_rng(derive_seed(seed, "meta-nn", *c))
            for c, seed in zip(combos, seeds)]
    W1 = np.zeros((n_nets, len(MODEL_ORDER), hid))
    W2 = np.empty((n_nets, hid))
    for k, (rng, cols) in enumerate(zip(rngs, columns)):
        W1[k, :len(cols)] = (rng.uniform(-1, 1, size=(len(cols), hid))
                             * np.sqrt(6.0 / (len(cols) + hid)))
        W2[k] = rng.uniform(-1, 1, size=hid) * np.sqrt(6.0 / (hid + 1))
    b1, b2 = np.zeros((n_nets, hid)), np.zeros((n_nets, 1))

    def passes(running: np.ndarray, stack: list[np.ndarray]):
        """The passes over the running nets' arrays ``stack``."""
        W1, b1, W2, b2 = stack
        # runs of equal-size combinations: (their nets, (nets, width) columns)
        groups, start = [], 0
        for _, run in itertools.groupby(
                [columns[k] for k in running.tolist()], len):
            run = np.array(list(run))
            groups.append((slice(start, start + len(run)), run))
            start += len(run)
        # each run's views of the first layers and of their gradient, whose
        # rows past a net's width stay zero
        g_W1 = np.zeros_like(W1)
        W1_runs = [W1[nets, :cols.shape[1]] for nets, cols in groups]
        g_runs = [g_W1[nets, :cols.shape[1]] for nets, cols in groups]
        Xv = [np.ascontiguousarray(Sv[:, cols].transpose(1, 0, 2))
              for _, cols in groups]

        def forward(inputs: list[np.ndarray], y: np.ndarray):
            """The hidden layer, in a new (nets, rows, hidden) buffer, and
            the residuals against ``y``."""
            hidden = np.empty((len(running), y.shape[-1], hid))
            for (nets, _), x, w in zip(groups, inputs, W1_runs):
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
            dhidden = np.multiply(dpred[:, :, None], W2[:, None, :],
                                  out=hidden)
            dhidden *= active
            for (nets, _), x, g in zip(groups, xb, g_runs):
                np.matmul(x.transpose(0, 2, 1), dhidden[nets], out=g)
            return np.mean(resid**2, axis=1), [
                g_W1, dhidden.sum(axis=1), g_W2, dpred.sum(axis=1)]

        def val_rmse() -> np.ndarray:
            _, resid = forward(Xv, yvs)
            return np.sqrt(np.mean(resid**2, axis=1))

        return loss_and_grads, val_rmse

    train_minibatch([W1, b1, W2, b2], passes, len(ys), cfg, rngs)
    return [
        MetaModel(members=c,
                  in_scaler=MinMaxScaler(mins=in_scaler.mins[cols],
                                         maxs=in_scaler.maxs[cols]),
                  label_scaler=label_scaler,
                  W1=W1[k, :len(cols)], b1=b1[k], W2=W2[k], b2=b2[k])
        for k, (c, cols) in enumerate(zip(combos, columns))
    ]


@dataclass(frozen=True)
class CombinationResult:
    """One combination's meta-model scored on meta-validation (``val``,
    which selects) and on meta-test (``test``, which only reports)."""

    combo_id: int
    members: tuple[str, ...]
    val: Metrics
    test: Metrics


@dataclass(frozen=True)
class StackingReport:
    rows: list[CombinationResult]
    selected_id: int

    @property
    def selected(self) -> CombinationResult:
        return self.rows[self.selected_id]

    def to_dict(self) -> dict:
        return {
            "selected_id": self.selected_id,
            "selected_members": list(self.selected.members),
            "rows": [
                {
                    "id": r.combo_id,
                    "members": list(r.members),
                    "val_rmse": r.val.rmse,
                    "test_rmse": r.test.rmse,
                    "test_mae": r.test.mae,
                }
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("id,rmse,mae,combination\n")
        for r in self.rows:
            out.write(
                f"{r.combo_id},{r.test.rmse:.10g},{r.test.mae:.10g},"
                f"{'+'.join(r.members)}\n"
            )
        return out.getvalue()


def run_stacking_search(
    frame: FeatureFrame,
    meta_spec: SplitSpec,
    seed: int,
    hidden: int = META_HIDDEN,
    cfg: TrainConfig = META_TRAIN,
) -> StackingReport:
    """Train all 31 meta models of ``hidden`` units with budget ``cfg``,
    score each on meta-validation and meta-test, and select the one with
    the minimum meta-validation RMSE (ties go to the lower combination
    id)."""
    meta_train, meta_val, meta_test = split_meta(frame, meta_spec)
    combos = enumerate_combinations()
    models = train_meta_nn(
        meta_train, meta_val, combos,
        [derive_seed(seed, "stacking", combo_id)
         for combo_id in range(len(combos))],
        hidden, cfg,
    )
    rows = [
        CombinationResult(
            combo_id=combo_id, members=combo,
            val=compute_metrics(model.predict(meta_val), meta_val.label),
            test=compute_metrics(model.predict(meta_test), meta_test.label))
        for combo_id, (combo, model) in enumerate(zip(combos, models))
    ]
    selected = min(rows, key=lambda r: (r.val.rmse, r.combo_id))
    return StackingReport(rows=rows, selected_id=selected.combo_id)
