"""GRU and LSTM sequence regressors trained with full backpropagation
through time, plus the training pieces shared with the stacking meta-net:
the min-max scaler (:class:`MinMaxScaler`), the optimiser (:class:`Adam`)
and the minibatch early-stopping loop (:func:`train_minibatch`).

The GRU uses the convention where the update gate multiplies the OLD state:
h = z * h_prev + (1 - z) * h_tilde. The LSTM is the standard three-gate
formulation. Everything is double-precision numpy; the tests check the
gradients against central finite differences.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, TrainingError
from .market_data import SequenceDataset
from .seeding import derive_seed
from .trees import _numbers, _require


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot-uniform draws; fan-out and fan-in are the last two axes."""
    limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def _gru_forward(W: np.ndarray, U: np.ndarray, b: np.ndarray, X: np.ndarray):
    """Batched forward over X (batch, time, features); returns (h_T, caches)."""
    batch, steps, _ = X.shape
    W_z, W_r, W_h = W
    U_z, U_r, U_h = U
    b_z, b_r, b_h = b
    h = np.zeros((batch, W.shape[1]))
    caches = []
    for t in range(steps):
        x = X[:, t, :]
        z = _sigmoid(x @ W_z.T + h @ U_z.T + b_z)
        r = _sigmoid(x @ W_r.T + h @ U_r.T + b_r)
        uh = h @ U_h.T
        h_tilde = np.tanh(x @ W_h.T + r * uh + b_h)
        h_new = z * h + (1.0 - z) * h_tilde
        caches.append((x, h, z, r, uh, h_tilde))
        h = h_new
    return h, caches


def _gru_backward(W: np.ndarray, U: np.ndarray, b: np.ndarray, caches,
                  dh: np.ndarray) -> list[np.ndarray]:
    """Gradients of ``W``, ``U`` and ``b`` given dh, the gradient of h_T."""
    U_z, U_r, U_h = U
    grads = [np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)]
    per_gate = tuple(zip(*grads))
    for x, h_prev, z, r, uh, h_tilde in reversed(caches):
        dz = dh * (h_prev - h_tilde)
        dht = dh * (1.0 - z)
        dh_prev = dh * z
        daz = dz * z * (1.0 - z)
        dah = dht * (1.0 - h_tilde**2)
        dar = (dah * uh) * r * (1.0 - r)
        duh = dah * r
        # the candidate's recurrent term is gated by r, so its U gradient
        # takes duh where the other two gates take their pre-activation's
        for (gW, gU, gb), da, du in zip(per_gate, (daz, dar, dah),
                                        (daz, dar, duh)):
            gW += da.T @ x
            gU += du.T @ h_prev
            gb += da.sum(axis=0)
        dh = dh_prev + daz @ U_z + dar @ U_r + duh @ U_h
    return grads


def _lstm_forward(W: np.ndarray, U: np.ndarray, b: np.ndarray, X: np.ndarray):
    batch, steps, _ = X.shape
    W_i, W_f, W_o, W_c = W
    U_i, U_f, U_o, U_c = U
    b_i, b_f, b_o, b_c = b
    h = np.zeros((batch, W.shape[1]))
    c = np.zeros((batch, W.shape[1]))
    caches = []
    for t in range(steps):
        x = X[:, t, :]
        i = _sigmoid(x @ W_i.T + h @ U_i.T + b_i)
        f = _sigmoid(x @ W_f.T + h @ U_f.T + b_f)
        o = _sigmoid(x @ W_o.T + h @ U_o.T + b_o)
        c_tilde = np.tanh(x @ W_c.T + h @ U_c.T + b_c)
        c_new = f * c + i * c_tilde
        h_new = o * np.tanh(c_new)
        caches.append((x, h, c, i, f, o, c_tilde, c_new))
        h, c = h_new, c_new
    return h, caches


def _lstm_backward(W: np.ndarray, U: np.ndarray, b: np.ndarray, caches,
                   dh: np.ndarray) -> list[np.ndarray]:
    U_i, U_f, U_o, U_c = U
    grads = [np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)]
    per_gate = tuple(zip(*grads))
    dc = np.zeros_like(dh)
    for x, h_prev, c_prev, i, f, o, c_tilde, c_new in reversed(caches):
        tc = np.tanh(c_new)
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc**2)
        di = dc * c_tilde
        df = dc * c_prev
        dct = dc * i
        dc_prev = dc * f
        dai = di * i * (1.0 - i)
        daf = df * f * (1.0 - f)
        dao = do * o * (1.0 - o)
        dac = dct * (1.0 - c_tilde**2)
        for (gW, gU, gb), da in zip(per_gate, (dai, daf, dao, dac)):
            gW += da.T @ x
            gU += da.T @ h_prev
            gb += da.sum(axis=0)
        dh = dai @ U_i + daf @ U_f + dao @ U_o + dac @ U_c
        dc = dc_prev
    return grads


# cell -> (gates, forward, backward)
_CELLS = {
    "gru": (3, _gru_forward, _gru_backward),
    "lstm": (4, _lstm_forward, _lstm_backward),
}


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-column min-max learned from the training split only.

    Transform maps the training range into [0, 1]; constant columns map to
    0.5 and invert to their value; out-of-range values are NOT clipped.
    """

    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "MinMaxScaler":
        return cls(mins=X.min(axis=0), maxs=X.max(axis=0))

    def transform(self, X: np.ndarray) -> np.ndarray:
        span = self.maxs - self.mins
        constant = span == 0
        return np.where(constant, 0.5,
                        (X - self.mins) / np.where(constant, 1.0, span))

    def inverse_transform(self, Xs: np.ndarray) -> np.ndarray:
        span = self.maxs - self.mins
        return np.where(span == 0, self.mins, Xs * span + self.mins)


def fit_scaler(train: SequenceDataset) -> MinMaxScaler:
    if train.X.size == 0:
        raise ParameterError("training dataset is empty")
    return MinMaxScaler.fit(train.X.reshape(-1, train.X.shape[-1]))


def apply_scaler(scaler: MinMaxScaler, data: SequenceDataset) -> SequenceDataset:
    return replace(data, X=scaler.transform(data.X))


# --- shared training ---------------------------------------------------------


class Adam:
    """Adam (Kingma & Ba, 2015) updating a fixed list of arrays in place.

    The moments of all arrays live in one flat vector each, so a step is one
    pass of elementwise ufuncs over the concatenated gradients; every element
    sees the same operations in the same order as a per-array update.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[np.ndarray], learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self._slices = []  # each array's part of the flat vectors
        size = 0
        for p in params:
            self._slices.append(slice(size, size + p.size))
            size += p.size
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._step = np.empty(size)
        self._frozen = None
        self.t = 0

    def freeze(self, frozen: np.ndarray) -> None:
        """Hold the elements flagged in ``frozen`` (one flag per element of
        the flat vector, arrays in ``params`` order) where they are: their
        moments restart at zero and their gradients are replaced by zero, so
        every later step moves them by exactly zero. Each call replaces the
        previous set."""
        self.m[frozen] = 0.0
        self.v[frozen] = 0.0
        self._frozen = frozen

    def step(self, grads: list[np.ndarray]) -> None:
        b1, b2 = self.BETA1, self.BETA2
        self.t += 1
        g = np.concatenate([grad.ravel() for grad in grads])
        if self._frozen is not None:
            g[self._frozen] = 0.0
        m, v, step = self.m, self.v, self._step
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g**2
        m *= b1
        m += np.multiply(1 - b1, g, out=step)
        v *= b2
        g *= g
        g *= 1 - b2
        v += g
        # step = lr * m_hat / (sqrt(v_hat) + eps)
        denom = np.divide(v, 1 - b2**self.t, out=g)
        np.sqrt(denom, out=denom)
        denom += self.EPS
        np.divide(m, 1 - b1**self.t, out=step)
        step *= self.learning_rate
        step /= denom
        for p, part in zip(self.params, self._slices):
            p -= step[part].reshape(p.shape)


def train_minibatch(
    params: list[np.ndarray],
    loss_and_grads: Callable[[np.ndarray],
                             tuple[np.ndarray, list[np.ndarray]]],
    val_rmse: Callable[[], np.ndarray],
    n_rows: int,
    cfg,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Minibatch Adam with early stopping for K = ``len(rngs)`` independent
    models trained side by side on the same ``n_rows`` training rows.

    Every array in ``params`` (updated in place) has a leading model axis of
    length K, entry k belonging to model k. ``loss_and_grads(rows)`` takes
    a (K, batch) array whose row k is model k's minibatch and returns the K
    mean losses and one gradient per array, shaped like it; ``val_rmse()``
    returns the K validation scores of the current parameters. ``cfg`` has
    ``batch_size``, ``learning_rate``, ``max_epochs`` and ``patience``.

    Each model draws its epoch's row order from its own ``rngs[k]`` and keeps
    its own best-validation copy and patience count. It stops after more than
    ``patience`` epochs without improvement: from then on Adam holds it still
    (:meth:`Adam.freeze`) and its losses and scores are not read. The loop
    ends once every model has stopped, or after ``max_epochs``, and leaves
    every model at its best-validation values. A non-finite loss or score of
    a model that has not stopped raises :class:`TrainingError`.

    Returns two (epochs run, K) arrays, NaN after a model stopped: the train
    losses, each the row-weighted mean of that epoch's minibatch losses taken
    at the weights before their steps, and the scores.
    """
    K = len(rngs)
    opt = Adam(params, cfg.learning_rate)
    best = [p.copy() for p in params]
    best_val = np.full(K, np.inf)
    bad_epochs = np.zeros(K, dtype=int)
    running = np.ones(K, dtype=bool)
    perm = np.empty((K, n_rows), dtype=np.intp)
    losses = np.full((cfg.max_epochs, K), np.nan)
    scores = np.full((cfg.max_epochs, K), np.nan)
    epochs_run = 0
    for epoch in range(cfg.max_epochs):
        for k in np.flatnonzero(running):
            perm[k] = rngs[k].permutation(n_rows)
        total = np.zeros(K)
        for start in range(0, n_rows, cfg.batch_size):
            rows = perm[:, start:start + cfg.batch_size]
            loss, grads = loss_and_grads(rows)
            loss = np.where(running, loss, 0.0)
            if not np.isfinite(loss).all():
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            total += loss * rows.shape[1]
            opt.step(grads)
        val = np.where(running, val_rmse(), np.inf)
        if not np.isfinite(val[running]).all():
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        losses[epoch, running] = total[running] / n_rows
        scores[epoch, running] = val[running]
        epochs_run = epoch + 1
        improved = val < best_val
        best_val[improved] = val[improved]
        for p, saved in zip(params, best):
            np.copyto(saved, p, where=improved.reshape(
                (K,) + (1,) * (p.ndim - 1)))
        bad_epochs[improved] = 0
        bad_epochs[running & ~improved] += 1
        stopping = running & (bad_epochs > cfg.patience)
        if stopping.any():
            running &= ~stopping
            if not running.any():
                break
            opt.freeze(np.concatenate([np.repeat(~running, p.size // K)
                                       for p in params]))
    for p, saved in zip(params, best):
        p[...] = saved
    return losses[:epochs_run], scores[:epochs_run]


# --- recurrent regressor -----------------------------------------------------


@dataclass(frozen=True)
class RnnArch:
    cell: str = "gru"  # "gru" | "lstm"
    hidden_size: int = 32

    def __post_init__(self) -> None:
        if not isinstance(self.cell, str) or self.cell not in _CELLS:
            raise ParameterError(f"unknown cell {self.cell!r}")
        if self.hidden_size < 1:
            raise ParameterError("hidden_size must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    learning_rate: float = 1e-5
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if not (self.learning_rate > 0):
            raise ParameterError("learning_rate must be > 0")


@dataclass
class RnnRegressor:
    """A recurrent cell with a linear scalar head, and the two min-max
    scalers learned from the training split: ``in_scaler`` per input
    feature, ``label_scaler`` for the label.

    The cell's weights are stacked by gate: ``W`` (G, H, F), ``U`` (G, H, H)
    and ``b`` (G, H). The GRU has G = 3 (gates z, r, h), the LSTM G = 4
    (gates i, f, o, c). Each ``W[g]`` and ``U[g]`` is a contiguous block, so
    every gate keeps its own matrix products."""

    arch: RnnArch
    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray  # shape (1,)
    in_scaler: MinMaxScaler
    label_scaler: MinMaxScaler

    def _forward(self, X: np.ndarray):
        _, forward, _ = _CELLS[self.arch.cell]
        return forward(self.W, self.U, self.b, X)

    def params(self) -> list[np.ndarray]:
        """The trainable arrays, in gradient order."""
        return [self.W, self.U, self.b, self.head_w, self.head_b]


@dataclass(frozen=True)
class EpochRecord:
    """One training epoch in label units. ``train_rmse`` is the root of the
    row-weighted mean of the epoch's minibatch losses, each taken at the
    weights before its Adam step, so it lags the weights ``val_rmse`` scores
    (the validation split, after the epoch's last step)."""

    epoch: int
    train_rmse: float
    val_rmse: float


def _loss_and_grads(model: RnnRegressor, X: np.ndarray, y: np.ndarray):
    """Mean squared error and gradients for one batch (scaled label space)."""
    h_T, caches = model._forward(X)
    pred = h_T @ model.head_w + model.head_b
    resid = pred - y
    loss = float(np.mean(resid**2))
    dpred = 2.0 * resid / len(y)
    g_head_w = h_T.T @ dpred
    g_head_b = np.array([dpred.sum()])
    dh = np.outer(dpred, model.head_w)
    _, _, backward = _CELLS[model.arch.cell]
    return loss, [*backward(model.W, model.U, model.b, caches, dh),
                  g_head_w, g_head_b]


def _build_model(arch: RnnArch, in_scaler: MinMaxScaler,
                 label_scaler: MinMaxScaler, seed: int) -> RnnRegressor:
    """Glorot cell and head weights, one input per ``in_scaler`` column."""
    rng = np.random.default_rng(derive_seed(seed, "rnn-init", arch.cell))
    gates, _, _ = _CELLS[arch.cell]
    H, F = arch.hidden_size, len(in_scaler.mins)
    return RnnRegressor(
        arch=arch, W=_glorot(rng, (gates, H, F)),
        U=_glorot(rng, (gates, H, H)), b=np.zeros((gates, H)),
        head_w=_glorot(rng, (H, 1))[:, 0], head_b=np.zeros(1),
        in_scaler=in_scaler, label_scaler=label_scaler)


def _predict_scaled(model: RnnRegressor, X: np.ndarray) -> np.ndarray:
    h_T, _ = model._forward(X)
    return h_T @ model.head_w + model.head_b


def train_rnn(
    train: SequenceDataset,
    val: SequenceDataset,
    arch: RnnArch,
    cfg: TrainConfig,
    in_scaler: MinMaxScaler,
) -> tuple[RnnRegressor, list[EpochRecord]]:
    """Minimize MSE by full BPTT over the lookback window.

    Inputs must already be scaled with ``in_scaler``, which the model keeps
    so that :func:`predict_rnn` takes raw windows. The label is min-max
    scaled internally from the training split and predictions are returned
    in label units. Trains with :func:`train_minibatch` and returns the
    best-validation weights plus one :class:`EpochRecord` per epoch run.
    The training RMSE comes from the minibatch losses, so no epoch runs a
    forward pass over the whole training split.
    """
    if train.X.ndim != 3 or val.X.ndim != 3:
        raise ParameterError("expected sequence datasets (rows x lookback x F)")
    if not train.X.shape[2] == val.X.shape[2] == len(in_scaler.mins):
        raise ParameterError("train/val/in_scaler feature counts differ")
    label_scaler = MinMaxScaler.fit(train.y)
    model = _build_model(arch, in_scaler, label_scaler, cfg.seed)
    y_train = label_scaler.transform(train.y)
    y_val = label_scaler.transform(val.y)
    span = float(label_scaler.maxs - label_scaler.mins) or 1.0

    # one model: train_minibatch sees each array through a view with a
    # model axis of length 1, and one row of minibatch indices
    def loss_and_grads(rows: np.ndarray):
        loss, grads = _loss_and_grads(model, train.X[rows[0]],
                                      y_train[rows[0]])
        return np.array([loss]), grads

    def val_rmse() -> np.ndarray:
        return np.array([float(np.sqrt(np.mean(
            (_predict_scaled(model, val.X) - y_val) ** 2))) * span])

    losses, scores = train_minibatch(
        [p[None] for p in model.params()], loss_and_grads, val_rmse,
        train.X.shape[0], cfg,
        [np.random.default_rng(derive_seed(cfg.seed, "rnn-batches"))],
    )
    return model, [EpochRecord(epoch=k, train_rmse=math.sqrt(loss) * span,
                               val_rmse=val)
                   for k, (loss, val) in enumerate(zip(losses[:, 0].tolist(),
                                                       scores[:, 0].tolist()))]


def predict_rnn(model: RnnRegressor, data: SequenceDataset) -> np.ndarray:
    """One scalar per window of raw features, in label units; the windows
    go through ``model.in_scaler`` first."""
    if data.X.ndim != 3 or data.X.shape[2] != model.W.shape[2]:
        raise ParameterError("dataset shape does not match model input size")
    return model.label_scaler.inverse_transform(
        _predict_scaled(model, model.in_scaler.transform(data.X)))


# --- serialization -----------------------------------------------------------

RNN_FORMAT_VERSION = 3
_RNN_KEYS = ("cell", "hidden_size", "W", "U", "b", "head_w", "head_b",
             "in_min", "in_max", "label_min", "label_max")


def rnn_to_dict(model: RnnRegressor) -> dict:
    return {
        "version": RNN_FORMAT_VERSION,
        "cell": model.arch.cell,
        "hidden_size": model.arch.hidden_size,
        "W": model.W.tolist(),
        "U": model.U.tolist(),
        "b": model.b.tolist(),
        "head_w": model.head_w.tolist(),
        "head_b": float(model.head_b[0]),
        "in_min": model.in_scaler.mins.tolist(),
        "in_max": model.in_scaler.maxs.tolist(),
        "label_min": float(model.label_scaler.mins),
        "label_max": float(model.label_scaler.maxs),
    }


def rnn_from_dict(data: dict) -> RnnRegressor:
    """Rebuild a model from :func:`rnn_to_dict` output. Another version, a
    missing key, a value that is not a finite JSON number (a bool, a string,
    null, NaN or an infinity) or an array shape that does not fit the cell's
    gate count, ``hidden_size`` and feature count raises
    :class:`ParameterError`."""
    if not isinstance(data, dict):
        raise ParameterError("rnn payload must be a JSON object")
    if data.get("version") != RNN_FORMAT_VERSION:
        raise ParameterError(f"unsupported rnn version {data.get('version')!r}")
    _require(data, _RNN_KEYS, "rnn")
    hidden = data["hidden_size"]
    if not isinstance(hidden, int) or isinstance(hidden, bool):
        raise ParameterError(f"rnn hidden_size must be an integer, got {hidden!r}")
    arch = RnnArch(cell=data["cell"], hidden_size=hidden)
    W, U, b, head_w, in_min, in_max = (
        _numbers(data[k], f"rnn {k}", ndim=ndim)
        for k, ndim in (("W", 3), ("U", 3), ("b", 2), ("head_w", 1),
                        ("in_min", 1), ("in_max", 1)))
    head_b, label_min, label_max = _numbers(
        [data[k] for k in ("head_b", "label_min", "label_max")],
        "rnn head_b, label_min and label_max").tolist()
    if W.ndim != 3 or W.shape[2] < 1:
        raise ParameterError(f"rnn W has shape {W.shape}, needs "
                             "(gates, hidden_size, features >= 1)")
    gates, _, _ = _CELLS[arch.cell]
    features = W.shape[2]
    for name, array, shape in (
            ("W", W, (gates, hidden, features)),
            ("U", U, (gates, hidden, hidden)),
            ("b", b, (gates, hidden)),
            ("head_w", head_w, (hidden,)),
            ("in_min", in_min, (features,)),
            ("in_max", in_max, (features,))):
        if array.shape != shape:
            raise ParameterError(
                f"rnn {name} has shape {array.shape}, a {arch.cell} with "
                f"hidden_size {hidden} and {features} features needs {shape}")
    return RnnRegressor(
        arch=arch, W=W, U=U, b=b, head_w=head_w, head_b=np.array([head_b]),
        in_scaler=MinMaxScaler(mins=in_min, maxs=in_max),
        label_scaler=MinMaxScaler(mins=np.float64(label_min),
                                  maxs=np.float64(label_max)),
    )
