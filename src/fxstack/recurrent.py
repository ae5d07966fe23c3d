"""GRU and LSTM sequence regressors trained with full backpropagation
through time, plus the training pieces shared with the stacking meta-net:
the min-max scaler (:class:`MinMaxScaler`), the optimiser (:class:`Adam`)
and the minibatch early-stopping loop (:func:`train_minibatch`).

The GRU uses the convention where the update gate multiplies the OLD state:
h = z * h_prev + (1 - z) * h_tilde. The LSTM is the standard three-gate
formulation. Everything is double-precision numpy; gradients are validated
against central finite differences (see :func:`gradient_check`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, TrainingError
from .market_data import SequenceDataset
from .seeding import derive_seed


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


@dataclass
class GruWeights:
    W_z: np.ndarray
    W_r: np.ndarray
    W_h: np.ndarray
    U_z: np.ndarray
    U_r: np.ndarray
    U_h: np.ndarray
    b_z: np.ndarray
    b_r: np.ndarray
    b_h: np.ndarray

    FIELDS = ("W_z", "W_r", "W_h", "U_z", "U_r", "U_h", "b_z", "b_r", "b_h")

    @property
    def hidden_size(self) -> int:
        return self.W_z.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_z.shape[1]

    @classmethod
    def init(cls, rng: np.random.Generator, input_size: int,
             hidden_size: int) -> "GruWeights":
        kw = {}
        for name in ("W_z", "W_r", "W_h"):
            kw[name] = _glorot(rng, hidden_size, input_size)
        for name in ("U_z", "U_r", "U_h"):
            kw[name] = _glorot(rng, hidden_size, hidden_size)
        for name in ("b_z", "b_r", "b_h"):
            kw[name] = np.zeros(hidden_size)
        return cls(**kw)


@dataclass
class LstmWeights:
    W_i: np.ndarray
    W_f: np.ndarray
    W_o: np.ndarray
    W_c: np.ndarray
    U_i: np.ndarray
    U_f: np.ndarray
    U_o: np.ndarray
    U_c: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    b_c: np.ndarray

    FIELDS = ("W_i", "W_f", "W_o", "W_c", "U_i", "U_f", "U_o", "U_c",
              "b_i", "b_f", "b_o", "b_c")

    @property
    def hidden_size(self) -> int:
        return self.W_i.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_i.shape[1]

    @classmethod
    def init(cls, rng: np.random.Generator, input_size: int,
             hidden_size: int) -> "LstmWeights":
        kw = {}
        for name in ("W_i", "W_f", "W_o", "W_c"):
            kw[name] = _glorot(rng, hidden_size, input_size)
        for name in ("U_i", "U_f", "U_o", "U_c"):
            kw[name] = _glorot(rng, hidden_size, hidden_size)
        for name in ("b_i", "b_f", "b_o", "b_c"):
            kw[name] = np.zeros(hidden_size)
        return cls(**kw)


def _gru_forward(w: GruWeights, X: np.ndarray):
    """Batched forward over X (batch, time, features); returns (h_T, caches)."""
    batch, steps, _ = X.shape
    h = np.zeros((batch, w.hidden_size))
    caches = []
    for t in range(steps):
        x = X[:, t, :]
        z = _sigmoid(x @ w.W_z.T + h @ w.U_z.T + w.b_z)
        r = _sigmoid(x @ w.W_r.T + h @ w.U_r.T + w.b_r)
        uh = h @ w.U_h.T
        h_tilde = np.tanh(x @ w.W_h.T + r * uh + w.b_h)
        h_new = z * h + (1.0 - z) * h_tilde
        caches.append((x, h, z, r, uh, h_tilde))
        h = h_new
    return h, caches


def _gru_backward(w: GruWeights, caches, dh: np.ndarray) -> GruWeights:
    grads = GruWeights(**{n: np.zeros_like(getattr(w, n))
                          for n in GruWeights.FIELDS})
    for x, h_prev, z, r, uh, h_tilde in reversed(caches):
        dz = dh * (h_prev - h_tilde)
        dht = dh * (1.0 - z)
        dh_prev = dh * z
        daz = dz * z * (1.0 - z)
        dah = dht * (1.0 - h_tilde**2)
        dar = (dah * uh) * r * (1.0 - r)
        duh = dah * r
        grads.W_z += daz.T @ x
        grads.U_z += daz.T @ h_prev
        grads.b_z += daz.sum(axis=0)
        grads.W_r += dar.T @ x
        grads.U_r += dar.T @ h_prev
        grads.b_r += dar.sum(axis=0)
        grads.W_h += dah.T @ x
        grads.U_h += duh.T @ h_prev
        grads.b_h += dah.sum(axis=0)
        dh = dh_prev + daz @ w.U_z + dar @ w.U_r + duh @ w.U_h
    return grads


def _lstm_forward(w: LstmWeights, X: np.ndarray):
    batch, steps, _ = X.shape
    h = np.zeros((batch, w.hidden_size))
    c = np.zeros((batch, w.hidden_size))
    caches = []
    for t in range(steps):
        x = X[:, t, :]
        i = _sigmoid(x @ w.W_i.T + h @ w.U_i.T + w.b_i)
        f = _sigmoid(x @ w.W_f.T + h @ w.U_f.T + w.b_f)
        o = _sigmoid(x @ w.W_o.T + h @ w.U_o.T + w.b_o)
        c_tilde = np.tanh(x @ w.W_c.T + h @ w.U_c.T + w.b_c)
        c_new = f * c + i * c_tilde
        h_new = o * np.tanh(c_new)
        caches.append((x, h, c, i, f, o, c_tilde, c_new))
        h, c = h_new, c_new
    return h, caches


def _lstm_backward(w: LstmWeights, caches, dh: np.ndarray) -> LstmWeights:
    grads = LstmWeights(**{n: np.zeros_like(getattr(w, n))
                           for n in LstmWeights.FIELDS})
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
        for name, da in (("i", dai), ("f", daf), ("o", dao), ("c", dac)):
            getattr(grads, f"W_{name}")[...] += da.T @ x
            getattr(grads, f"U_{name}")[...] += da.T @ h_prev
            getattr(grads, f"b_{name}")[...] += da.sum(axis=0)
        dh = dai @ w.U_i + daf @ w.U_f + dao @ w.U_o + dac @ w.U_c
        dc = dc_prev
    return grads


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
    """Adam (Kingma & Ba, 2015) updating a fixed list of arrays in place."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[np.ndarray], learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        b1, b2 = self.BETA1, self.BETA2
        self.t += 1
        for k, (p, grad) in enumerate(zip(self.params, grads)):
            self.m[k] = b1 * self.m[k] + (1 - b1) * grad
            self.v[k] = b2 * self.v[k] + (1 - b2) * grad**2
            m_hat = self.m[k] / (1 - b1**self.t)
            v_hat = self.v[k] / (1 - b2**self.t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)


def train_minibatch(
    params: list[np.ndarray],
    loss_and_grads: Callable[[np.ndarray], tuple[float, list[np.ndarray]]],
    val_rmse: Callable[[], float],
    n_rows: int,
    cfg,
    rng: np.random.Generator,
) -> None:
    """Minibatch Adam on ``params`` (in place) with early stopping.

    ``loss_and_grads(rows)`` gives the loss on those training rows and one
    gradient per array; ``val_rmse()`` scores the parameters after each epoch.
    ``cfg`` has ``batch_size``, ``learning_rate``, ``max_epochs`` and
    ``patience``; ``rng`` draws each epoch's row order. Stops after more than
    ``patience`` epochs without improvement and leaves the best-validation
    values; a non-finite loss raises :class:`TrainingError`.
    """
    opt = Adam(params, cfg.learning_rate)
    best_val = np.inf
    best = None
    bad_epochs = 0
    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(n_rows)
        for start in range(0, n_rows, cfg.batch_size):
            loss, grads = loss_and_grads(perm[start:start + cfg.batch_size])
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            opt.step(grads)
        val = val_rmse()
        if not np.isfinite(val):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        if val < best_val:
            best_val = val
            best = [p.copy() for p in params]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break
    if best is not None:
        for p, saved in zip(params, best):
            p[...] = saved


# --- recurrent regressor -----------------------------------------------------


@dataclass(frozen=True)
class RnnArch:
    cell: str = "gru"  # "gru" | "lstm"
    hidden_size: int = 32

    def __post_init__(self) -> None:
        if self.cell not in ("gru", "lstm"):
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
    """A trained cell plus linear scalar head and the label scaling learned
    from the training split (features are scaled by the caller's scaler)."""

    arch: RnnArch
    weights: GruWeights | LstmWeights
    head_w: np.ndarray
    head_b: np.ndarray  # shape (1,)
    label_scaler: MinMaxScaler = MinMaxScaler(mins=np.float64(0.0),
                                              maxs=np.float64(1.0))

    def _forward(self, X: np.ndarray):
        if self.arch.cell == "gru":
            return _gru_forward(self.weights, X)
        return _lstm_forward(self.weights, X)

    def params(self) -> list[np.ndarray]:
        """The trainable arrays, in gradient order."""
        arrays = [getattr(self.weights, n) for n in type(self.weights).FIELDS]
        return arrays + [self.head_w, self.head_b]


@dataclass(frozen=True)
class EpochRecord:
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
    if model.arch.cell == "gru":
        cell_grads = _gru_backward(model.weights, caches, dh)
    else:
        cell_grads = _lstm_backward(model.weights, caches, dh)
    grads = [getattr(cell_grads, n) for n in type(model.weights).FIELDS]
    return loss, grads + [g_head_w, g_head_b]


def _build_model(arch: RnnArch, input_size: int, seed: int) -> RnnRegressor:
    rng = np.random.default_rng(derive_seed(seed, "rnn-init", arch.cell))
    cls = GruWeights if arch.cell == "gru" else LstmWeights
    weights = cls.init(rng, input_size, arch.hidden_size)
    return RnnRegressor(
        arch=arch,
        weights=weights,
        head_w=_glorot(rng, arch.hidden_size, 1)[:, 0],
        head_b=np.zeros(1),
    )


def _predict_scaled(model: RnnRegressor, X: np.ndarray) -> np.ndarray:
    h_T, _ = model._forward(X)
    return h_T @ model.head_w + model.head_b


def train_rnn(
    train: SequenceDataset,
    val: SequenceDataset,
    arch: RnnArch,
    cfg: TrainConfig,
) -> tuple[RnnRegressor, list[EpochRecord]]:
    """Minimize MSE by full BPTT over the lookback window.

    Inputs must already be scaled with the training-split scaler. The label
    is min-max scaled internally from the training split and predictions are
    returned in label units. Trains with :func:`train_minibatch` and returns
    the best-validation weights plus one :class:`EpochRecord` per epoch run.
    """
    if train.X.ndim != 3 or val.X.ndim != 3:
        raise ParameterError("expected sequence datasets (rows x lookback x F)")
    if train.X.shape[2] != val.X.shape[2]:
        raise ParameterError("train/val feature counts differ")
    model = _build_model(arch, train.X.shape[2], cfg.seed)
    label_scaler = MinMaxScaler.fit(train.y)
    model.label_scaler = label_scaler
    y_train = label_scaler.transform(train.y)
    y_val = label_scaler.transform(val.y)
    span = float(label_scaler.maxs - label_scaler.mins) or 1.0
    history: list[EpochRecord] = []

    def val_rmse() -> float:
        train_rmse = float(np.sqrt(np.mean(
            (_predict_scaled(model, train.X) - y_train) ** 2))) * span
        val_rmse = float(np.sqrt(np.mean(
            (_predict_scaled(model, val.X) - y_val) ** 2))) * span
        history.append(EpochRecord(epoch=len(history), train_rmse=train_rmse,
                                   val_rmse=val_rmse))
        return val_rmse

    train_minibatch(
        model.params(),
        lambda rows: _loss_and_grads(model, train.X[rows], y_train[rows]),
        val_rmse, train.X.shape[0], cfg,
        np.random.default_rng(derive_seed(cfg.seed, "rnn-batches")),
    )
    return model, history


def predict_rnn(model: RnnRegressor, data: SequenceDataset) -> np.ndarray:
    """One scalar per sequence row, in label units."""
    if data.X.ndim != 3 or data.X.shape[2] != model.weights.input_size:
        raise ParameterError("dataset shape does not match model input size")
    return model.label_scaler.inverse_transform(_predict_scaled(model, data.X))


def export_history_csv(history: list[EpochRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,train_rmse,val_rmse\n")
        for rec in history:
            fh.write(f"{rec.epoch},{rec.train_rmse!r},{rec.val_rmse!r}\n")


def gradient_check(arch: RnnArch, seed: int, steps: int = 8,
                   input_size: int = 3, batch: int = 4) -> float:
    """Max relative error between BPTT and central finite differences."""
    if arch.hidden_size > 8 or steps > 20:
        raise ParameterError("gradient check is for small nets only")
    rng = np.random.default_rng(derive_seed(seed, "grad-check"))
    model = _build_model(arch, input_size, seed)
    X = rng.normal(size=(batch, steps, input_size))
    y = rng.normal(size=batch)
    arrays = model.params()
    _, grads = _loss_and_grads(model, X, y)

    def loss_only() -> float:
        pred = _predict_scaled(model, X)
        return float(np.mean((pred - y) ** 2))

    step = 1e-6
    max_rel = 0.0
    for array, grad in zip(arrays, grads):
        flat = array.ravel()
        gflat = grad.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = loss_only()
            flat[j] = orig - step
            down = loss_only()
            flat[j] = orig
            numeric = (up - down) / (2 * step)
            denom = max(abs(numeric), abs(gflat[j]), 1e-8)
            max_rel = max(max_rel, abs(numeric - gflat[j]) / denom)
    return max_rel


# --- serialization -----------------------------------------------------------

RNN_FORMAT_VERSION = 1


def rnn_to_dict(model: RnnRegressor) -> dict:
    return {
        "version": RNN_FORMAT_VERSION,
        "cell": model.arch.cell,
        "hidden_size": model.arch.hidden_size,
        "weights": {n: getattr(model.weights, n).tolist()
                    for n in type(model.weights).FIELDS},
        "head_w": model.head_w.tolist(),
        "head_b": float(model.head_b[0]),
        "label_min": float(model.label_scaler.mins),
        "label_max": float(model.label_scaler.maxs),
    }


def rnn_from_dict(data: dict) -> RnnRegressor:
    if data.get("version") != RNN_FORMAT_VERSION:
        raise ParameterError(f"unsupported rnn version {data.get('version')}")
    arch = RnnArch(cell=data["cell"], hidden_size=data["hidden_size"])
    cls = GruWeights if arch.cell == "gru" else LstmWeights
    weights = cls(**{n: np.array(v) for n, v in data["weights"].items()})
    return RnnRegressor(
        arch=arch,
        weights=weights,
        head_w=np.array(data["head_w"]),
        head_b=np.array([float(data["head_b"])]),
        label_scaler=MinMaxScaler(mins=np.float64(data["label_min"]),
                                  maxs=np.float64(data["label_max"])),
    )
