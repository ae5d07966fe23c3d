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


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """The logistic function of ``a``, written over ``a`` and returned. An
    entry below about -709 overflows ``exp`` to inf and gives exactly 0, so
    the overflow is not reported."""
    np.negative(a, out=a)
    with np.errstate(over="ignore"):
        np.exp(a, out=a)
    a += 1.0
    return np.divide(1.0, a, out=a)


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot-uniform draws; fan-out and fan-in are the last two axes."""
    limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


# The cell passes make each weight's G gate products with one matmul over
# the gate axis, which runs one BLAS call per gate on the same 2-D operands
# as x @ W[g].T, and do the gates' element-wise steps on (G, batch, H)
# blocks. Every element sees the per-gate operations in the same order (a
# sum of three or more terms keeps its grouping, gW and gU still add step
# by step), so the results equal per-gate code bit for bit; exp and tanh
# run on contiguous blocks only, as they did per gate.


def _gru_forward(W: np.ndarray, U: np.ndarray, b: np.ndarray, X: np.ndarray):
    """Batched forward over X (batch, time, features); returns (h_T, caches).
    Each step caches ``(x, h_prev, gates, uh)``: ``gates`` stacks z, r and
    h_tilde, and ``uh`` is the candidate's recurrent product."""
    batch, steps, _ = X.shape
    WT, UT = W.transpose(0, 2, 1), U.transpose(0, 2, 1)
    h = np.zeros((batch, W.shape[1]))
    caches = []
    for t in range(steps):
        x = X[:, t, :]
        gates = np.matmul(x, WT)
        hU = np.matmul(h, UT)
        zr, h_tilde, uh = gates[:2], gates[2], hU[2]
        zr += hU[:2]
        zr += b[:2, None]
        z, r = _sigmoid(zr)
        h_tilde += r * uh
        h_tilde += b[2]
        np.tanh(h_tilde, out=h_tilde)
        h_new = z * h
        h_new += (1.0 - z) * h_tilde
        caches.append((x, h, gates, uh))
        h = h_new
    return h, caches


def _gru_backward(W: np.ndarray, U: np.ndarray, b: np.ndarray, caches,
                  dh: np.ndarray) -> list[np.ndarray]:
    """Gradients of ``W``, ``U`` and ``b`` given dh, the gradient of h_T."""
    grads = [np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)]
    gW, gU, gb = grads
    da = np.empty((3,) + dh.shape)  # the gates' pre-activation deltas
    daT = da.transpose(0, 2, 1)
    for x, h_prev, gates, uh in reversed(caches):
        z, r, h_tilde = gates
        zr = gates[:2]
        one_minus = 1.0 - zr
        np.multiply(dh, h_prev - h_tilde, out=da[0])
        dah = np.multiply(dh, one_minus[0], out=da[2])
        dah *= 1.0 - h_tilde**2
        np.multiply(dah, uh, out=da[1])
        da[:2] *= zr
        da[:2] *= one_minus
        gW += np.matmul(daT, x)
        gb += da.sum(axis=1)
        # the candidate's recurrent term is gated by r, so its U gradient
        # takes dah * r where the other two gates take their pre-activation's
        dah *= r
        gU += np.matmul(daT, h_prev)
        dU = np.matmul(da, U)
        dh = dh * z  # dh_prev, then the three gates' terms in gate order
        dh += dU[0]
        dh += dU[1]
        dh += dU[2]
    return grads


def _lstm_forward(W: np.ndarray, U: np.ndarray, b: np.ndarray, X: np.ndarray):
    """Batched forward over X (batch, time, features); returns (h_T, caches).
    Each step caches ``(x, h_prev, c_prev, gates, c_new)``, where ``gates``
    stacks i, f, o and c_tilde."""
    batch, steps, _ = X.shape
    WT, UT = W.transpose(0, 2, 1), U.transpose(0, 2, 1)
    h = np.zeros((batch, W.shape[1]))
    c = np.zeros((batch, W.shape[1]))
    caches = []
    for t in range(steps):
        x = X[:, t, :]
        gates = np.matmul(x, WT)
        gates += np.matmul(h, UT)
        gates += b[:, None]
        i, f, o, c_tilde = gates
        _sigmoid(gates[:3])
        np.tanh(c_tilde, out=c_tilde)
        c_new = f * c
        c_new += i * c_tilde
        h_new = np.tanh(c_new)
        h_new *= o
        caches.append((x, h, c, gates, c_new))
        h, c = h_new, c_new
    return h, caches


def _lstm_backward(W: np.ndarray, U: np.ndarray, b: np.ndarray, caches,
                   dh: np.ndarray) -> list[np.ndarray]:
    """Gradients of ``W``, ``U`` and ``b`` given dh, the gradient of h_T."""
    grads = [np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)]
    gW, gU, gb = grads
    da = np.empty((4,) + dh.shape)  # the gates' pre-activation deltas
    daT = da.transpose(0, 2, 1)
    dai, daf, dao, dac = da
    dc = np.zeros_like(dh)
    for x, h_prev, c_prev, gates, c_new in reversed(caches):
        i, f, o, c_tilde = gates
        ifo = gates[:3]
        tc = np.tanh(c_new)
        np.multiply(dh, tc, out=dao)
        dc_h = dh * o
        dc_h *= 1.0 - tc**2
        dc += dc_h
        np.multiply(dc, c_tilde, out=dai)
        np.multiply(dc, c_prev, out=daf)
        np.multiply(dc, i, out=dac)
        dc *= f  # dc_prev
        da[:3] *= ifo
        da[:3] *= 1.0 - ifo
        dac *= 1.0 - c_tilde**2
        gW += np.matmul(daT, x)
        gU += np.matmul(daT, h_prev)
        gb += da.sum(axis=1)
        dU = np.matmul(da, U)
        dh = dU[0] + dU[1]
        dh += dU[2]
        dh += dU[3]
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
    """Adam (Kingma & Ba, 2015) updating a list of arrays in place.

    The moments of all arrays live in one flat vector each, so a step is one
    pass of elementwise ufuncs over the concatenated gradients; every element
    sees the same operations in the same order as a per-array update.
    :meth:`take` keeps some entries of the arrays' leading axis, with their
    moments, and the later steps update those.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[np.ndarray], learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        size = sum(p.size for p in params)
        self._use(params, np.zeros(size), np.zeros(size))

    def _use(self, params: list[np.ndarray], m: np.ndarray,
             v: np.ndarray) -> None:
        self.params, self.m, self.v = params, m, v
        ends = np.cumsum([p.size for p in params]).tolist()
        # each array's part of the flat vectors
        self._slices = [slice(a, b) for a, b in zip([0, *ends[:-1]], ends)]
        self._step = np.empty(m.size)

    def take(self, keep: np.ndarray) -> None:
        """Replace ``params`` by new arrays of their entries ``keep`` along
        the leading axis, and both moments by those entries' moments."""
        m, v = (np.concatenate([vec[part].reshape(p.shape)[keep].ravel()
                                for p, part in zip(self.params, self._slices)])
                for vec in (self.m, self.v))
        self._use([p[keep] for p in self.params], m, v)

    def step(self, grads: list[np.ndarray]) -> None:
        b1, b2 = self.BETA1, self.BETA2
        self.t += 1
        g = np.concatenate([grad.ravel() for grad in grads])
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


@dataclass(frozen=True)
class TrainConfig:
    """The budget of :func:`train_minibatch`, shared by the recurrent nets
    and the stacking meta-nets."""

    batch_size: int = 256
    learning_rate: float = 1e-5
    max_epochs: int = 100
    patience: int = 5

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if not (self.learning_rate > 0):
            raise ParameterError("learning_rate must be > 0")
        if self.max_epochs < 1:
            raise ParameterError("max_epochs must be >= 1")
        if self.patience < 0:
            raise ParameterError("patience must be >= 0")


def train_minibatch(
    params: list[np.ndarray],
    passes: Callable[[np.ndarray, list[np.ndarray]],
                     tuple[Callable, Callable]],
    n_rows: int,
    cfg: TrainConfig,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Minibatch Adam with early stopping for K = ``len(rngs)`` independent
    models trained side by side on the same ``n_rows`` training rows.

    Every array in ``params`` has a leading model axis of length K, entry k
    belonging to model k, and ends at each model's best-validation values.
    The loop steps a stack of the running models' entries, in model order
    (``params`` itself until one stops). ``passes(running, stack)`` gets the
    running models' indices and the stack's arrays and returns two passes
    over them: ``loss_and_grads(rows)`` takes a (running, batch) array whose
    row j is running model j's minibatch and returns their mean losses and
    one gradient per array, shaped like it; ``val_rmse()`` returns their
    validation scores. ``cfg`` is the :class:`TrainConfig` budget that every
    model shares.

    Each model draws its epoch's row order from its own ``rngs[k]`` and keeps
    its own best-validation copy and patience count. It stops after more than
    ``patience`` epochs without improvement: its best values go to
    ``params``, its entries leave the stack, the Adam moments
    (:meth:`Adam.take`) and the row orders, and ``passes`` is called again
    for the rest. The loop ends once every model has stopped, or after
    ``max_epochs``. A non-finite loss or score raises :class:`TrainingError`.

    Returns two (epochs run, K) arrays, NaN after a model stopped: the train
    losses, each the row-weighted mean of that epoch's minibatch losses taken
    at the weights before their steps, and the scores.
    """
    K = len(rngs)
    opt = Adam(params, cfg.learning_rate)
    running = np.arange(K)
    best = [p.copy() for p in params]
    best_val = np.full(K, np.inf)
    bad_epochs = np.zeros(K, dtype=int)
    perm = np.empty((K, n_rows), dtype=np.intp)
    losses = np.full((cfg.max_epochs, K), np.nan)
    scores = np.full((cfg.max_epochs, K), np.nan)
    loss_and_grads, val_rmse = passes(running, opt.params)
    epochs_run = 0
    for epoch in range(cfg.max_epochs):
        for j, k in enumerate(running.tolist()):
            perm[j] = rngs[k].permutation(n_rows)
        total = np.zeros(len(running))
        for start in range(0, n_rows, cfg.batch_size):
            rows = perm[:, start:start + cfg.batch_size]
            loss, grads = loss_and_grads(rows)
            if not np.isfinite(loss).all():
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            total += loss * rows.shape[1]
            opt.step(grads)
        val = val_rmse()
        if not np.isfinite(val).all():
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        losses[epoch, running] = total / n_rows
        scores[epoch, running] = val
        epochs_run = epoch + 1
        improved = val < best_val
        best_val[improved] = val[improved]
        for p, saved in zip(opt.params, best):
            np.copyto(saved, p, where=improved.reshape(
                (-1,) + (1,) * (p.ndim - 1)))
        bad_epochs = np.where(improved, 0, bad_epochs + 1)
        stopping = bad_epochs > cfg.patience
        if stopping.any():
            for p, saved in zip(params, best):
                p[running[stopping]] = saved[stopping]
            keep = ~stopping
            running, best = running[keep], [saved[keep] for saved in best]
            if not running.size:
                break
            opt.take(keep)
            best_val, bad_epochs, perm = (
                best_val[keep], bad_epochs[keep], perm[keep])
            loss_and_grads, val_rmse = passes(running, opt.params)
    for p, saved in zip(params, best):
        p[running] = saved
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


@dataclass
class RnnRegressor:
    """A recurrent cell with a linear scalar head, and the two min-max
    scalers learned from the training split: ``in_scaler`` per input
    feature, ``label_scaler`` for the label.

    The cell's weights are stacked by gate: ``W`` (G, H, F), ``U`` (G, H, H)
    and ``b`` (G, H). The GRU has G = 3 (gates z, r, h), the LSTM G = 4
    (gates i, f, o, c). Each ``W[g]`` and ``U[g]`` is a contiguous block.
    The cell passes make the G products of ``W``, and those of ``U``, with
    one matmul over the gate axis, one BLAS call per gate, and run the
    gates' element-wise steps in place on the stacked (G, batch, H)
    blocks."""

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
    seed: int = 0,
) -> tuple[RnnRegressor, list[EpochRecord]]:
    """Minimize MSE by full BPTT over the lookback window; ``seed`` draws
    the initial weights and each epoch's row order.

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
    model = _build_model(arch, in_scaler, label_scaler, seed)
    y_train = label_scaler.transform(train.y)
    y_val = label_scaler.transform(val.y)
    span = float(label_scaler.maxs - label_scaler.mins) or 1.0

    # one model: train_minibatch sees each array through a view with a
    # model axis of length 1, and one row of minibatch indices; its loop
    # ends when that model stops, so these passes serve every epoch
    def loss_and_grads(rows: np.ndarray):
        loss, grads = _loss_and_grads(model, train.X[rows[0]],
                                      y_train[rows[0]])
        return np.array([loss]), grads

    def val_rmse() -> np.ndarray:
        return np.array([float(np.sqrt(np.mean(
            (_predict_scaled(model, val.X) - y_val) ** 2))) * span])

    losses, scores = train_minibatch(
        [p[None] for p in model.params()],
        lambda running, stack: (loss_and_grads, val_rmse), train.X.shape[0],
        cfg,
        [np.random.default_rng(derive_seed(seed, "rnn-batches"))],
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
