"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is written as plain Python loops over the mathematical
definitions, deliberately avoiding the vectorized formulations under test.
"""

import csv
import math
from datetime import datetime, timezone

import numpy as np

from fxstack import arima
from fxstack import recurrent as rnn
from fxstack import trees
from fxstack.errors import (
    DegenerateFitError,
    InsufficientDataError,
    OrderingError,
    SchemaError,
    TrainingError,
)
from fxstack.recurrent import MinMaxScaler
from fxstack.seeding import derive_seed
from fxstack.stacking import MetaModel


def sma_oracle(x, n):
    out = np.full(len(x), np.nan)
    for t in range(n - 1, len(x)):
        out[t] = sum(x[t - n + 1:t + 1]) / n
    return out


def ema_oracle(x, n):
    out = np.full(len(x), np.nan)
    if n > len(x):
        return out
    k = 2.0 / (n + 1.0)
    value = sum(x[:n]) / n
    out[n - 1] = value
    for t in range(n, len(x)):
        value = value + k * (x[t] - value)
        out[t] = value
    return out


def wma_oracle(x, n):
    out = np.full(len(x), np.nan)
    denom = n * (n + 1) / 2
    for t in range(n - 1, len(x)):
        acc = 0.0
        for i in range(n):
            acc += (i + 1) * x[t - n + 1 + i]
        out[t] = acc / denom
    return out


def _apply_to_defined(values, fn):
    """Run ``fn`` on the non-NaN tail and re-pad to the original length."""
    defined = values[np.isfinite(values)]
    out = np.full(len(values), np.nan)
    if len(defined):
        out[len(values) - len(defined):] = fn(defined)
    return out


def dema_oracle(x, n):
    e1 = ema_oracle(x, n)
    e2 = _apply_to_defined(e1, lambda d: ema_oracle(d, n))
    return 2.0 * e1 - e2


def tema_oracle(x, n):
    e1 = ema_oracle(x, n)
    e2 = _apply_to_defined(e1, lambda d: ema_oracle(d, n))
    e3 = _apply_to_defined(e2, lambda d: ema_oracle(d, n))
    return 3.0 * e1 - 3.0 * e2 + e3


def trima_oracle(x, n):
    m1 = math.ceil((n + 1) / 2)
    m2 = n // 2 + 1
    inner = sma_oracle(x, m1)
    return _apply_to_defined(inner, lambda d: sma_oracle(d, m2))


def macd_oracle(x, fast=12, slow=26, signal=9):
    line = ema_oracle(x, fast) - ema_oracle(x, slow)
    sig = _apply_to_defined(line, lambda d: ema_oracle(d, signal))
    return line, sig, line - sig


def willr_oracle(high, low, close, n):
    out = np.full(len(close), np.nan)
    for t in range(n - 1, len(close)):
        hh = max(high[t - n + 1:t + 1])
        ll = min(low[t - n + 1:t + 1])
        out[t] = -50.0 if hh == ll else -100.0 * (hh - close[t]) / (hh - ll)
    return out


def bop_oracle(o, h, l, c, n):
    raw = [0.0 if h[t] == l[t] else (c[t] - o[t]) / (h[t] - l[t])
           for t in range(len(c))]
    return sma_oracle(np.array(raw), n)


def true_range_oracle(high, low, close):
    out = np.empty(len(close))
    out[0] = high[0] - low[0]
    for t in range(1, len(close)):
        out[t] = max(high[t] - low[t],
                     abs(high[t] - close[t - 1]),
                     abs(low[t] - close[t - 1]))
    return out


def atr_oracle(high, low, close, n):
    return sma_oracle(true_range_oracle(high, low, close), n)


def bbands_oracle(x, n, k):
    mid = sma_oracle(x, n)
    upper = np.full(len(x), np.nan)
    lower = np.full(len(x), np.nan)
    for t in range(n - 1, len(x)):
        window = x[t - n + 1:t + 1]
        mean = sum(window) / n
        var = sum((v - mean) ** 2 for v in window) / n
        dev = math.sqrt(var)
        upper[t] = mid[t] + k * dev
        lower[t] = mid[t] - k * dev
    return upper, mid, lower


def rsi_oracle(x, n):
    out = np.full(len(x), np.nan)
    for t in range(n, len(x)):
        gains = 0.0
        losses = 0.0
        for j in range(t - n + 1, t + 1):
            move = x[j] - x[j - 1]
            if move > 0:
                gains += move
            else:
                losses -= move
        total = gains + losses
        out[t] = 50.0 if total == 0 else 100.0 * gains / total
    return out


def mom_oracle(x, n):
    out = np.full(len(x), np.nan)
    for t in range(n, len(x)):
        out[t] = x[t] - x[t - n]
    return out


def roc_oracle(x, n):
    out = np.full(len(x), np.nan)
    for t in range(n, len(x)):
        out[t] = (x[t] / x[t - n] - 1.0) * 100.0
    return out


def highest_high_oracle(high, horizon):
    out = np.full(len(high), np.nan)
    for t in range(len(high) - horizon):
        out[t] = max(high[t + 1:t + 1 + horizon])
    return out


def feature_csv_oracle(frame, path):
    """``FeatureFrame.to_csv`` one cell at a time: ``NaN`` for a non-finite
    value, ``repr(float(v))`` for any other."""
    names = list(frame.columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["datetime"] + names)
        for i in range(len(frame)):
            stamp = frame.index[i].astype(datetime)
            row = [stamp.strftime("%Y-%m-%dT%H:%M:%SZ")]
            for name in names:
                v = frame.columns[name][i]
                row.append("NaN" if not math.isfinite(v) else repr(float(v)))
            writer.writerow(row)


def load_csv_oracle(path):
    """``load_ohlc_csv`` one row at a time: each row is parsed into an aware
    ``datetime``, checked as one candle and ordered against the last kept
    row as it is read. Returns the kept stamps as ``datetime64[us]``, the
    kept rows as an (n, 4) open/high/low/close array and the drop counts."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("file is empty (no header)") from None
        if [h.strip() for h in header] != ["datetime", "open", "high", "low",
                                           "close"]:
            raise SchemaError(f"unexpected header {header!r}")
        stamps, rows, dropped = [], [], {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise SchemaError(f"row {lineno}: expected 5 fields")
            text = row[0].strip()
            if text.endswith(("Z", "z")):
                text = text[:-1] + "+00:00"
            try:
                ts = datetime.fromisoformat(text)
            except ValueError as exc:
                raise SchemaError(f"row {lineno}: bad datetime") from exc
            if ts.tzinfo is None:
                ts = ts.replace(tzinfo=timezone.utc)
            ts = ts.astimezone(timezone.utc)
            try:
                prices = [float(v) for v in row[1:5]]
            except ValueError:
                dropped["unparseable_price"] = (
                    dropped.get("unparseable_price", 0) + 1)
                continue
            o, h, l, c = prices
            if not (all(math.isfinite(p) and p > 0 for p in prices)
                    and l <= min(o, c) and h >= max(o, c)):
                dropped["invalid_candle"] = dropped.get("invalid_candle", 0) + 1
                continue
            if stamps and ts <= stamps[-1]:
                raise OrderingError(f"row {lineno}: timestamp not after "
                                    "previous bar")
            stamps.append(ts)
            rows.append(prices)
    naive = [t.replace(tzinfo=None) for t in stamps]
    return (np.array(naive, dtype="datetime64[us]"),
            np.array(rows, dtype=float).reshape(-1, 4), dropped)


def unit_scalers(input_size):
    """Input and label scalers that leave their values as they are, for a
    net whose inputs and label are already on the scale it trains on."""
    return (MinMaxScaler(mins=np.zeros(input_size), maxs=np.ones(input_size)),
            MinMaxScaler(mins=np.float64(0.0), maxs=np.float64(1.0)))


def gradient_check(arch, seed, steps=8, input_size=3, batch=4):
    """Max relative error between BPTT and central finite differences on a
    freshly initialised small net."""
    rng = np.random.default_rng(derive_seed(seed, "grad-check"))
    model = rnn._build_model(arch, *unit_scalers(input_size), seed)
    X = rng.normal(size=(batch, steps, input_size))
    y = rng.normal(size=batch)
    _, grads = rnn._loss_and_grads(model, X, y)

    def loss_only():
        pred = rnn._predict_scaled(model, X)
        return float(np.mean((pred - y) ** 2))

    step = 1e-6
    max_rel = 0.0
    for array, grad in zip(model.params(), grads):
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


def adam_step_oracle(params, grads, m, v, t, learning_rate,
                     b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step (Kingma & Ba, 2015) applied array by array: updates
    ``params`` in place and replaces the per-array moments in ``m`` and ``v``;
    ``t`` counts this step (1 for the first)."""
    for k, (p, grad) in enumerate(zip(params, grads)):
        m[k] = b1 * m[k] + (1 - b1) * grad
        v[k] = b2 * v[k] + (1 - b2) * grad**2
        m_hat = m[k] / (1 - b1**t)
        v_hat = v[k] / (1 - b2**t)
        p -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)


def meta_nn_oracle(meta_train, meta_val, members, seed, hidden, cfg):
    """One combination's meta network of ``hidden`` units, on the tuple of
    model names ``members``, fitted on its own: minibatch Adam (array by array,
    :func:`adam_step_oracle`) with early stopping on the meta-validation
    RMSE, as a single-net loop. Returns the model at its best-validation
    weights and the number of epochs run."""
    X = np.column_stack([meta_train.columns[m] for m in members])
    Xv = np.column_stack([meta_val.columns[m] for m in members])
    rng = np.random.default_rng(derive_seed(seed, "meta-nn", *members))
    hid = hidden
    model = MetaModel(
        members=members,
        in_scaler=MinMaxScaler.fit(X),
        label_scaler=MinMaxScaler.fit(meta_train.label),
        W1=rng.uniform(-1, 1, size=(len(members), hid))
        * np.sqrt(6.0 / (len(members) + hid)),
        b1=np.zeros(hid),
        W2=rng.uniform(-1, 1, size=hid) * np.sqrt(6.0 / (hid + 1)),
        b2=np.zeros(1),
    )
    Xs = model.in_scaler.transform(X)
    Xvs = model.in_scaler.transform(Xv)
    ys = model.label_scaler.transform(meta_train.label)
    yvs = model.label_scaler.transform(meta_val.label)
    params = [model.W1, model.b1, model.W2, model.b2]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0
    best_val, best, bad_epochs = np.inf, None, 0
    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(len(ys))
        for start in range(0, len(ys), cfg.batch_size):
            rows = perm[start:start + cfg.batch_size]
            xb, yb = Xs[rows], ys[rows]
            pre = xb @ model.W1 + model.b1
            hidden = np.maximum(pre, 0.0)
            resid = hidden @ model.W2 + model.b2 - yb
            if not math.isfinite(float(np.mean(resid**2))):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            dpred = 2.0 * resid / len(yb)
            dhidden = np.outer(dpred, model.W2) * (pre > 0)
            grads = [xb.T @ dhidden, dhidden.sum(axis=0), hidden.T @ dpred,
                     np.array([dpred.sum()])]
            t += 1
            adam_step_oracle(params, grads, m, v, t, cfg.learning_rate)
        val = float(np.sqrt(np.mean((model._forward_scaled(Xvs) - yvs) ** 2)))
        if not math.isfinite(val):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        if val < best_val:
            best_val, best, bad_epochs = val, [p.copy() for p in params], 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break
    for p, saved in zip(params, best):
        p[...] = saved
    return model, epoch + 1


def _sigmoid_oracle(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_pass_oracle(W, U, b, X, dh):
    """The GRU's forward and backward passes with every gate's products and
    element-wise steps made one gate at a time. Returns ``(h_T, [gW, gU,
    gb])`` for ``dh``, the gradient of h_T."""
    batch, steps, _ = X.shape
    W_z, W_r, W_h = W
    U_z, U_r, U_h = U
    b_z, b_r, b_h = b
    h = np.zeros((batch, W.shape[1]))
    caches = []
    for t in range(steps):
        x = X[:, t, :]
        z = _sigmoid_oracle(x @ W_z.T + h @ U_z.T + b_z)
        r = _sigmoid_oracle(x @ W_r.T + h @ U_r.T + b_r)
        uh = h @ U_h.T
        h_tilde = np.tanh(x @ W_h.T + r * uh + b_h)
        h_new = z * h + (1.0 - z) * h_tilde
        caches.append((x, h, z, r, uh, h_tilde))
        h = h_new
    h_T = h

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
        for (gW, gU, gb), da, du in zip(per_gate, (daz, dar, dah),
                                        (daz, dar, duh)):
            gW += da.T @ x
            gU += du.T @ h_prev
            gb += da.sum(axis=0)
        dh = dh_prev + daz @ U_z + dar @ U_r + duh @ U_h
    return h_T, grads


def lstm_pass_oracle(W, U, b, X, dh):
    """The LSTM's forward and backward passes with every gate's products
    and element-wise steps made one gate at a time. Returns ``(h_T, [gW,
    gU, gb])`` for ``dh``, the gradient of h_T."""
    batch, steps, _ = X.shape
    W_i, W_f, W_o, W_c = W
    U_i, U_f, U_o, U_c = U
    b_i, b_f, b_o, b_c = b
    h = np.zeros((batch, W.shape[1]))
    c = np.zeros((batch, W.shape[1]))
    caches = []
    for t in range(steps):
        x = X[:, t, :]
        i = _sigmoid_oracle(x @ W_i.T + h @ U_i.T + b_i)
        f = _sigmoid_oracle(x @ W_f.T + h @ U_f.T + b_f)
        o = _sigmoid_oracle(x @ W_o.T + h @ U_o.T + b_o)
        c_tilde = np.tanh(x @ W_c.T + h @ U_c.T + b_c)
        c_new = f * c + i * c_tilde
        h_new = o * np.tanh(c_new)
        caches.append((x, h, c, i, f, o, c_tilde, c_new))
        h, c = h_new, c_new
    h_T = h

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
    return h_T, grads


def gru_step_oracle(w, x, h_prev):
    """Single GRU step via scalar loops (paper convention: z gates the old
    state, r applies inside the candidate's recurrent term). ``w`` holds
    gate-stacked ``W``, ``U`` and ``b`` in gate order z, r, h."""
    H = len(h_prev)
    D = len(x)
    W_z, W_r, W_h = w.W
    U_z, U_r, U_h = w.U
    b_z, b_r, b_h = w.b

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = np.empty(H)
    for i in range(H):
        z = sig(sum(W_z[i][d] * x[d] for d in range(D))
                + sum(U_z[i][j] * h_prev[j] for j in range(H)) + b_z[i])
        r = sig(sum(W_r[i][d] * x[d] for d in range(D))
                + sum(U_r[i][j] * h_prev[j] for j in range(H)) + b_r[i])
        cand = math.tanh(
            sum(W_h[i][d] * x[d] for d in range(D))
            + r * sum(U_h[i][j] * h_prev[j] for j in range(H)) + b_h[i])
        h[i] = z * h_prev[i] + (1.0 - z) * cand
    return h


def lstm_step_oracle(w, x, h_prev, c_prev):
    """Single LSTM step via scalar loops; ``w`` holds gate-stacked ``W``,
    ``U`` and ``b`` in gate order i, f, o, c."""
    H = len(h_prev)
    D = len(x)
    (W_i, W_f, W_o, W_c), (U_i, U_f, U_o, U_c), (b_i, b_f, b_o, b_c) = (
        w.W, w.U, w.b)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = np.empty(H)
    c = np.empty(H)
    for k in range(H):
        def gate(W, U, b):
            return (sum(W[k][d] * x[d] for d in range(D))
                    + sum(U[k][j] * h_prev[j] for j in range(H)) + b[k])

        i = sig(gate(W_i, U_i, b_i))
        f = sig(gate(W_f, U_f, b_f))
        o = sig(gate(W_o, U_o, b_o))
        g = math.tanh(gate(W_c, U_c, b_c))
        c[k] = f * c_prev[k] + i * g
        h[k] = o * math.tanh(c[k])
    return h, c


def best_split_oracle(X, g, h, idx, features, params):
    """Best (gain, feature, threshold) over the rows ``idx``, or None.

    One feature at a time, as ``trees._Splitter.best_split`` searched before
    it was vectorised across features: the exact splitter walks the rows in
    ascending x (stable sort, so ties keep row order), the histogram
    splitter bins each column on its own cut points. Ties break toward the
    lowest feature index, then the lowest threshold; a feature whose best
    gain is not finite is skipped.
    """
    lam = params.lam
    G, H = float(g[idx].sum()), float(h[idx].sum())
    in_node = np.zeros(X.shape[0], dtype=bool)
    in_node[idx] = True
    parent = G * G / (H + lam)
    best = None
    for f in features:
        col = X[:, f]
        if params.splitter == "exact":
            order = np.argsort(col, kind="stable")
            sel = order[in_node[order]]
            xs = col[sel]
            gl = np.cumsum(g[sel])[:-1]
            hl = np.cumsum(h[sel])[:-1]
            valid = xs[:-1] < xs[1:]
            mid = (xs[:-1] + xs[1:]) / 2.0
            # the midpoint of adjacent floats rounds up to the right value
            thresholds = np.where(mid < xs[1:], mid, xs[:-1])
        else:
            uniq = np.unique(col)
            if len(uniq) - 1 <= params.bins - 1:
                cuts = (uniq[:-1] + uniq[1:]) / 2.0
            else:
                cuts = np.unique(np.quantile(
                    col, np.linspace(0.0, 1.0, params.bins + 1)[1:-1]))
            nbins = len(cuts) + 1
            if nbins < 2:
                continue
            codes = np.searchsorted(cuts, col[idx], side="left")
            gl = np.cumsum(np.bincount(codes, weights=g[idx],
                                       minlength=nbins))[:-1]
            hl = np.cumsum(np.bincount(codes, weights=h[idx],
                                       minlength=nbins))[:-1]
            left_n = np.cumsum(np.bincount(codes, minlength=nbins))[:-1]
            valid = (left_n > 0) & (left_n < len(idx))
            thresholds = cuts
        if not valid.any():
            continue
        gr, hr = G - gl, H - hl
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (
                gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent
            )
        gains = np.where(valid, gains, -np.inf)
        i = int(np.argmax(gains))
        gain = float(gains[i])
        if np.isfinite(gain) and (best is None or gain > best[0]):
            best = (gain, int(f), float(thresholds[i]))
    return best


def split_gain(G_L, H_L, G_R, H_R, lam):
    """Objective reduction of one split versus keeping the parent leaf."""
    if H_L + lam <= 0 or H_R + lam <= 0:
        raise DegenerateFitError("H + lambda must be > 0 on both sides")
    return 0.5 * (
        G_L * G_L / (H_L + lam)
        + G_R * G_R / (H_R + lam)
        - (G_L + G_R) ** 2 / (H_L + H_R + lam)
    )


def importance_oracle(model, kind):
    """Per-feature importance of ``kind`` as a list in
    ``model.feature_names`` order: each tree's split nodes are walked in
    pre-order from the root through ``left`` and ``right``, and their counts
    and gains summed as Python numbers."""
    counts = [0] * len(model.feature_names)
    totals = [0.0] * len(model.feature_names)
    for tree in model.trees:
        stack = [0]
        while stack:
            node = stack.pop()
            f = int(tree.feature[node])
            if f < 0:
                continue
            counts[f] += 1
            totals[f] += float(tree.gain[node])
            stack += [int(tree.right[node]), int(tree.left[node])]
    if kind == "split_count":
        return [float(c) for c in counts]
    if kind == "gain":
        return [t / c if c else 0.0 for t, c in zip(totals, counts)]
    total = sum(totals)
    return [t / total for t in totals] if total > 0 else totals


def sorted_rows(X, idx):
    """The rows ``idx`` of ``X`` in ascending-x order per feature, (F, m):
    a stable sort, so ties keep row order, as the exact splitter hands a
    node its rows."""
    order = np.argsort(X, axis=0, kind="stable").T
    in_node = np.zeros(X.shape[0], dtype=bool)
    in_node[idx] = True
    return order[in_node[order]].reshape(X.shape[1], len(idx))


def grow_oracle(splitter, idx, g, h, growth, rng=None, m=None):
    """``splitter.grow`` as it was with two growth modes, ``growth`` being
    ``"level"`` or ``"leaf"``, one node at a time. Level-wise growth pops
    nodes first in, first out and searches each as it is popped. Leaf-wise
    growth searches every node in the frontier, whatever its depth, and
    splits the first of highest positive gain; ``max_leaves`` caps the
    leaves in both modes. A node whose gradients are all equal is a leaf
    and draws no features. Each node is searched alone, and each child's
    sorted rows are taken from its parent's with a row mask."""
    params = splitter.params
    max_leaves = np.inf if params.max_leaves is None else params.max_leaves
    exact = params.splitter == "exact"
    h_prefix = trees._constant_prefix(h) if exact else None

    def leaf_value(node_idx):
        G = float(g[node_idx].sum())
        H = float(h[node_idx].sum())
        return trees.leaf_weight(G, H, params.lam)

    def search(entry):
        node_idx = entry[1]
        if len(node_idx) and g[node_idx].min() == g[node_idx].max():
            return None  # equal gradients: no features drawn, no split
        if m is None or m >= splitter.F:
            features = np.arange(splitter.F)
        else:
            features = np.sort(rng.choice(splitter.F, size=m, replace=False))
        G, H = float(g[node_idx].sum()), float(h[node_idx].sum())
        # a node with H + lambda <= 0 is degenerate before its gains divide
        # by it, as the grower finds when it makes the node
        trees.leaf_weight(G, H, params.lam)
        return splitter.search(g, h, [trees._Candidate(
            node_idx, entry[2], features, G, H)], h_prefix)[0]

    # nodes: [feature, threshold, gain, value, left, right]; frontier
    # entries: [node id, rows, sorted rows or None, depth, cached search]
    nodes = [[-1, 0.0, 0.0, 0.0, -1, -1]]
    frontier = [[0, idx, sorted_rows(splitter.X, idx) if exact else None,
                 0, None]]
    n_leaves = 1
    while frontier:
        if growth == "level":
            entry = frontier.pop(0)
        else:
            for entry in frontier:
                if entry[4] is None:
                    entry[4] = ("eval", search(entry))
            candidates = [
                e for e in frontier
                if e[4][1] is not None and e[4][1][0] > 0
                and e[3] < params.max_depth
            ]
            if not candidates or n_leaves >= max_leaves:
                break
            entry = max(candidates, key=lambda e: e[4][1][0])
            frontier = [e for e in frontier if e is not entry]
        node, node_idx, rows, depth, cached = entry
        if (
            depth >= params.max_depth
            or n_leaves >= max_leaves
            or len(node_idx) < 2
        ):
            nodes[node][3] = leaf_value(node_idx)
            continue
        found = cached[1] if cached else search(entry)
        if found is None or found[0] <= 0:
            nodes[node][3] = leaf_value(node_idx)
            continue
        gain, f, threshold = found
        goes_left = splitter.X[:, f] <= threshold
        nodes[node] = [f, threshold, gain, 0.0, len(nodes), len(nodes) + 1]
        n_leaves += 1
        for side in (goes_left, ~goes_left):
            child_rows = (None if rows is None
                          else rows[side[rows]].reshape(splitter.F, -1))
            frontier.append(
                [len(nodes), node_idx[side[node_idx]], child_rows,
                 depth + 1, None])
            nodes.append([-1, 0.0, 0.0, 0.0, -1, -1])
    for entry in frontier:  # unexpanded leaf-wise leftovers become leaves
        nodes[entry[0]][3] = leaf_value(entry[1])
    return trees._preorder_tree(nodes)


def css_residuals_oracle(w, intercept, ar, ma):
    """Recursive CSS residuals, one bar at a time, as ``arima._css_residuals``
    computed them before the AR part was vectorised: pre-sample residuals are
    zero, the AR part is ``intercept + ar @ lags`` and each MA term is added
    in lag order."""
    p, q = len(ar), len(ma)
    n = len(w)
    resid = np.zeros(n)
    start = p
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(start, n):
            pred = intercept
            if p:
                pred += ar @ w[t - p:t][::-1]
            for j in range(1, q + 1):
                if t - j >= start:
                    pred += ma[j - 1] * resid[t - j]
            resid[t] = w[t] - pred
    if not np.isfinite(resid).all():
        raise DegenerateFitError("residual recursion diverged (non-invertible MA)")
    return resid[start:]


_CSS_MAX_ITER = 50
_CSS_TOL = 1e-8


def css_fit_oracle(series, p, d, q):
    """``arima.fit_arma`` as it estimated ARMA(p, q) before Hannan-Rissanen:
    ordinary least squares for the AR part, then, for q >= 1, the
    regression on lagged values and lagged recursive residuals iterated
    until the coefficients move by less than ``_CSS_TOL`` (conditional sum
    of squares). Raises ``DegenerateFitError`` when it does not converge in
    ``_CSS_MAX_ITER`` iterations."""
    x = np.asarray(series, dtype=float)
    w = np.diff(x, n=d) if d > 0 else x
    n = len(w)
    if n < 10 * (p + q + 1):
        raise InsufficientDataError(
            f"{n} points after differencing; need >= {10 * (p + q + 1)} "
            f"for ARMA({p},{q})"
        )
    # AR + intercept by ordinary least squares on lagged values
    rows = n - p
    design = np.ones((rows, 1 + p))
    for i in range(1, p + 1):
        design[:, i] = w[p - i:n - i]
    target = w[p:]
    coef = arima._solve_lstsq(design, target)
    intercept, ar = float(coef[0]), coef[1:]
    ma = np.zeros(q)
    if q > 0:
        # iterated CSS: regress on lagged values and lagged recursive residuals
        prev = np.concatenate(([intercept], ar, ma))
        for _ in range(_CSS_MAX_ITER):
            resid_full = np.zeros(n)
            resid_full[p:] = arima._css_residuals(w, intercept, ar, ma)
            design_q = np.ones((rows, 1 + p + q))
            for i in range(1, p + 1):
                design_q[:, i] = w[p - i:n - i]
            for j in range(1, q + 1):
                lagged = np.zeros(rows)
                lagged[j:] = resid_full[p:n - j]
                design_q[:, p + j] = lagged
            coef = arima._solve_lstsq(design_q, target)
            intercept, ar, ma = float(coef[0]), coef[1:1 + p], coef[1 + p:]
            if np.max(np.abs(coef - prev)) < _CSS_TOL:
                break
            prev = coef
        else:
            raise DegenerateFitError(
                f"MA estimation did not converge in {_CSS_MAX_ITER} iterations"
            )
    resid = arima._css_residuals(w, intercept, ar, ma)
    return arima.ArmaModel(
        p=p,
        d=d,
        q=q,
        ar_coeffs=np.asarray(ar, dtype=float),
        ma_coeffs=np.asarray(ma, dtype=float),
        intercept=intercept,
        residuals=resid,
    )


def hannan_rissanen_oracle(w, p, q):
    """Hannan-Rissanen ARMA(p, q) coefficients ``[intercept, ar..., ma...]``
    with both designs built one row at a time: a long AR of order
    m = max(2(p+q), 20), capped at (n - p - q) // 4, with an intercept; its
    recursive residuals, zero for the first m rows, stand in for the
    innovations; then w[t] on [1, w[t-1..t-p], e[t-1..t-q]] over
    t >= max(m + q, p)."""
    n = len(w)
    m = min(max(2 * (p + q), 20), (n - p - q) // 4)
    rows = [[1.0] + [w[t - i] for i in range(1, m + 1)] for t in range(m, n)]
    long_ar = arima._solve_lstsq(np.array(rows), w[m:])
    e = np.zeros(n)
    e[m:] = arima._css_residuals(w, float(long_ar[0]), long_ar[1:], [])
    start = max(m + q, p)
    rows = [[1.0] + [w[t - i] for i in range(1, p + 1)]
            + [e[t - j] for j in range(1, q + 1)] for t in range(start, n)]
    return arima._solve_lstsq(np.array(rows), w[start:])


def _one_step_forecast_oracle(w, resid, model):
    pred = model.intercept
    for i in range(1, model.p + 1):
        pred += model.ar_coeffs[i - 1] * w[-i]
    for j in range(1, model.q + 1):
        pred += model.ma_coeffs[j - 1] * resid[-j]
    return float(pred)


def rolling_forecast_oracle(series, order, fit_len, refit_every=500):
    """Causal one-step forecast column, one bar at a time, as
    ``arima.rolling_forecast_feature`` computed it before it worked per
    refit block: every refit recomputes the residuals of the whole history
    with ``css_residuals_oracle``, and the history grows by ``np.append``.
    Fits go through ``arima.fit_arma``, and a failed refit raises."""
    x = np.asarray(series, dtype=float)
    p, d, q = order
    n = len(x)
    out = np.full(n, np.nan)
    model = None
    w_hist = np.array([])
    resid_hist = np.array([])
    for t in range(fit_len, n):
        if model is None or (t - fit_len) % refit_every == 0:
            model = arima.fit_arma(x[:t], p, d, q)
            w_hist = np.diff(x[:t], n=d) if d > 0 else x[:t]
            resid_full = np.zeros(len(w_hist))
            resid_full[p:] = css_residuals_oracle(
                w_hist, model.intercept, model.ar_coeffs, model.ma_coeffs
            )
            resid_hist = resid_full
        else:
            new_w = x[t - 1] - x[t - 2] if d == 1 else x[t - 1]
            pred_w = _one_step_forecast_oracle(w_hist, resid_hist, model)
            w_hist = np.append(w_hist, new_w)
            resid_hist = np.append(resid_hist, new_w - pred_w)
        forecast_w = _one_step_forecast_oracle(w_hist, resid_hist, model)
        out[t] = forecast_w + (x[t - 1] if d == 1 else 0.0)
    return out
