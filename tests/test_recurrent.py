import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fxstack import recurrent as rnn
from fxstack.errors import ParameterError, TrainingError
from fxstack.market_data import SequenceDataset
from fxstack.seeding import derive_seed
from oracles import (
    adam_step_oracle,
    gradient_check,
    gru_step_oracle,
    lstm_step_oracle,
    unit_scalers,
)

# make_dataset's inputs are already on a unit scale; this scaler keeps them
UNIT, _ = unit_scalers(3)


def make_dataset(n=200, steps=5, features=3, seed=0, signal=True):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, steps, features))
    if signal:
        y = X[:, -1, 0] * 0.5 + X[:, -2, 1] * 0.25 + rng.normal(size=n) * 0.05
    else:
        y = rng.normal(size=n)
    ts = np.arange(n)
    return SequenceDataset(feature_names=[f"f{i}" for i in range(features)],
                           X=X, y=y, row_timestamps=ts)


def random_weights(cell, seed, input_size=4, hidden_size=6):
    """Glorot weights plus nonzero biases, so every term is exercised."""
    rng = np.random.default_rng(seed)
    w = rnn._build_model(rnn.RnnArch(cell, hidden_size),
                         *unit_scalers(input_size), seed)
    w.b[...] = rng.normal(size=w.b.shape)
    return w, rng.normal(size=(1, 5, input_size))


def test_gru_forward_matches_scalar_oracle():
    w, X = random_weights("gru", seed=1)
    h_T, caches = rnn._gru_forward(w.W, w.U, w.b, X)
    h = np.zeros(w.arch.hidden_size)
    for t, cache in enumerate(caches):
        np.testing.assert_allclose(cache[1][0], h, atol=1e-12)  # h_prev
        h = gru_step_oracle(w, X[0, t], h)
    np.testing.assert_allclose(h_T[0], h, atol=1e-12)


def test_lstm_forward_matches_scalar_oracle():
    w, X = random_weights("lstm", seed=2)
    h_T, caches = rnn._lstm_forward(w.W, w.U, w.b, X)
    h = c = np.zeros(w.arch.hidden_size)
    for t, cache in enumerate(caches):
        np.testing.assert_allclose(cache[1][0], h, atol=1e-12)  # h_prev
        np.testing.assert_allclose(cache[2][0], c, atol=1e-12)  # c_prev
        h, c = lstm_step_oracle(w, X[0, t], h, c)
    np.testing.assert_allclose(h_T[0], h, atol=1e-12)
    np.testing.assert_allclose(caches[-1][7][0], c, atol=1e-12)


def test_gru_gates_old_state():
    """With z saturated at 1, the zero initial state passes through every
    step unchanged (z multiplies the old state, not the candidate)."""
    w, X = random_weights("gru", seed=3, input_size=2, hidden_size=3)
    w.b[0] = 50.0  # z's bias; sigmoid(50) == 1 to machine precision
    h_T, _ = rnn._gru_forward(w.W, w.U, w.b, X)
    np.testing.assert_allclose(h_T, 0.0, atol=1e-12)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_bptt_gradients_match_finite_differences(cell):
    err = gradient_check(rnn.RnnArch(cell=cell, hidden_size=5), seed=7)
    assert err < 1e-4


def test_scaler_constant_column_and_no_clipping():
    data = make_dataset(n=50, seed=4)
    X = data.X.copy()
    X[:, :, 2] = 7.0  # constant column
    data = SequenceDataset(feature_names=data.feature_names, X=X, y=data.y,
                           row_timestamps=data.row_timestamps)
    scaler = rnn.fit_scaler(data)
    scaled = rnn.apply_scaler(scaler, data)
    assert np.all(scaled.X[:, :, 2] == 0.5)
    # out-of-range values are transformed, not clipped
    probe = SequenceDataset(feature_names=data.feature_names,
                            X=data.X * 10.0, y=data.y,
                            row_timestamps=data.row_timestamps)
    out = rnn.apply_scaler(scaler, probe)
    assert out.X[:, :, 0].max() > 1.0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scaler_property(data):
    """On random (rows, lookback, F) windows with some constant columns,
    fitting and applying the scaler warns of nothing, puts the fit rows in
    [0, 1] and every constant column at 0.5, and its inverse gives back
    each varying column."""
    rows, lookback, F = (data.draw(st.integers(1, n)) for n in (6, 4, 4))
    values = st.floats(-1e6, 1e6)
    X = data.draw(arrays(np.float64, (rows, lookback, F), elements=values))
    for f in range(F):
        if data.draw(st.booleans()):
            X[:, :, f] = data.draw(values)
    windows = SequenceDataset(feature_names=[f"f{i}" for i in range(F)],
                              X=X, y=np.zeros(rows),
                              row_timestamps=np.arange(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaler = rnn.fit_scaler(windows)
        scaled = rnn.apply_scaler(scaler, windows).X
        back = scaler.inverse_transform(scaled)
    assert np.all((scaled >= 0.0) & (scaled <= 1.0))
    varying = np.ptp(X.reshape(-1, F), axis=0) > 0
    assert np.all(scaled[:, :, ~varying] == 0.5)
    np.testing.assert_allclose(back[:, :, varying], X[:, :, varying], rtol=0,
                               atol=1e-12 * (1.0 + np.abs(X).max()))


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_training_learns_signal(cell):
    train = make_dataset(n=400, seed=5)
    val = make_dataset(n=100, seed=6)
    cfg = rnn.TrainConfig(batch_size=64, learning_rate=3e-3, max_epochs=30,
                          patience=10, seed=1)
    model, history = rnn.train_rnn(
        train, val, rnn.RnnArch(cell=cell, hidden_size=8), cfg, UNIT)
    assert history[-1].val_rmse < history[0].val_rmse
    pred = rnn.predict_rnn(model, val)
    rmse = np.sqrt(np.mean((pred - val.y) ** 2))
    assert rmse < np.std(val.y)  # beats predicting the mean


def test_training_is_deterministic():
    train = make_dataset(n=200, seed=8)
    val = make_dataset(n=50, seed=9)
    cfg = rnn.TrainConfig(batch_size=64, learning_rate=1e-3, max_epochs=5,
                          seed=3)
    arch = rnn.RnnArch(cell="gru", hidden_size=6)
    m1, _ = rnn.train_rnn(train, val, arch, cfg, UNIT)
    m2, _ = rnn.train_rnn(train, val, arch, cfg, UNIT)
    np.testing.assert_array_equal(rnn.predict_rnn(m1, val),
                                  rnn.predict_rnn(m2, val))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_training_error():
    train = make_dataset(n=100, seed=10)
    val = make_dataset(n=30, seed=11)
    arch = rnn.RnnArch(cell="lstm", hidden_size=8)
    # Adam steps every weight by about the learning rate: 1e12 saturates the
    # gates but keeps the loss finite, 1e300 overflows it in the first epoch
    huge = rnn.TrainConfig(batch_size=32, learning_rate=1e12, max_epochs=3,
                           seed=0)
    _, history = rnn.train_rnn(train, val, arch, huge, UNIT)
    assert len(history) == 3
    cfg = rnn.TrainConfig(batch_size=32, learning_rate=1e300, max_epochs=50,
                          seed=0)
    with pytest.raises(TrainingError, match="at epoch 0$"):
        rnn.train_rnn(train, val, arch, cfg, UNIT)


def _small_model(cell, hidden_size=5):
    """A model trained on inputs min-max scaled by a scaler fit on its
    training rows, and raw validation windows."""
    train = make_dataset(n=150, seed=12)
    val = make_dataset(n=40, seed=13)
    scaler = rnn.fit_scaler(train)
    cfg = rnn.TrainConfig(batch_size=64, learning_rate=1e-3, max_epochs=3,
                          seed=2)
    model, _ = rnn.train_rnn(
        rnn.apply_scaler(scaler, train), rnn.apply_scaler(scaler, val),
        rnn.RnnArch(cell=cell, hidden_size=hidden_size), cfg, scaler)
    return model, val


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_serialization_roundtrip(cell):
    """The weights and both scalers round-trip, so the reloaded model
    predicts the same bits from raw windows."""
    model, val = _small_model(cell)
    payload = json.loads(json.dumps(rnn.rnn_to_dict(model)))
    assert payload["version"] == 3
    restored = rnn.rnn_from_dict(payload)
    for scaler in ("in_scaler", "label_scaler"):
        for end in ("mins", "maxs"):
            np.testing.assert_array_equal(
                getattr(getattr(restored, scaler), end),
                getattr(getattr(model, scaler), end))
    assert not np.array_equal(model.in_scaler.mins, UNIT.mins)
    np.testing.assert_array_equal(rnn.predict_rnn(restored, val),
                                  rnn.predict_rnn(model, val))


@pytest.mark.parametrize("cell,gates", [("gru", 3), ("lstm", 4)])
def test_gate_blocks_are_contiguous(cell, gates):
    """Each gate's block is its own contiguous (H, F) / (H, H) / (H,) array,
    after init and after a JSON round trip."""
    model = rnn._build_model(rnn.RnnArch(cell=cell, hidden_size=5),
                             *unit_scalers(3), seed=0)
    restored = rnn.rnn_from_dict(json.loads(json.dumps(rnn.rnn_to_dict(model))))
    for w in (model, restored):
        assert (w.W.shape, w.U.shape, w.b.shape) == (
            (gates, 5, 3), (gates, 5, 5), (gates, 5))
        for g in range(gates):
            for block in (w.W[g], w.U[g], w.b[g]):
                assert block.flags.c_contiguous


def test_rnn_from_dict_rejects_malformed_payloads():
    good = rnn.rnn_to_dict(rnn._build_model(
        rnn.RnnArch(cell="gru", hidden_size=4), *unit_scalers(3), seed=0))
    lstm_w = rnn._build_model(
        rnn.RnnArch(cell="lstm", hidden_size=4), *unit_scalers(3), seed=0)

    def with_w_entry(value):
        W = json.loads(json.dumps(good["W"]))
        W[1][2][0] = value
        return {**good, "W": W}

    bad = {
        "version 1": {**good, "version": 1},
        "version 2": {**{k: v for k, v in good.items()
                         if k not in ("in_min", "in_max")}, "version": 2},
        "no version": {k: v for k, v in good.items() if k != "version"},
        "missing U": {k: v for k, v in good.items() if k != "U"},
        "missing label_max": {k: v for k, v in good.items()
                              if k != "label_max"},
        "unknown cell": {**good, "cell": "rnn"},
        "cell not a string": {**good, "cell": ["gru"]},
        "hidden_size 0": {**good, "hidden_size": 0},
        "hidden_size text": {**good, "hidden_size": "4"},
        "lstm gate count in a gru": {**good, "W": lstm_w.W.tolist(),
                                     "U": lstm_w.U.tolist(),
                                     "b": lstm_w.b.tolist()},
        "gru payload called lstm": {**good, "cell": "lstm"},
        "W hidden mismatch": {**good, "hidden_size": 5},
        "W not 3-d": {**good, "W": good["W"][0]},
        "W with no features": {**good, "W": [[[]] * 4] * 3},
        "U not square": {**good, "U": [[row[:3] for row in g]
                                       for g in good["U"]]},
        "b short": {**good, "b": [g[:3] for g in good["b"]]},
        "head_w short": {**good, "head_w": good["head_w"][:3]},
        "ragged W": {**good, "W": [good["W"][0], good["W"][1][:2],
                                   good["W"][2]]},
        "text weight": {**good, "head_w": ["a"] * 4},
        "head_b list": {**good, "head_b": [0.0]},
        "head_b text": {**good, "head_b": "0.5"},
        "label_min bool": {**good, "label_min": True},
        "head_b NaN": {**good, "head_b": math.nan},
        "label_max infinite": {**good, "label_max": math.inf},
        "missing in_min": {k: v for k, v in good.items() if k != "in_min"},
        "in_max too long": {**good, "in_max": good["in_max"] + [1.0]},
        "in_min entry infinite": {**good, "in_min": [0.0, -math.inf, 0.0]},
        "W entry text": with_w_entry("1.0"),
        "W entry bool": with_w_entry(True),
        "W entry null": with_w_entry(None),
        "W entry NaN": with_w_entry(math.nan),
        "not a dict": [good],
    }
    for name, payload in bad.items():
        with pytest.raises(ParameterError):
            rnn.rnn_from_dict(payload)
            pytest.fail(name)
    rnn.rnn_from_dict(good)  # the unmodified payload still loads


def test_predict_shape_mismatch_rejected():
    train = make_dataset(n=100, seed=14)
    val = make_dataset(n=30, seed=15)
    cfg = rnn.TrainConfig(batch_size=32, learning_rate=1e-3, max_epochs=2,
                          seed=0)
    arch = rnn.RnnArch(cell="gru", hidden_size=4)
    model, _ = rnn.train_rnn(train, val, arch, cfg, UNIT)
    bad = make_dataset(n=10, features=5, seed=16)
    with pytest.raises(ParameterError):
        rnn.predict_rnn(model, bad)
    for held, scaler in ((bad, UNIT), (val, unit_scalers(5)[0])):
        with pytest.raises(ParameterError, match="feature counts differ"):
            rnn.train_rnn(train, held, arch, cfg, scaler)


def test_flat_adam_matches_per_array_oracle():
    rng = np.random.default_rng(20)
    shapes = [(3, 4, 5), (1,), (4,), (6, 3)]
    params = [rng.normal(size=shape) for shape in shapes]
    expected = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    opt = rnn.Adam(params, learning_rate=3e-3)
    for t in range(1, 51):
        grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                 for shape in shapes[:3]]
        # a non-contiguous gradient: every other column of a wider array
        grads.append(rng.normal(size=(6, 6))[:, ::2])
        assert not grads[-1].flags.c_contiguous
        adam_step_oracle(expected, grads, m, v, t, 3e-3)
        opt.step(grads)
        for got, want in zip(params, expected):
            np.testing.assert_array_equal(got, want)


def test_stopped_model_is_held_at_its_best_weights():
    """Two quadratic models in one loop. Model 0 scores worse after epoch 1,
    stops after epoch 3 and from then on returns infinite losses, gradients
    and scores; the loop neither raises nor warns, holds model 0 still and
    returns its epoch-1 weights, while model 1 trains through all epochs."""
    cfg = rnn.TrainConfig(batch_size=4, learning_rate=0.1, max_epochs=10,
                          patience=1)
    p = np.zeros((2, 3))
    target = np.array([1.0, 2.0, 3.0])
    after_epoch = []  # p after each epoch's last step

    def loss_and_grads(rows):
        assert rows.shape == (2, 4)
        diff = p - target
        loss, grad = np.mean(diff**2, axis=1), 2.0 * diff / 3
        if len(after_epoch) > 3:
            loss[0], grad[0] = np.inf, np.inf
        return loss, [grad]

    def val_rmse():
        after_epoch.append(p.copy())
        epoch = len(after_epoch) - 1
        val0 = [3.0, 2.0, 5.0, 5.0][epoch] if epoch <= 3 else np.inf
        return np.array([val0, 10.0 - epoch])

    rngs = [np.random.default_rng(seed) for seed in (0, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        losses, scores = rnn.train_minibatch([p], loss_and_grads, val_rmse,
                                             8, cfg, rngs)
    assert losses.shape == scores.shape == (10, 2)
    assert scores[:4, 0].tolist() == [3.0, 2.0, 5.0, 5.0]
    assert np.isnan(scores[4:, 0]).all() and np.isnan(losses[4:, 0]).all()
    assert scores[:, 1].tolist() == [10.0 - epoch for epoch in range(10)]
    for held in after_epoch[4:]:
        np.testing.assert_array_equal(held[0], after_epoch[3][0])
    np.testing.assert_array_equal(p[0], after_epoch[1][0])
    np.testing.assert_array_equal(p[1], after_epoch[-1][1])
    assert not np.array_equal(p[0], after_epoch[3][0])


def _train_rnn_full_pass(train, val, arch, cfg):
    """``train_rnn`` as it was when each epoch also ran a forward pass over
    the whole training split to score ``train_rmse``."""
    label_scaler = rnn.MinMaxScaler.fit(train.y)
    model = rnn._build_model(arch, UNIT, label_scaler, cfg.seed)
    y_train = label_scaler.transform(train.y)
    y_val = label_scaler.transform(val.y)
    span = float(label_scaler.maxs - label_scaler.mins) or 1.0
    history = []

    def val_rmse():
        train_rmse = float(np.sqrt(np.mean(
            (rnn._predict_scaled(model, train.X) - y_train) ** 2))) * span
        val_rmse = float(np.sqrt(np.mean(
            (rnn._predict_scaled(model, val.X) - y_val) ** 2))) * span
        history.append(rnn.EpochRecord(len(history), train_rmse, val_rmse))
        return np.array([val_rmse])

    def loss_and_grads(rows):
        loss, grads = rnn._loss_and_grads(model, train.X[rows[0]],
                                          y_train[rows[0]])
        return np.array([loss]), grads

    rnn.train_minibatch(
        [p[None] for p in model.params()], loss_and_grads, val_rmse,
        train.X.shape[0], cfg,
        [np.random.default_rng(derive_seed(cfg.seed, "rnn-batches"))])
    return model, history


# both cells stop early on these data and restore their best weights
HISTORY_CFG = rnn.TrainConfig(batch_size=64, learning_rate=5e-2,
                              max_epochs=12, patience=1, seed=4)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_history_and_weights_match_full_pass_training(cell):
    train = make_dataset(n=150, seed=21)
    val = make_dataset(n=40, seed=22)
    arch = rnn.RnnArch(cell=cell, hidden_size=6)
    model, history = rnn.train_rnn(train, val, arch, HISTORY_CFG, UNIT)
    ref, ref_history = _train_rnn_full_pass(train, val, arch, HISTORY_CFG)
    assert len(history) == len(ref_history)
    assert [r.epoch for r in history] == list(range(len(history)))
    assert [r.val_rmse for r in history] == [r.val_rmse for r in ref_history]
    for got, want in zip(model.params(), ref.params()):
        np.testing.assert_array_equal(got, want)
    assert len(history) < HISTORY_CFG.max_epochs


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_history_train_rmse_is_minibatch_loss_rms(cell, monkeypatch):
    train = make_dataset(n=150, seed=21)
    val = make_dataset(n=40, seed=22)
    epochs = [[]]  # per epoch: (loss, rows) of each minibatch
    loss_and_grads = rnn._loss_and_grads
    predict_scaled = rnn._predict_scaled

    def recording_loss_and_grads(model, X, y):
        loss, grads = loss_and_grads(model, X, y)
        epochs[-1].append((loss, len(y)))
        return loss, grads

    def recording_predict(model, X):
        epochs.append([])  # the validation pass closes an epoch
        return predict_scaled(model, X)

    monkeypatch.setattr(rnn, "_loss_and_grads", recording_loss_and_grads)
    monkeypatch.setattr(rnn, "_predict_scaled", recording_predict)
    _, history = rnn.train_rnn(train, val, rnn.RnnArch(cell, 6), HISTORY_CFG,
                               UNIT)
    epochs.pop()  # opened by the last validation pass
    assert len(epochs) == len(history)
    span = float(train.y.max() - train.y.min())
    for record, batches in zip(history, epochs):
        assert [rows for _, rows in batches] == [64, 64, 22]
        total = 0.0
        for loss, rows in batches:
            total += loss * rows
        assert record.train_rmse == math.sqrt(total / 150) * span


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_training_runs_no_forward_pass_over_train_split(cell, monkeypatch):
    train = make_dataset(n=150, seed=21)
    val = make_dataset(n=40, seed=22)
    gates, forward, backward = rnn._CELLS[cell]
    seen = []

    def recording_forward(W, U, b, X):
        seen.append(X)
        return forward(W, U, b, X)

    monkeypatch.setitem(rnn._CELLS, cell, (gates, recording_forward, backward))
    _, history = rnn.train_rnn(train, val, rnn.RnnArch(cell, 6), HISTORY_CFG,
                               UNIT)
    # per epoch: three minibatches, then one pass over the validation split
    assert [len(X) for X in seen] == [64, 64, 22, 40] * len(history)
    assert not any(np.shares_memory(X, train.X) for X in seen)
