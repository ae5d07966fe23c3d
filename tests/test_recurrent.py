import json

import numpy as np
import pytest

from fxstack import recurrent as rnn
from fxstack.errors import ParameterError, TrainingError
from fxstack.market_data import SequenceDataset
from oracles import gru_step_oracle, lstm_step_oracle


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


def random_weights(cls, seed, input_size=4, hidden_size=6):
    """Glorot weights plus nonzero biases, so every term is exercised."""
    rng = np.random.default_rng(seed)
    w = cls.init(rng, input_size=input_size, hidden_size=hidden_size)
    for name in cls.FIELDS:
        if name.startswith("b_"):
            getattr(w, name)[:] = rng.normal(size=hidden_size)
    return w, rng.normal(size=(1, 5, input_size))


def test_gru_forward_matches_scalar_oracle():
    w, X = random_weights(rnn.GruWeights, seed=1)
    h_T, caches = rnn._gru_forward(w, X)
    h = np.zeros(w.hidden_size)
    for t, cache in enumerate(caches):
        np.testing.assert_allclose(cache[1][0], h, atol=1e-12)  # h_prev
        h = gru_step_oracle(w, X[0, t], h)
    np.testing.assert_allclose(h_T[0], h, atol=1e-12)


def test_lstm_forward_matches_scalar_oracle():
    w, X = random_weights(rnn.LstmWeights, seed=2)
    h_T, caches = rnn._lstm_forward(w, X)
    h = c = np.zeros(w.hidden_size)
    for t, cache in enumerate(caches):
        np.testing.assert_allclose(cache[1][0], h, atol=1e-12)  # h_prev
        np.testing.assert_allclose(cache[2][0], c, atol=1e-12)  # c_prev
        h, c = lstm_step_oracle(w, X[0, t], h, c)
    np.testing.assert_allclose(h_T[0], h, atol=1e-12)
    np.testing.assert_allclose(caches[-1][7][0], c, atol=1e-12)


def test_gru_gates_old_state():
    """With z saturated at 1, the zero initial state passes through every
    step unchanged (z multiplies the old state, not the candidate)."""
    w, X = random_weights(rnn.GruWeights, seed=3, input_size=2, hidden_size=3)
    w.b_z[:] = 50.0  # sigmoid(50) == 1 to machine precision
    h_T, _ = rnn._gru_forward(w, X)
    np.testing.assert_allclose(h_T, 0.0, atol=1e-12)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_bptt_gradients_match_finite_differences(cell):
    err = rnn.gradient_check(rnn.RnnArch(cell=cell, hidden_size=5), seed=7)
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


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_training_learns_signal(cell):
    train = make_dataset(n=400, seed=5)
    val = make_dataset(n=100, seed=6)
    cfg = rnn.TrainConfig(batch_size=64, learning_rate=3e-3, max_epochs=30,
                          patience=10, seed=1)
    model, history = rnn.train_rnn(
        train, val, rnn.RnnArch(cell=cell, hidden_size=8), cfg)
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
    m1, _ = rnn.train_rnn(train, val, arch, cfg)
    m2, _ = rnn.train_rnn(train, val, arch, cfg)
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
    _, history = rnn.train_rnn(train, val, arch, huge)
    assert len(history) == 3
    cfg = rnn.TrainConfig(batch_size=32, learning_rate=1e300, max_epochs=50,
                          seed=0)
    with pytest.raises(TrainingError, match="at epoch 0$"):
        rnn.train_rnn(train, val, arch, cfg)


def test_serialization_roundtrip():
    train = make_dataset(n=150, seed=12)
    val = make_dataset(n=40, seed=13)
    cfg = rnn.TrainConfig(batch_size=64, learning_rate=1e-3, max_epochs=3,
                          seed=2)
    model, _ = rnn.train_rnn(
        train, val, rnn.RnnArch(cell="gru", hidden_size=5), cfg)
    payload = json.loads(json.dumps(rnn.rnn_to_dict(model)))
    restored = rnn.rnn_from_dict(payload)
    np.testing.assert_allclose(rnn.predict_rnn(restored, val),
                               rnn.predict_rnn(model, val), atol=1e-12)


def test_predict_shape_mismatch_rejected():
    train = make_dataset(n=100, seed=14)
    val = make_dataset(n=30, seed=15)
    cfg = rnn.TrainConfig(batch_size=32, learning_rate=1e-3, max_epochs=2,
                          seed=0)
    model, _ = rnn.train_rnn(
        train, val, rnn.RnnArch(cell="gru", hidden_size=4), cfg)
    bad = make_dataset(n=10, features=5, seed=16)
    with pytest.raises(ParameterError):
        rnn.predict_rnn(model, bad)


def test_history_csv_export(tmp_path):
    train = make_dataset(n=100, seed=17)
    val = make_dataset(n=30, seed=18)
    cfg = rnn.TrainConfig(batch_size=32, learning_rate=1e-3, max_epochs=3,
                          seed=0)
    _, history = rnn.train_rnn(
        train, val, rnn.RnnArch(cell="gru", hidden_size=4), cfg)
    path = tmp_path / "history.csv"
    rnn.export_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_rmse,val_rmse"
    assert len(lines) == len(history) + 1
