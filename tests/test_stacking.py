from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from fxstack import stacking
from fxstack.errors import ParameterError, SplitError, TrainingError
from fxstack.market_data import SplitSpec, split_spec_from_fractions
from fxstack.seeding import derive_seed
from oracles import meta_nn_oracle

UTC = timezone.utc


def make_frame(n=600, seed=0, noise=0.05):
    """Labels = mean of the xgboost and gru predictions plus small noise."""
    rng = np.random.default_rng(seed)
    truth = np.cumsum(rng.normal(size=n)) * 0.01 + 1.0
    preds = {}
    for i, name in enumerate(stacking.MODEL_ORDER):
        quality = 0.02 if name in ("xgboost", "gru") else 0.2
        preds[name] = truth + rng.normal(size=n) * quality
    labels = (preds["xgboost"] + preds["gru"]) / 2 + rng.normal(size=n) * noise
    ts = np.array([datetime(2021, 1, 1, tzinfo=UTC) + timedelta(minutes=15 * i)
                   for i in range(n)], dtype=object)
    return stacking.build_meta_frame(preds, labels, ts)


def test_enumerate_combinations_structure():
    combos = stacking.enumerate_combinations()
    assert len(combos) == 31
    sizes = Counter(len(c.members) for c in combos)
    assert sizes == {1: 5, 2: 10, 3: 10, 4: 5, 5: 1}
    assert combos[0].members == ("xgboost",)
    assert combos[-1].members == stacking.MODEL_ORDER
    assert len({c.members for c in combos}) == 31


def test_combination_validation_and_label():
    with pytest.raises(ParameterError):
        stacking.Combination(members=())
    with pytest.raises(ParameterError):
        stacking.Combination(members=("prophet",))
    assert stacking.Combination(("lstm", "gru")).label() == "lstm+gru"


def test_build_meta_frame_validation():
    frame = make_frame(50)
    preds = {m: frame.column(m) for m in stacking.MODEL_ORDER}
    del preds["gru"]
    with pytest.raises(ParameterError):
        stacking.build_meta_frame(preds, frame.label, frame.index)
    bad = {m: frame.column(m) for m in stacking.MODEL_ORDER}
    bad["gru"] = np.full(50, np.nan)
    with pytest.raises(ParameterError, match="gru"):
        stacking.build_meta_frame(bad, frame.label, frame.index)


def test_split_meta_partitions():
    frame = make_frame(200)
    spec = split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    train, val, test = stacking.split_meta(frame, spec)
    assert len(train.label) + len(val.label) + len(test.label) == 200
    assert train.index[-1] < val.index[0] <= val.index[-1] < test.index[0]


def test_split_meta_empty_range_rejected():
    frame = make_frame(50)
    t0 = frame.index[-1] + timedelta(days=1)
    spec = SplitSpec(
        train=(t0, t0 + timedelta(days=1)),
        validation=(t0 + timedelta(days=1), t0 + timedelta(days=2)),
        test=(t0 + timedelta(days=2), t0 + timedelta(days=3)),
    )
    with pytest.raises(SplitError):
        stacking.split_meta(frame, spec)


def test_meta_nn_learns_near_identity():
    frame = make_frame(800, seed=3, noise=1e-4)
    # label == xgboost predictions exactly: the network should calibrate
    labels = frame.column("xgboost").copy()
    frame = stacking.build_meta_frame(
        {m: frame.column(m) for m in stacking.MODEL_ORDER}, labels, frame.index)
    spec = split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    train, val, test = stacking.split_meta(frame, spec)
    (model,) = stacking.train_meta_nn(
        train, val, [stacking.Combination(("xgboost",))], [1])
    resid = model.predict(test) - test.label
    assert np.sqrt(np.mean(resid ** 2)) < 0.1 * np.std(test.label)


def test_meta_nn_deterministic():
    frame = make_frame(300, seed=4)
    spec = split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    train, val, _ = stacking.split_meta(frame, spec)
    combo = stacking.Combination(("xgboost", "gru"))
    (m1,) = stacking.train_meta_nn(train, val, [combo], [9])
    (m2,) = stacking.train_meta_nn(train, val, [combo], [9])
    np.testing.assert_array_equal(m1.W1, m2.W1)
    np.testing.assert_array_equal(m1.W2, m2.W2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_meta_nn_divergence_raises_training_error():
    frame = make_frame(300, seed=5)
    spec = split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    train, val, _ = stacking.split_meta(frame, spec)
    cfg = stacking.MetaTrainConfig(learning_rate=1e300)
    with pytest.raises(TrainingError, match="epoch 0"):
        stacking.train_meta_nn(train, val, [stacking.Combination(("gru",))],
                               [0], cfg=cfg)


# on make_frame(300, seed=11) meta-train has 180 rows: patience 3 stops the
# nets at many different epochs, 64-row batches leave a 52-row remainder and
# one 256-row batch takes every row
ORACLE_CFGS = {
    "patience-3": stacking.MetaTrainConfig(hidden=8, max_epochs=60,
                                           patience=3, batch_size=60),
    "partial-batch": stacking.MetaTrainConfig(hidden=8, max_epochs=40,
                                              patience=10, batch_size=64),
    "one-batch": stacking.MetaTrainConfig(hidden=8, max_epochs=40,
                                          patience=5, batch_size=256),
}


def _oracle_split():
    frame = make_frame(300, seed=11)
    spec = split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    return frame, spec, stacking.split_meta(frame, spec)


@pytest.mark.parametrize("case", ORACLE_CFGS)
def test_stacked_fit_matches_per_net_oracle(case):
    cfg = ORACLE_CFGS[case]
    _, _, (train, val, _) = _oracle_split()
    combos = stacking.enumerate_combinations()
    seeds = [derive_seed(5, "stacking", k) for k in range(len(combos))]
    models = stacking.train_meta_nn(train, val, combos, seeds, cfg)
    assert len(models) == 31
    epochs_run = []
    for model, combo, seed in zip(models, combos, seeds):
        ref, epochs = meta_nn_oracle(train, val, combo, seed, cfg)
        epochs_run.append(epochs)
        assert model.members == combo.members
        for name in ("W1", "b1", "W2", "b2"):
            np.testing.assert_array_equal(getattr(model, name),
                                          getattr(ref, name))
    if case == "patience-3":
        assert len(set(epochs_run)) > 10 and min(epochs_run) < cfg.max_epochs


def test_search_report_matches_oracle_models(monkeypatch):
    frame, spec, _ = _oracle_split()
    cfg = ORACLE_CFGS["partial-batch"]
    report = stacking.run_stacking_search(frame, spec, seed=3, cfg=cfg)

    def oracle_fit(meta_train, meta_val, combos, seeds, cfg):
        return [meta_nn_oracle(meta_train, meta_val, c, s, cfg)[0]
                for c, s in zip(combos, seeds)]

    monkeypatch.setattr(stacking, "train_meta_nn", oracle_fit)
    expected = stacking.run_stacking_search(frame, spec, seed=3, cfg=cfg)
    assert report.to_json() == expected.to_json()


def test_meta_nn_needs_one_seed_per_combination():
    _, _, (train, val, _) = _oracle_split()
    with pytest.raises(ParameterError, match="2 combinations but 1 seeds"):
        stacking.train_meta_nn(train, val, [stacking.Combination(("gru",)),
                                            stacking.Combination(("lstm",))],
                               [0])


@pytest.fixture(scope="module")
def search_report():
    frame = make_frame(500, seed=7)
    spec = split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    cfg = stacking.MetaTrainConfig(max_epochs=60, patience=10)
    return stacking.run_stacking_search(frame, spec, seed=0, cfg=cfg)


def test_search_reports_all_31_rows(search_report):
    assert len(search_report.rows) == 31
    assert [r.combo_id for r in search_report.rows] == list(range(31))
    assert search_report.selection_basis == "validation"


def test_selected_beats_every_singleton(search_report):
    singles = [r for r in search_report.rows if len(r.members) == 1]
    assert search_report.selected.val_rmse <= min(r.val_rmse for r in singles)


def test_selected_subset_contains_an_informative_model(search_report):
    # labels were built from xgboost and gru predictions
    assert set(search_report.selected.members) & {"xgboost", "gru"}


def test_report_csv_layout(search_report):
    lines = search_report.to_csv().strip().splitlines()
    assert lines[0] == "id,rmse,mae,combination"
    assert len(lines) == 32
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "xgboost"


def test_report_json_marks_winner(search_report):
    import json
    payload = json.loads(search_report.to_json())
    assert payload["selected_id"] == search_report.selected_id
    assert payload["rows"][payload["selected_id"]]["members"] == list(
        search_report.selected.members)
