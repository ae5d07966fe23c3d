from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from fxstack import stacking
from fxstack.errors import ParameterError, SplitError, TrainingError
from fxstack.market_data import SplitSpec, split_spec_from_fractions

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
    preds = dict(frame.predictions)
    del preds["gru"]
    with pytest.raises(ParameterError):
        stacking.build_meta_frame(preds, frame.labels, frame.index)
    bad = dict(frame.predictions)
    bad["gru"] = np.full(50, np.nan)
    with pytest.raises(ParameterError, match="gru"):
        stacking.build_meta_frame(bad, frame.labels, frame.index)


def test_split_meta_partitions():
    frame = make_frame(200)
    spec = split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    train, val, test = stacking.split_meta(frame, spec)
    assert len(train.labels) + len(val.labels) + len(test.labels) == 200
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
    labels = frame.predictions["xgboost"].copy()
    frame = stacking.build_meta_frame(frame.predictions, labels, frame.index)
    spec = split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    train, val, test = stacking.split_meta(frame, spec)
    model = stacking.train_meta_nn(
        train, val, stacking.Combination(("xgboost",)), seed=1)
    resid = model.predict(test) - test.labels
    assert np.sqrt(np.mean(resid ** 2)) < 0.1 * np.std(test.labels)


def test_meta_nn_deterministic():
    frame = make_frame(300, seed=4)
    spec = split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    train, val, _ = stacking.split_meta(frame, spec)
    combo = stacking.Combination(("xgboost", "gru"))
    m1 = stacking.train_meta_nn(train, val, combo, seed=9)
    m2 = stacking.train_meta_nn(train, val, combo, seed=9)
    np.testing.assert_array_equal(m1.W1, m2.W1)
    np.testing.assert_array_equal(m1.W2, m2.W2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_meta_nn_divergence_raises_training_error():
    frame = make_frame(300, seed=5)
    spec = split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    train, val, _ = stacking.split_meta(frame, spec)
    cfg = stacking.MetaTrainConfig(learning_rate=1e300)
    with pytest.raises(TrainingError, match="epoch 0"):
        stacking.train_meta_nn(train, val, stacking.Combination(("gru",)),
                               seed=0, cfg=cfg)


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
