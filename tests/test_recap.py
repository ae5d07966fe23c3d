import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxstack import recap
from fxstack.errors import ParameterError
from fxstack.market_data import (FeatureFrame, split_by_dates,
                                 split_spec_from_fractions, to_sequences,
                                 to_windowed)
from planted import generate_planted_frame
from fxstack.recurrent import MinMaxScaler, RnnArch, TrainConfig
from fxstack.trees import BoostParams, ForestParams


def vec(*scores):
    return np.array(scores)


def test_normalize_minmax():
    v = vec(2.0, 6.0, 4.0)
    assert MinMaxScaler.fit(v).transform(v).tolist() == [0.0, 1.0, 0.5]


def test_normalize_all_equal_maps_to_half():
    v = vec(3.0, 3.0)
    assert MinMaxScaler.fit(v).transform(v).tolist() == [0.5, 0.5]


def test_recap_scores_independent_recomputation():
    norm = [
        vec(1.0, 0.0, 0.5),
        vec(0.2, 1.0, 0.0),
        vec(0.0, 0.5, 1.0),
    ]
    rmses = [0.5, 0.25, 1.0]
    got = recap.recap_scores(norm, rmses)
    for i in range(3):
        expected = sum(v[i] / r for v, r in zip(norm, rmses))
        assert got[i] == expected  # exact, not approximate


@settings(max_examples=50)
@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_topk_invariant_under_common_rmse_rescale(scale):
    names = ["a", "b", "c", "d"]
    norm = [
        vec(1.0, 0.3, 0.5, 0.1),
        vec(0.2, 0.9, 0.0, 0.4),
        vec(0.1, 0.5, 1.0, 0.0),
    ]
    rmses = [0.5, 0.25, 1.0]
    base = recap.top_k_columns(names, recap.recap_scores(norm, rmses), 2)
    scaled = recap.top_k_columns(
        names, recap.recap_scores(norm, [r * scale for r in rmses]), 2)
    assert base == scaled


def test_recap_scores_validation():
    with pytest.raises(ParameterError):
        recap.recap_scores([vec(1.0)], [0.5, 0.5])
    with pytest.raises(ParameterError):
        recap.recap_scores([vec(1.0)], [0.0])


def test_top_k_ties_break_lexicographically():
    names, scores = ["b", "a", "c", "d"], vec(1.0, 1.0, 2.0, 0.5)
    assert recap.top_k_columns(names, scores, 3) == ["c", "a", "b"]
    with pytest.raises(ParameterError):
        recap.top_k_columns(names, scores, 0)


def test_collapse_to_base():
    selected = ["close(t-4)", "rsi(t)", "close(t)", "macd(t-1)", "rsi(t-2)"]
    assert recap.collapse_to_base(selected) == ["close", "rsi", "macd"]
    with pytest.raises(ParameterError):
        recap.collapse_to_base(["not_lagged"])


def _quick_config(seed=0, k=6):
    return recap.RecapConfig(
        k=k, seed=seed,
        boost_params=BoostParams(n_trees=10, max_depth=4),
        hist_params=BoostParams(n_trees=10, max_depth=5, max_leaves=15,
                                splitter="histogram", bins=32, goss=(0.2, 0.1)),
        forest_params=ForestParams(n_trees=8, max_depth=6, m=10),
        rnn_arch=RnnArch(cell="gru", hidden_size=8),
        rnn_cfg=TrainConfig(batch_size=128, learning_rate=3e-3, max_epochs=3,
                            patience=2),
    )


@pytest.fixture(scope="module")
def planted():
    return generate_planted_frame(1500, n_features=8, n_informative=2, seed=2)


def test_run_recap_structure(planted):
    spec = split_spec_from_fractions(planted.frame.index, (0.7, 0.15, 0.15))
    result = recap.run_recap(planted.frame, spec, _quick_config())
    assert set(result.model_rmses) == {"xgboost", "lightgbm", "random_forest"}
    assert all(r > 0 for r in result.model_rmses.values())
    assert len(result.selected_lagged) == 6
    assert result.selected_base == recap.collapse_to_base(result.selected_lagged)
    # final scores fuse the three normalized vectors exactly, per column of
    # the windowed train range
    ordered = [m for m, _, _ in recap.IMPORTANCE_MODELS]
    expected = recap.recap_scores(
        [result.normalized[m] for m in ordered],
        [result.model_rmses[m] for m in ordered])
    train = split_by_dates(planted.frame, spec)[0]
    names = to_windowed(
        to_sequences(train, _quick_config().lookback)).feature_names
    assert result.final_scores == dict(zip(names, expected.tolist()))


def test_run_recap_deterministic(planted):
    spec = split_spec_from_fractions(planted.frame.index, (0.7, 0.15, 0.15))
    a = recap.run_recap(planted.frame, spec, _quick_config(seed=5))
    b = recap.run_recap(planted.frame, spec, _quick_config(seed=5))
    assert a.final_scores == b.final_scores
    assert a.final_metrics.rmse == b.final_metrics.rmse


def test_recap_never_reads_test_rows(planted):
    frame = planted.frame
    spec = split_spec_from_fractions(frame.index, (0.7, 0.15, 0.15))
    expected = recap.run_recap(frame, spec, _quick_config()).to_dict()
    # overwrite every column, label included, on the test rows only
    rows = spec.test
    columns = {name: values.copy() for name, values in frame.columns.items()}
    for values in columns.values():
        values[rows] = values[rows][::-1] * 7 + 3
    changed = FeatureFrame(index=frame.index, columns=columns,
                           label_name=frame.label_name)
    assert recap.run_recap(changed, spec, _quick_config()).to_dict() == expected


def test_export_scores_csv(tmp_path, planted):
    spec = split_spec_from_fractions(planted.frame.index, (0.7, 0.15, 0.15))
    result = recap.run_recap(planted.frame, spec, _quick_config())
    path = tmp_path / "scores.csv"
    recap.export_scores_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "feature,score"
    scores = [float(line.split(",")[1]) for line in lines[1:]]
    assert scores == sorted(scores, reverse=True)
    assert len(scores) == len(result.final_scores)
