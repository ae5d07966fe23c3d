import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxstack import recap
from fxstack.errors import LeakageError, ParameterError
from fxstack.market_data import generate_planted_frame, split_spec_from_fractions
from fxstack.recurrent import RnnArch, TrainConfig
from fxstack.trees import BoostParams, ForestParams, ImportanceVector


def vec(kind="gain", **scores):
    return ImportanceVector(kind=kind, scores=scores)


def test_normalize_minmax():
    out = recap.normalize_scores(vec(a=2.0, b=6.0, c=4.0)).scores
    assert out == {"a": 0.0, "b": 1.0, "c": 0.5}


def test_normalize_all_equal_maps_to_half():
    out = recap.normalize_scores(vec(a=3.0, b=3.0)).scores
    assert out == {"a": 0.5, "b": 0.5}


def test_recap_scores_independent_recomputation():
    norm = [
        vec(a=1.0, b=0.0, c=0.5),
        vec(a=0.2, b=1.0, c=0.0),
        vec(a=0.0, b=0.5, c=1.0),
    ]
    rmses = [0.5, 0.25, 1.0]
    got = recap.recap_scores(norm, rmses)
    for name in ("a", "b", "c"):
        expected = sum(v.scores[name] / r for v, r in zip(norm, rmses))
        assert got[name] == expected  # exact, not approximate


@settings(max_examples=50)
@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_topk_invariant_under_common_rmse_rescale(scale):
    norm = [
        vec(a=1.0, b=0.3, c=0.5, d=0.1),
        vec(a=0.2, b=0.9, c=0.0, d=0.4),
        vec(a=0.1, b=0.5, c=1.0, d=0.0),
    ]
    rmses = [0.5, 0.25, 1.0]
    base = recap.top_k_columns(recap.recap_scores(norm, rmses), 2)
    scaled = recap.top_k_columns(
        recap.recap_scores(norm, [r * scale for r in rmses]), 2)
    assert base == scaled


def test_recap_scores_validation():
    with pytest.raises(ParameterError):
        recap.recap_scores([vec(a=1.0)], [0.5, 0.5])
    with pytest.raises(ParameterError):
        recap.recap_scores([vec(a=1.0), vec(b=1.0)], [0.5, 0.5])
    with pytest.raises(ParameterError):
        recap.recap_scores([vec(a=1.0)], [0.0])


def test_top_k_ties_break_lexicographically():
    scores = {"b": 1.0, "a": 1.0, "c": 2.0, "d": 0.5}
    assert recap.top_k_columns(scores, 3) == ["c", "a", "b"]
    with pytest.raises(ParameterError):
        recap.top_k_columns(scores, 0)


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
                                growth="leaf", splitter="histogram", bins=32,
                                goss=(0.2, 0.1)),
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
    # final scores fuse the three normalized vectors exactly
    ordered = [m for m, _ in recap.RecapConfig.MODEL_KINDS]
    expected = recap.recap_scores(
        [result.normalized[m] for m in ordered],
        [result.model_rmses[m] for m in ordered])
    assert result.final_scores == expected


def test_run_recap_deterministic(planted):
    spec = split_spec_from_fractions(planted.frame.index, (0.7, 0.15, 0.15))
    a = recap.run_recap(planted.frame, spec, _quick_config(seed=5))
    b = recap.run_recap(planted.frame, spec, _quick_config(seed=5))
    assert a.final_scores == b.final_scores
    assert a.final_metrics.rmse == b.final_metrics.rmse


def test_leakage_guard_rejects_overlap(planted):
    spec = split_spec_from_fractions(planted.frame.index, (0.7, 0.15, 0.15))
    overlapping = (spec.validation[0], spec.test[1])
    with pytest.raises(LeakageError):
        recap.run_recap(planted.frame, spec, _quick_config(),
                        final_test_range=overlapping)


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
