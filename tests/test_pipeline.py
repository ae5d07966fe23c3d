import dataclasses
import json
import math
import os

import pytest

from fxstack import pipeline, trees
from fxstack.config import PipelineConfig
from fxstack.errors import SchemaError, SpecError
from fxstack.evaluation import compute_metrics
from fxstack.market_data import in_range, split_spec_from_fractions
from fxstack.pipeline import BASE_LEARNERS, StageError, run_pipeline
from fxstack.recurrent import rnn_from_dict, rnn_to_dict
from fxstack.stacking import MODEL_ORDER

SMALL = dict(
    synthetic_n=1200, recap_ks=(6,), xgb_n_trees=8, lgbm_n_trees=8,
    forest_n_trees=6, rnn_epochs=2, rnn_hidden=8, recap_rnn_epochs=2,
    recap_rnn_hidden=8, meta_epochs=30, arima_fit_len=400, seed=5,
)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = PipelineConfig(out_dir=str(out), **SMALL)
    report = run_pipeline(cfg)
    return cfg, report, out


def test_run_completes_and_emits_artifacts(run):
    _, report, out = run
    for rel in ("report.json", "recap_scores.csv", "metrics_table.csv",
                "stacking_report.csv", "timings.json",
                "models/xgboost.json", "models/lightgbm.json",
                "models/random_forest.json", "models/lstm.json",
                "models/gru.json"):
        assert (out / rel).exists(), rel
        assert rel in report.artifacts


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_rnn_artifacts_load(run, cell):
    _, _, out = run
    payload = json.loads((out / "models" / f"{cell}.json").read_text())
    model = rnn_from_dict(payload)
    assert model.arch.cell == cell
    assert model.arch.hidden_size == SMALL["rnn_hidden"]
    assert model.W.shape[0] == {"gru": 3, "lstm": 4}[cell]


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_model_artifacts_round_trip(run, name):
    """Each model file loads with its loader and writes the same bytes."""
    _, _, out = run
    text = (out / "models" / f"{name}.json").read_text()
    load, dump = ((rnn_from_dict, rnn_to_dict) if name in ("lstm", "gru")
                  else (trees.model_from_dict, trees.model_to_dict))
    assert json.dumps(dump(load(json.loads(text))), sort_keys=True) == text


@pytest.fixture(scope="module")
def test_frame(run):
    """The run's test (stacking) range on its selected features, recomputed
    from its config as the pipeline computes it."""
    cfg, report, _ = run
    series, _ = pipeline._ingest(cfg)
    frame, _, _ = pipeline._features(cfg, series)
    clean_frame, _ = pipeline._label_and_clean(cfg, series, frame)
    spec = split_spec_from_fractions(clean_frame.index, cfg.main_split)
    narrowed = clean_frame.select(report.selected_features)
    return narrowed.take(in_range(narrowed.index, *spec.test))


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_saved_models_reproduce_the_run(run, test_frame, name):
    """Each model file, loaded with its loader and applied to the run's own
    test windows, scores exactly the run's metrics for that model."""
    cfg, report, out = run
    load = rnn_from_dict if name in ("lstm", "gru") else trees.model_from_dict
    model = load(json.loads((out / "models" / f"{name}.json").read_text()))
    pred = BASE_LEARNERS[name].predict(model, test_frame, cfg)
    windows = pipeline.to_sequences(test_frame, cfg.lookback)
    assert (compute_metrics(pred, windows.y).to_dict()
            == report.base_metrics[name])


def test_report_contents(run):
    _, report, out = run
    assert report.selected_k == 6
    assert report.selected_features
    assert set(report.base_metrics) == {
        "xgboost", "lightgbm", "random_forest", "lstm", "gru"}
    assert set(report.arima_orders) == {"arima_close", "arima_high"}
    assert len(report.stacking["rows"]) == 31
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["selected_k"] == 6
    assert on_disk["arima_refit_fallbacks"] == {"arima_close": 0,
                                                "arima_high": 0}
    assert "timings" not in on_disk
    # timings live in their own artifact, one entry per stage
    timings = json.loads((out / "timings.json").read_text())
    assert {"ingest", "features", "recap", "train", "stack",
            "emit"} <= set(timings)


def test_metrics_table_layout(run):
    _, _, out = run
    lines = (out / "metrics_table.csv").read_text().strip().splitlines()
    assert lines[0] == "input_features,rmse_e3,mae_e3,mape_e3"
    names = [line.split(",")[0] for line in lines[1:]]
    assert "xgboost" in names
    assert any(n.startswith("stacked(") for n in names)


def test_metrics_table_stacked_row(run):
    """The stacked row scores the selected meta-model on meta-test, with the
    same metrics as the stacking report, its MAPE included."""
    _, report, out = run
    selected = report.stacking["rows"][report.stacking["selected_id"]]
    lines = (out / "metrics_table.csv").read_text().strip().splitlines()
    (row,) = [line.split(",") for line in lines if line.startswith("stacked(")]
    assert row[0] == (f"stacked({selected['id']}:"
                      f"{'+'.join(selected['members'])})")
    assert float(row[1]) == pytest.approx(selected["test_rmse"] * 1e3,
                                          rel=1e-9)
    assert float(row[2]) == pytest.approx(selected["test_mae"] * 1e3,
                                          rel=1e-9)
    assert row[3] and math.isfinite(float(row[3]))


@pytest.mark.parametrize(
    "field",
    [f for f in dataclasses.fields(PipelineConfig)
     if isinstance(f.default, bool)],
    ids=lambda f: f"{f.metadata['key']}={str(not f.default).lower()}")
def test_every_switch_runs(tmp_path, field):
    cfg = PipelineConfig(out_dir=str(tmp_path),
                         **{**SMALL, field.name: not field.default})
    report = run_pipeline(cfg)
    assert (tmp_path / "report.json").exists()
    assert len(report.base_metrics) == 5
    assert all(math.isfinite(m["rmse"]) for m in report.base_metrics.values())


def test_invalid_config_rejected_before_compute():
    with pytest.raises(SpecError, match="lookback"):
        run_pipeline(PipelineConfig(lookback=0, **SMALL))


def test_stage_error_names_stage(tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("datetime,open\n")
    cfg = PipelineConfig(source="csv", csv_path=str(csv_path),
                         out_dir=str(tmp_path / "out"))
    with pytest.raises(StageError, match="ingest") as excinfo:
        run_pipeline(cfg)
    assert isinstance(excinfo.value.cause, SchemaError)
    # aborted before any artifact was written
    assert not os.path.exists(tmp_path / "out")
