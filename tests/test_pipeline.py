import json
import os

import pytest

from fxstack.config import PipelineConfig
from fxstack.errors import SchemaError, SpecError
from fxstack.pipeline import StageError, run_pipeline
from fxstack.recurrent import rnn_from_dict

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
    assert model.weights.W.shape[0] == {"gru": 3, "lstm": 4}[cell]


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
