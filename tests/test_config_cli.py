import dataclasses
import json
import re

import pytest

from fxstack import cli, config
from fxstack.errors import SpecError
from test_pipeline import SMALL


def test_defaults_are_valid():
    cfg = config.PipelineConfig()
    assert config.validate_config(cfg) == []


def test_parse_text_config():
    cfg = config.parse_config_text("""
        # comment line
        data.source = synthetic
        data.n = 2500
        seed = 11
        recap.k = 20,30
        split.main = 0.6,0.2,0.2
        paper_mode = true
        models.rnn.lr = 0.001
    """)
    assert cfg.synthetic_n == 2500
    assert cfg.seed == 11
    assert cfg.recap_ks == (20, 30)
    assert cfg.main_split == (0.6, 0.2, 0.2)
    assert cfg.paper_mode is True
    assert cfg.rnn_lr == 0.001


def test_parse_json_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "data.source": "synthetic",
        "data.n": 1800,
        "recap.k": [20],
        "features.arima": False,
    }))
    cfg = config.load_config(str(path))
    assert cfg.synthetic_n == 1800
    assert cfg.recap_ks == (20,)
    assert cfg.use_arima is False


def test_unknown_key_rejected():
    with pytest.raises(SpecError, match="unknown config key"):
        config.parse_config_text("data.frequency = 15m")


def test_bad_values_rejected():
    with pytest.raises(SpecError):
        config.parse_config_text("data.n = many")
    with pytest.raises(SpecError):
        config.parse_config_text("paper_mode = maybe")
    with pytest.raises(SpecError):
        config.parse_config_text("just a line without equals")


def test_mapping_roundtrip():
    cfg = config.PipelineConfig(seed=99, recap_ks=(20, 30))
    echoed = config.config_from_mapping(config.config_to_mapping(cfg))
    assert echoed == cfg


def test_bool_and_fractional_json_values_rejected():
    # these used to load as 1500, (20,), 1 and (1.0, 0.2, 0.2); an infinite
    # seed raised OverflowError
    for key, value in (("data.n", 1500.9), ("recap.k", [20.7]),
                       ("horizon", True), ("split.main", [True, 0.2, 0.2]),
                       ("seed", float("inf"))):
        with pytest.raises(SpecError, match=key):
            config.config_from_mapping({key: value})
    cfg = config.config_from_mapping({"data.n": 1500.0, "recap.k": [20.0]})
    assert cfg.synthetic_n == 1500 and cfg.recap_ks == (20,)


def test_key_table_roundtrips_every_field():
    fields = dataclasses.fields(config.PipelineConfig)
    keys = [f.metadata["key"] for f in fields]
    assert len(set(keys)) == len(keys)
    changed = {}
    for field in fields:
        default = field.default
        if default is None:
            value = "bars.csv"
        elif isinstance(default, bool):
            value = not default
        elif isinstance(default, tuple):
            value = tuple(v + 1 for v in default)
        elif isinstance(default, str):
            value = default + "x"
        else:
            value = default + 1
        changed[field.name] = value
    cfg = config.PipelineConfig(**changed)
    assert all(getattr(cfg, name) != getattr(config.PipelineConfig(), name)
               for name in changed)
    lines = []
    for key, value in config.config_to_mapping(cfg).items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    assert config.parse_config_text("\n".join(lines)) == cfg


def test_validate_flags_bad_bounds():
    cfg = config.PipelineConfig(lookback=0, horizon=0)
    messages = [f.message for f in config.validate_config(cfg)
                if f.severity == "error"]
    assert any("lookback" in m for m in messages)
    assert any("horizon" in m for m in messages)


# field -> the dotted key its bound error names
DOTTED_KEYS = {
    "lgbm_max_leaves": "models.lightgbm.max_leaves",
    "lgbm_bins": "models.lightgbm.bins",
    "forest_m": "models.forest.m",
    "xgb_max_depth": "models.xgboost.max_depth",
    "forest_max_depth": "models.forest.max_depth",
    "recap_rnn_hidden": "recap.rnn_hidden",
    "rnn_batch": "models.rnn.batch",
    "recap_rnn_lr": "recap.rnn_lr",
    "rnn_lr": "models.rnn.lr",
    "xgb_learning_rate": "models.xgboost.learning_rate",
    "recap_rnn_epochs": "recap.rnn_epochs",
    "meta_lr": "meta.lr",
    "lgbm_learning_rate": "models.lightgbm.learning_rate",
    "xgb_reg_lambda": "models.xgboost.reg_lambda",
    "rnn_patience": "models.rnn.patience",
    "meta_patience": "meta.patience",
}


@pytest.mark.parametrize("field,value", [
    ("lgbm_max_leaves", 0), ("lgbm_bins", 1), ("forest_m", 0),
    ("xgb_max_depth", -1), ("forest_max_depth", 0),
])
def test_validate_flags_bad_tree_shapes(field, value):
    # these used to pass validation and fail late in the train stage, or
    # grow unlimited / single-leaf trees without a word
    cfg = config.PipelineConfig(**{field: value})
    messages = [f.message for f in config.validate_config(cfg)
                if f.severity == "error"]
    assert any(m.startswith(f"{DOTTED_KEYS[field]} must be ")
               for m in messages)


@pytest.mark.parametrize("field,value", [
    ("recap_rnn_hidden", 0), ("rnn_batch", 0), ("recap_rnn_lr", -1.0),
    ("rnn_lr", 0.0), ("xgb_learning_rate", 1.5), ("recap_rnn_epochs", 0),
    ("meta_lr", -0.5), ("lgbm_learning_rate", 0.0), ("rnn_lr", float("nan")),
    ("xgb_reg_lambda", -1.0), ("rnn_patience", -1), ("meta_patience", -1),
])
def test_validate_flags_bad_training_values(field, value):
    # these used to pass validation and then fail in the recap or train
    # stage, train the recap GRU for no epoch, run gradient ascent, or (a
    # negative patience) stop like patience 0
    cfg = config.PipelineConfig(**{field: value})
    messages = [f.message for f in config.validate_config(cfg)
                if f.severity == "error"]
    assert any(m.startswith(f"{DOTTED_KEYS[field]} must be ")
               for m in messages)


def test_validate_csv_requires_path():
    cfg = config.PipelineConfig(source="csv")
    assert any(f.severity == "error"
               for f in config.validate_config(cfg))


def test_paper_mode_is_warning_not_error():
    cfg = config.PipelineConfig(paper_mode=True)
    findings = config.validate_config(cfg)
    assert findings
    assert all(f.severity == "warning" for f in findings)


def test_cli_validate_ok(tmp_path, capsys):
    path = tmp_path / "ok.cfg"
    path.write_text("data.source = synthetic\ndata.n = 2000\n")
    assert cli.main(["--config", str(path), "validate"]) == 0
    assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize("line,message", [
    ("data.timeframe_minutes = 0", "data.timeframe_minutes must be >= 1"),
    ("data.volatility = 0", "data.volatility must be > 0"),
    ("data.start_price = -1", "data.start_price must be > 0"),
    ("arima.d =", "arima.d"),
])
def test_cli_validate_rejects_values_later_stages_fail_on(tmp_path, capsys,
                                                          line, message):
    # validate used to print "config ok" for these; ingest or features then
    # failed, or wrote features from negative prices
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    assert cli.main(["--config", str(path), "validate"]) == cli.EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().out


def test_cli_run_prints_config_warnings(monkeypatch, capsys):
    # run used to record the paper-mode warning in report.json only
    monkeypatch.setitem(cli._COMMANDS, "run", lambda config, args: 0)
    assert cli.main(["--paper-mode", "run"]) == 0
    assert "warning: paper_mode" in capsys.readouterr().err


def test_cli_validate_bad_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("lookback = 0\n")
    assert cli.main(["--config", str(path), "validate"]) == cli.EXIT_CONFIG


def test_cli_unknown_key_exit_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("data.nope = 1\n")
    assert cli.main(["--config", str(path), "validate"]) == cli.EXIT_CONFIG


def test_cli_missing_config_exit_2(tmp_path):
    assert cli.main(["--config", str(tmp_path / "absent.cfg"),
                     "run"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("name", ["recap", "train", "stack"])
def test_cli_removed_subcommands_exit_2(name, capsys):
    # these reran the whole pipeline to print one section; run prints all
    with pytest.raises(SystemExit) as excinfo:
        cli.main([name])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_run_prints_recap_base_and_stacking_sections(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config.config_to_mapping(
        config.PipelineConfig(out_dir=str(out), **SMALL))))
    assert cli.main(["--config", str(cfg), "run"]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads((out / "report.json").read_text())
    assert [line for line in lines if line.startswith("recap k=")] == [
        f"recap k=6 (selected): final rmse "
        f"{report['recap']['6']['final_metrics']['rmse']:.6g}, "
        f"features: {', '.join(report['recap']['6']['selected_base'])}"]
    for name, m in report["base_metrics"].items():
        assert f"{name}: rmse {m['rmse']:.6g}, mae {m['mae']:.6g}" in lines
    rows = [line for line in lines if re.match(r"^[ \d]\d ", line)]
    assert len(rows) == 31
    for line, row in zip(rows, report["stacking"]["rows"]):
        assert line.split()[:2] == [str(row["id"]), "+".join(row["members"])]
        assert line.endswith(f"test {row['test_rmse']:.6g}")
    assert f"artifacts in: {out}" in lines


def test_cli_bad_csv_exit_3(tmp_path):
    csv_path = tmp_path / "bars.csv"
    csv_path.write_text("datetime,open\n")
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(f"data.source = csv\ndata.csv_path = {csv_path}\n")
    assert cli.main(["--config", str(cfg), "ingest"]) == cli.EXIT_DATA


def test_cli_ingest_synthetic(tmp_path, capsys):
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text("data.source = synthetic\ndata.n = 500\n")
    assert cli.main(["--config", str(cfg), "ingest"]) == 0
    assert "bars: 500" in capsys.readouterr().out


def test_cli_features_reports_refit_fallbacks(tmp_path, capsys):
    # with these 1500 bars the ARMA(4, 0, 2) refit of arima_close at bar
    # 1100 diverges, and the column keeps the coefficients of bar 600
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(f"data.n = 1500\nseed = 56\nout_dir = {tmp_path}\n")
    assert cli.main(["--config", str(cfg), "features"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "arima order arima_close: (4, 0, 2)" in lines
    assert [line for line in lines if line.startswith("arima refit ")] == [
        "arima refit fallbacks arima_close: 1",
        "arima refit fallbacks arima_high: 0"]
    assert (tmp_path / "features.csv").exists()


def test_cli_seed_and_out_overrides(tmp_path):
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text("seed = 1\n")
    args = cli.build_parser().parse_args(
        ["--config", str(cfg), "--seed", "77", "--out", "elsewhere",
         "--paper-mode", "validate"])
    built = cli._build_config(args)
    assert built.seed == 77
    assert built.out_dir == "elsewhere"
    assert built.paper_mode is True
