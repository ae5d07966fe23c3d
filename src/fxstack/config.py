"""Pipeline configuration: a flat dotted-key text format (JSON accepted as an
alternative encoding of the same keys) plus validation.

Example config file::

    data.source = synthetic
    data.n = 6000
    horizon = 5
    lookback = 5
    seed = 7
    split.main = 0.7,0.15,0.15
    recap.k = 20,30
    out_dir = runs/demo

Unknown keys are rejected so typos fail fast. ``findings`` from
``validate_config`` carry a severity so callers can distinguish hard errors
from leakage warnings.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import SpecError


@dataclass(frozen=True)
class PipelineConfig:
    # data source
    source: str = "synthetic"            # "synthetic" | "csv"
    csv_path: str | None = None
    synthetic_n: int = 6000
    synthetic_volatility: float = 0.001
    start_price: float = 1.0
    timeframe_minutes: int = 15

    # task shape
    horizon: int = 5
    lookback: int = 5
    seed: int = 0
    out_dir: str = "out"
    paper_mode: bool = False
    leakage_guard: bool = True

    # feature engineering
    use_indicators: bool = True
    use_arima: bool = True
    arima_p_max: int = 5
    arima_d: tuple[int, ...] = (0, 1)
    arima_q_max: int = 2
    arima_fit_len: int = 600
    arima_refit_every: int = 500

    # splits (row fractions of the cleaned frame / the stacking window)
    main_split: tuple[float, float, float] = (0.7, 0.15, 0.15)
    meta_split: tuple[float, float, float] = (0.6, 0.2, 0.2)

    # recap
    recap_ks: tuple[int, ...] = (20,)
    recap_rnn_hidden: int = 16
    recap_rnn_epochs: int = 8
    recap_rnn_lr: float = 3e-3

    # base learners
    xgb_n_trees: int = 50
    xgb_max_depth: int = 5
    xgb_learning_rate: float = 0.3
    xgb_reg_lambda: float = 1.0
    lgbm_n_trees: int = 50
    lgbm_max_leaves: int = 31
    lgbm_bins: int = 64
    lgbm_learning_rate: float = 0.3
    forest_n_trees: int = 30
    forest_max_depth: int = 8
    forest_m: int = 20
    rnn_hidden: int = 24
    rnn_epochs: int = 12
    rnn_lr: float = 3e-3
    rnn_batch: int = 256
    rnn_patience: int = 4

    # stacking meta-learner
    meta_hidden: int = 16
    meta_epochs: int = 300
    meta_lr: float = 0.01
    meta_patience: int = 30


# dotted config key -> PipelineConfig field
KEY_MAP = {
    "data.source": "source",
    "data.csv_path": "csv_path",
    "data.n": "synthetic_n",
    "data.volatility": "synthetic_volatility",
    "data.start_price": "start_price",
    "data.timeframe_minutes": "timeframe_minutes",
    "horizon": "horizon",
    "lookback": "lookback",
    "seed": "seed",
    "out_dir": "out_dir",
    "paper_mode": "paper_mode",
    "leakage_guard": "leakage_guard",
    "features.indicators": "use_indicators",
    "features.arima": "use_arima",
    "arima.p_max": "arima_p_max",
    "arima.d": "arima_d",
    "arima.q_max": "arima_q_max",
    "arima.fit_len": "arima_fit_len",
    "arima.refit_every": "arima_refit_every",
    "split.main": "main_split",
    "split.meta": "meta_split",
    "recap.k": "recap_ks",
    "recap.rnn_hidden": "recap_rnn_hidden",
    "recap.rnn_epochs": "recap_rnn_epochs",
    "recap.rnn_lr": "recap_rnn_lr",
    "models.xgboost.n_trees": "xgb_n_trees",
    "models.xgboost.max_depth": "xgb_max_depth",
    "models.xgboost.learning_rate": "xgb_learning_rate",
    "models.xgboost.reg_lambda": "xgb_reg_lambda",
    "models.lightgbm.n_trees": "lgbm_n_trees",
    "models.lightgbm.max_leaves": "lgbm_max_leaves",
    "models.lightgbm.bins": "lgbm_bins",
    "models.lightgbm.learning_rate": "lgbm_learning_rate",
    "models.forest.n_trees": "forest_n_trees",
    "models.forest.max_depth": "forest_max_depth",
    "models.forest.m": "forest_m",
    "models.rnn.hidden": "rnn_hidden",
    "models.rnn.epochs": "rnn_epochs",
    "models.rnn.lr": "rnn_lr",
    "models.rnn.batch": "rnn_batch",
    "models.rnn.patience": "rnn_patience",
    "meta.hidden": "meta_hidden",
    "meta.epochs": "meta_epochs",
    "meta.lr": "meta_lr",
    "meta.patience": "meta_patience",
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _coerce(key: str, field_name: str, raw) -> object:
    """Convert a raw string/JSON value to the field's declared type."""
    default = getattr(PipelineConfig(), field_name)
    if isinstance(raw, str):
        raw = raw.strip()
    if field_name == "csv_path":
        return None if raw in (None, "", "none") else str(raw)
    if isinstance(default, bool):
        if isinstance(raw, bool):
            return raw
        word = str(raw).lower()
        if word not in _BOOL_WORDS:
            raise SpecError(f"{key}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    if isinstance(default, tuple):
        if isinstance(raw, str):
            parts = [p for p in raw.split(",") if p.strip()]
        elif isinstance(raw, (list, tuple)):
            parts = list(raw)
        else:
            parts = [raw]
        elem = type(default[0])
        try:
            return tuple(elem(p) for p in parts)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{key}: bad list value {raw!r}") from exc
    try:
        return type(default)(raw)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{key}: bad value {raw!r}") from exc


def config_from_mapping(mapping: dict) -> PipelineConfig:
    updates = {}
    for key, raw in mapping.items():
        if key not in KEY_MAP:
            raise SpecError(f"unknown config key {key!r}")
        field_name = KEY_MAP[key]
        updates[field_name] = _coerce(key, field_name, raw)
    return PipelineConfig(**updates)


def parse_config_text(text: str) -> PipelineConfig:
    """Parse dotted ``key = value`` lines ('#' comments, blank lines ok)."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise SpecError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = body.split("=", 1)
        mapping[key.strip()] = value.strip()
    return config_from_mapping(mapping)


def load_config(path: str) -> PipelineConfig:
    """Load a config file; '.json' files hold the same keys as a JSON object."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SpecError(f"{path}: top-level JSON value must be an object")
        return config_from_mapping(payload)
    return parse_config_text(text)


def config_to_mapping(config: PipelineConfig) -> dict:
    """Dotted-key echo of the config (lists rendered as JSON arrays)."""
    inverse = {v: k for k, v in KEY_MAP.items()}
    out = {}
    for field in dataclasses.fields(PipelineConfig):
        value = getattr(config, field.name)
        if isinstance(value, tuple):
            value = list(value)
        out[inverse[field.name]] = value
    return out


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning"
    message: str


def validate_config(config: PipelineConfig) -> list[Finding]:
    """Bounds, split sanity, and leakage-guard conflicts. Warnings are
    non-fatal; any error finding should block the run."""
    findings: list[Finding] = []

    def err(msg):
        findings.append(Finding("error", msg))

    def warn(msg):
        findings.append(Finding("warning", msg))

    if config.source not in ("synthetic", "csv"):
        err(f"data.source must be 'synthetic' or 'csv', got {config.source!r}")
    if config.source == "csv" and not config.csv_path:
        err("data.csv_path is required when data.source = csv")
    if config.source == "synthetic" and config.synthetic_n < 100:
        err("data.n must be >= 100 for a synthetic run")
    if config.horizon < 1:
        err("horizon must be >= 1")
    if config.lookback < 1:
        err("lookback must be >= 1")
    for name, split in (("split.main", config.main_split),
                        ("split.meta", config.meta_split)):
        if len(split) != 3 or any(f <= 0 for f in split):
            err(f"{name} needs 3 positive fractions")
    if any(k < 1 for k in config.recap_ks) or not config.recap_ks:
        err("recap.k values must be >= 1")
    if config.use_arima:
        if config.arima_p_max < 0 or config.arima_q_max < 0:
            err("arima.p_max and arima.q_max must be >= 0")
        if any(d not in (0, 1) for d in config.arima_d):
            err("arima.d entries must be 0 or 1")
        if config.arima_fit_len < 10 * (config.arima_p_max
                                        + config.arima_q_max + 1):
            err("arima.fit_len too small for the requested grid")
        if config.arima_refit_every < 1:
            err("arima.refit_every must be >= 1")
    for field in ("xgb_n_trees", "lgbm_n_trees", "forest_n_trees",
                  "xgb_max_depth", "lgbm_max_leaves", "forest_max_depth",
                  "forest_m", "recap_rnn_hidden", "recap_rnn_epochs",
                  "rnn_hidden", "rnn_epochs", "rnn_batch", "meta_hidden",
                  "meta_epochs"):
        if getattr(config, field) < 1:
            err(f"{field} must be >= 1")
    for field in ("recap_rnn_lr", "rnn_lr", "meta_lr"):
        if not getattr(config, field) > 0:
            err(f"{field} must be > 0")
    for field in ("xgb_learning_rate", "lgbm_learning_rate"):
        if not 0 < getattr(config, field) <= 1:
            err(f"{field} must be in (0, 1]")
    if not config.xgb_reg_lambda >= 0:
        err("xgb_reg_lambda must be >= 0")
    if config.lgbm_bins < 2:
        err("lgbm_bins must be >= 2")
    if config.paper_mode:
        warn("paper_mode: recap held-out and stacking selection use the final "
             "test window — results are leakage-biased by construction")
    if not config.leakage_guard and not config.paper_mode:
        warn("leakage_guard disabled; window-overlap checks are skipped")
    return findings
