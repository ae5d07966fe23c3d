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

Each ``PipelineConfig`` field declares its dotted key, its default (which
fixes the type values are coerced to) and its bound, if any, in one place.
Unknown keys are rejected so typos fail fast. ``findings`` from
``validate_config`` carry a severity so callers can distinguish hard errors
from leakage warnings.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import SpecError


def _key(key: str, default, bound: str | None = None):
    """A config field: its dotted key, its default (whose type the parser
    coerces to) and the bound ``validate_config`` holds it to, if any."""
    return dataclasses.field(default=default,
                             metadata={"key": key, "bound": bound})


@dataclass(frozen=True)
class PipelineConfig:
    # data source
    source: str = _key("data.source", "synthetic")  # "synthetic" | "csv"
    csv_path: str | None = _key("data.csv_path", None)
    synthetic_n: int = _key("data.n", 6000)
    synthetic_volatility: float = _key("data.volatility", 0.001, "> 0")
    start_price: float = _key("data.start_price", 1.0, "> 0")
    timeframe_minutes: int = _key("data.timeframe_minutes", 15, ">= 1")

    # task shape
    horizon: int = _key("horizon", 5, ">= 1")
    lookback: int = _key("lookback", 5, ">= 1")
    seed: int = _key("seed", 0)
    out_dir: str = _key("out_dir", "out")
    paper_mode: bool = _key("paper_mode", False)

    # feature engineering
    use_indicators: bool = _key("features.indicators", True)
    use_arima: bool = _key("features.arima", True)
    arima_p_max: int = _key("arima.p_max", 5)
    arima_d: tuple[int, ...] = _key("arima.d", (0, 1))
    arima_q_max: int = _key("arima.q_max", 2)
    arima_fit_len: int = _key("arima.fit_len", 600)
    arima_refit_every: int = _key("arima.refit_every", 500)

    # splits (row fractions of the cleaned frame / the stacking window)
    main_split: tuple[float, float, float] = _key("split.main", (0.7, 0.15, 0.15))
    meta_split: tuple[float, float, float] = _key("split.meta", (0.6, 0.2, 0.2))

    # recap
    recap_ks: tuple[int, ...] = _key("recap.k", (20,))
    recap_rnn_hidden: int = _key("recap.rnn_hidden", 16, ">= 1")
    recap_rnn_epochs: int = _key("recap.rnn_epochs", 8, ">= 1")
    recap_rnn_lr: float = _key("recap.rnn_lr", 3e-3, "> 0")

    # base learners
    xgb_n_trees: int = _key("models.xgboost.n_trees", 50, ">= 1")
    xgb_max_depth: int = _key("models.xgboost.max_depth", 5, ">= 1")
    xgb_learning_rate: float = _key("models.xgboost.learning_rate", 0.3,
                                    "in (0, 1]")
    xgb_reg_lambda: float = _key("models.xgboost.reg_lambda", 1.0, ">= 0")
    lgbm_n_trees: int = _key("models.lightgbm.n_trees", 50, ">= 1")
    lgbm_max_leaves: int = _key("models.lightgbm.max_leaves", 31, ">= 1")
    lgbm_bins: int = _key("models.lightgbm.bins", 64, ">= 2")
    lgbm_learning_rate: float = _key("models.lightgbm.learning_rate", 0.3,
                                     "in (0, 1]")
    forest_n_trees: int = _key("models.forest.n_trees", 30, ">= 1")
    forest_max_depth: int = _key("models.forest.max_depth", 8, ">= 1")
    forest_m: int = _key("models.forest.m", 20, ">= 1")
    rnn_hidden: int = _key("models.rnn.hidden", 24, ">= 1")
    rnn_epochs: int = _key("models.rnn.epochs", 12, ">= 1")
    rnn_lr: float = _key("models.rnn.lr", 3e-3, "> 0")
    rnn_batch: int = _key("models.rnn.batch", 256, ">= 1")
    rnn_patience: int = _key("models.rnn.patience", 4, ">= 0")

    # stacking meta-learner
    meta_hidden: int = _key("meta.hidden", 16, ">= 1")
    meta_epochs: int = _key("meta.epochs", 300, ">= 1")
    meta_lr: float = _key("meta.lr", 0.01, "> 0")
    meta_patience: int = _key("meta.patience", 30, ">= 0")


# dotted config key -> field
_FIELDS = {f.metadata["key"]: f for f in dataclasses.fields(PipelineConfig)}

# field bound -> its test; NaN fails every test
_BOUNDS = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "> 0": lambda v: v > 0,
    "in (0, 1]": lambda v: 0 < v <= 1,
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _scalar(key: str, kind: type, raw) -> object:
    # bool is an int subclass and int() truncates, so JSON ``true`` and
    # ``1500.9`` would otherwise load as 1 and 1500
    if isinstance(raw, bool) or (kind is int and isinstance(raw, float)
                                 and not raw.is_integer()):
        raise SpecError(f"{key}: expected {kind.__name__}, got {raw!r}")
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{key}: bad value {raw!r}") from exc


def _coerce(key: str, default, raw) -> object:
    """Convert a raw string/JSON value to the type of the field's default;
    a None default marks the optional ``data.csv_path``."""
    if isinstance(raw, str):
        raw = raw.strip()
    if default is None:
        return None if raw in (None, "", "none") else _scalar(key, str, raw)
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
        return tuple(_scalar(key, type(default[0]), p) for p in parts)
    return _scalar(key, type(default), raw)


def config_from_mapping(mapping: dict) -> PipelineConfig:
    updates = {}
    for key, raw in mapping.items():
        field = _FIELDS.get(key)
        if field is None:
            raise SpecError(f"unknown config key {key!r}")
        updates[field.name] = _coerce(key, field.default, raw)
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
    out = {}
    for key, field in _FIELDS.items():
        value = getattr(config, field.name)
        out[key] = list(value) if isinstance(value, tuple) else value
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
    for field in _FIELDS.values():
        bound = field.metadata["bound"]
        if bound and not _BOUNDS[bound](getattr(config, field.name)):
            err(f"{field.metadata['key']} must be {bound}")
    for name, split in (("split.main", config.main_split),
                        ("split.meta", config.meta_split)):
        if len(split) != 3 or any(f <= 0 for f in split):
            err(f"{name} needs 3 positive fractions")
    if any(k < 1 for k in config.recap_ks) or not config.recap_ks:
        err("recap.k values must be >= 1")
    if config.use_arima:
        if config.arima_p_max < 0 or config.arima_q_max < 0:
            err("arima.p_max and arima.q_max must be >= 0")
        if not config.arima_d:
            err("arima.d needs at least one entry")
        if any(d not in (0, 1) for d in config.arima_d):
            err("arima.d entries must be 0 or 1")
        if config.arima_fit_len < 10 * (config.arima_p_max
                                        + config.arima_q_max + 1):
            err("arima.fit_len too small for the requested grid")
        if config.arima_refit_every < 1:
            err("arima.refit_every must be >= 1")
    if config.paper_mode:
        warn("paper_mode: recap held-out and stacking selection use the final "
             "test window — results are leakage-biased by construction")
    return findings


def check_config(config: PipelineConfig) -> list[str]:
    """Raise ``SpecError`` listing every error finding; return the warnings."""
    findings = validate_config(config)
    errors = [f.message for f in findings if f.severity == "error"]
    if errors:
        raise SpecError("invalid config: " + "; ".join(errors))
    return [f.message for f in findings if f.severity == "warning"]
