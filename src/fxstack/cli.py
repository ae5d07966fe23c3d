"""Command-line entry point.

Subcommands: ``validate``, ``ingest``, ``features`` and ``run``. ``run``
executes the full pipeline, writes every artifact and prints the recap line
per k, the base-model test metrics and the 31 stacking rows. Global flags
``--config``, ``--seed`` and ``--out`` override the corresponding config
keys.

Every subcommand but ``validate`` refuses an invalid config before it starts.

Exit codes: 0 success, 2 config error, 3 data error, 4 training error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import (
    PipelineConfig,
    check_config,
    load_config,
    validate_config,
)
from .errors import (
    DegenerateFitError,
    EmptyFrameError,
    FxStackError,
    InsufficientDataError,
    OrderingError,
    ParameterError,
    SchemaError,
    SearchError,
    SpecError,
    SplitError,
    TrainingError,
)
from .market_data import format_rfc3339
from .pipeline import (StageError, _features, _ingest, _label_and_clean,
                       run_pipeline)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4

_DATA_ERRORS = (SchemaError, OrderingError, InsufficientDataError,
                EmptyFrameError, SplitError)
_TRAINING_ERRORS = (TrainingError, DegenerateFitError, SearchError)
_CONFIG_ERRORS = (SpecError, ParameterError)


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, StageError):
        exc = exc.cause
    if isinstance(exc, _TRAINING_ERRORS):
        return EXIT_TRAINING
    if isinstance(exc, _DATA_ERRORS):
        return EXIT_DATA
    if isinstance(exc, _CONFIG_ERRORS):
        return EXIT_CONFIG
    return 1


def _build_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    return dataclasses.replace(config, **overrides) if overrides else config


def _cmd_validate(config: PipelineConfig, args) -> int:
    findings = validate_config(config)
    for message in findings:
        print(f"error: {message}")
    if findings:
        return EXIT_CONFIG
    print("config ok")
    return 0


def _cmd_ingest(config: PipelineConfig, args) -> int:
    series, dropped = _ingest(config)
    print(f"bars: {len(series)}")
    if len(series):
        first, last = format_rfc3339(series.timestamps[[0, -1]])
        print(f"range: {first} .. {last}")
    for reason, count in sorted(dropped.items()):
        print(f"dropped[{reason}]: {count}")
    return 0


def _cmd_features(config: PipelineConfig, args) -> int:
    series, _ = _ingest(config)
    frame, orders, fallbacks = _features(config, series)
    cleaned, _ = _label_and_clean(config, series, frame)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "features.csv")
    cleaned.to_csv(path)
    print(f"wrote {path}: {len(cleaned)} rows, "
          f"{len(cleaned.feature_names)} features")
    for name, order in orders.items():
        print(f"arima order {name}: {tuple(order)}")
    for name, count in fallbacks.items():
        print(f"arima refit fallbacks {name}: {count}")
    dropped_rows = len(frame) - len(cleaned)
    print(f"rows dropped in cleaning: {dropped_rows}")
    return 0


def _cmd_run(config: PipelineConfig, args) -> int:
    report = run_pipeline(config)
    for k, result in report.recap.items():
        marker = " (selected)" if int(k) == report.selected_k else ""
        print(f"recap k={k}{marker}: final rmse "
              f"{result['final_metrics']['rmse']:.6g}, "
              f"features: {', '.join(result['selected_base'])}")
    for name in sorted(report.base_metrics):
        m = report.base_metrics[name]
        print(f"{name}: rmse {m['rmse']:.6g}, mae {m['mae']:.6g}")
    for row in report.stacking["rows"]:
        print(f"{row['id']:2d} {'+'.join(row['members']):<45} "
              f"val {row['val_rmse']:.6g}  test {row['test_rmse']:.6g}")
    print(f"stacking winner: {report.stacking['selected_id']} "
          f"({'+'.join(report.stacking['selected_members'])})")
    print(f"artifacts in: {config.out_dir}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "features": _cmd_features,
    "run": _cmd_run,
    "validate": _cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fxstack",
        description="Highest-high forecasting pipeline: indicators, ARIMA "
                    "features, importance-recap selection, and stacking.",
    )
    parser.add_argument("--config", help="config file (key=value or .json)")
    parser.add_argument("--seed", type=int, help="override the global seed")
    parser.add_argument("--out", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            config = _build_config(args)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        # run_pipeline checks its config itself
        if args.command in ("ingest", "features"):
            check_config(config)
        return _COMMANDS[args.command](config, args)
    except FxStackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
