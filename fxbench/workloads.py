"""Workload definitions and seeded input generation.

Each workload is a generated bar CSV plus a fxstack config (a dotted-key
``.cfg`` file, the format the CLI reads) that points at it. The program
only ever sees these two files; the seed in the config also seeds the
program's models.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

# relative to the checkout root, so echoed paths (and report digests) do not
# depend on where the checkout lives
WORK_DIR = ".fxbench_work"

# generated CSV bars: MA(1) log returns and the relative size of the wicks
MA_THETA = 0.5
RETURN_SIGMA = 1e-3
WICK_SIGMA = 3e-4
# share of CSV rows made malformed on purpose, per drop reason
MALFORMED_SHARE = {"unparseable_price": 0.004, "invalid_candle": 0.004}


# ARIMA grid of the pipeline workloads. A rolling refit of an MA order can
# fail to converge (DegenerateFitError) on about 1% of seeds and abort the
# run; AR orders on differenced prices cannot. The MA path is measured by the
# features workload.
AR_ONLY = {"arima.d": 1, "arima.q_max": 0}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "pipeline" (run_pipeline) | "features" (CLI)
    bars: int                 # input bars the program is asked to process
    why: str
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="trees-1.5k",
            kind="pipeline",
            bars=1500,
            why="run_pipeline with all indicators; recap and base-model tree "
                "fits take most of the run, so it exercises the split finder",
            # one lag of each of the 31 base columns: recap's fixed tree
            # budgets then take about 5 s a run instead of 7 s with two lags
            overrides={"lookback": 1, "models.xgboost.n_trees": 10,
                       "models.lightgbm.n_trees": 10,
                       "models.forest.n_trees": 6, **AR_ONLY},
        ),
        Workload(
            name="features-csv-6k",
            kind="features",
            bars=6000,
            why="fxstack features; rolling ARIMA takes most of the run and "
                "no model layer runs",
            # with AR orders up to 5 the AIC pick flips between AR-only and
            # MA orders from seed to seed, and with it the cost of the run;
            # with p <= 1 every seed selects q >= 1 on both columns, so the
            # MA recursion is always in play
            overrides={"arima.p_max": 1},
        ),
        Workload(
            name="sequence-1k",
            kind="pipeline",
            bars=1000,
            why="run_pipeline with tiny tree budgets and long LSTM, GRU and "
                "meta-net training, so recurrent and stacking carry the "
                "weight",
            # without indicators the recap trees (whose budgets the config
            # cannot set) see 30 columns instead of 155, and the RNNs still
            # unroll the full 5-bar lookback
            overrides={"features.indicators": "false", **AR_ONLY,
                       "models.xgboost.n_trees": 3,
                       "models.lightgbm.n_trees": 3,
                       "models.forest.n_trees": 2,
                       "models.rnn.hidden": 48, "models.rnn.epochs": 100,
                       "models.rnn.patience": 100, "models.rnn.batch": 64,
                       "meta.hidden": 32, "meta.patience": 300},
        ),
    )
}


def work_dir(workload: Workload) -> str:
    return os.path.join(WORK_DIR, workload.name)


def config_lines(workload: Workload, seed: int, csv_path: str,
                 out_dir: str) -> list[str]:
    """Dotted-key config for one workload run."""
    lines = [f"seed = {seed}", f"out_dir = {out_dir}", "data.source = csv",
             f"data.csv_path = {csv_path}"]
    lines += [f"{key} = {value}" for key, value in workload.overrides.items()]
    return lines


@dataclass(frozen=True)
class CsvInput:
    path: str
    rows: int                 # data rows written, malformed ones included
    valid_bars: int
    dropped: dict             # reason -> rows the loader must drop


def write_bar_csv(path: str, rows: int, seed: int) -> CsvInput:
    """Seeded ``datetime,open,high,low,close`` file with malformed rows.

    Log returns follow an MA(1) process, so the AIC grid has a
    moving-average term to find on every seed and the CSS recursion in
    ``fit_arma`` stays in play. A fixed share of rows is corrupted: an
    unparseable close, or a high below the low.
    """
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, RETURN_SIGMA, size=rows + 1)
    log_returns = eps[1:] + MA_THETA * eps[:-1]
    close = 1.1 * np.exp(np.cumsum(log_returns))
    open_ = np.concatenate(([1.1], close[:-1]))
    wick = np.abs(rng.normal(0.0, WICK_SIGMA, size=(2, rows)))
    high = np.maximum(open_, close) * (1.0 + wick[0])
    low = np.minimum(open_, close) * (1.0 - wick[1])

    counts = {reason: int(round(share * rows))
              for reason, share in MALFORMED_SHARE.items()}
    picked = rng.choice(np.arange(1, rows), size=sum(counts.values()),
                        replace=False)
    unparseable = set(picked[:counts["unparseable_price"]].tolist())
    invalid = set(picked[counts["unparseable_price"]:].tolist())

    start = datetime(2015, 1, 5, tzinfo=timezone.utc)
    step = timedelta(minutes=15)
    with open(path, "w") as fh:
        fh.write("datetime,open,high,low,close\n")
        for i in range(rows):
            ts = (start + i * step).strftime("%Y-%m-%dT%H:%M:%SZ")
            o, h, lo, c = (f"{v:.6f}" for v in (open_[i], high[i], low[i],
                                                 close[i]))
            if i in unparseable:
                c = "n/a"
            elif i in invalid:
                h = f"{low[i] * 0.999:.6f}"
            fh.write(f"{ts},{o},{h},{lo},{c}\n")
    return CsvInput(path=path, rows=rows,
                    valid_bars=rows - sum(counts.values()), dropped=counts)


def csv_rmse(path: str, forecast: str, actual: str) -> tuple[int, float]:
    """Data-row count of ``features.csv`` and the RMSE of one column against
    another over its rows."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        fi, ai = header.index(forecast), header.index(actual)
        sq, n = 0.0, 0
        for line in fh:
            cells = line.split(",")
            d = float(cells[fi]) - float(cells[ai])
            sq += d * d
            n += 1
    return n, math.sqrt(sq / n) if n else float("nan")
