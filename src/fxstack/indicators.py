"""Technical indicators over a CandleSeries and FeatureFrame assembly.

Each indicator returns a float array aligned to the candle index, or a tuple
of them. :func:`shipped_indicators` is the one table of feature columns: its
keys are the column names, each with its indicator and period, and its order
is the feature order. :func:`compute_features` puts that table between the
raw OHLC and any external (e.g. ARIMA) columns.

Every indicator is causal: the value at index t depends only on bars <= t.
Warmup cells (windows not yet full) are NaN and removed later by cleaning.

Conventions where the window is degenerate: Williams %R reads -50 and the
balance-of-power raw term reads 0 when its denominator is zero, so a flat
window yields a neutral value instead of an undefined cell mid-series.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, SpecError
from .market_data import CandleSeries, FeatureFrame


def _rolling_mean(x: np.ndarray, n: int) -> np.ndarray:
    out = np.full(len(x), np.nan)
    if n <= len(x):
        windows = np.lib.stride_tricks.sliding_window_view(x, n)
        out[n - 1:] = windows.mean(axis=1)
    return out


def _on_defined(x: np.ndarray, n: int, fn) -> np.ndarray:
    """``fn(d, n)`` on the finite tail ``d`` of ``x``, padded in front with
    NaN back to ``len(x)``."""
    d = x[np.isfinite(x)]
    out = np.full(len(x), np.nan)
    if len(d):
        out[len(x) - len(d):] = fn(d, n)
    return out


def sma(closes: np.ndarray, n: int) -> np.ndarray:
    """Simple moving average: mean of the trailing n values."""
    if n < 1:
        raise ParameterError("sma period must be >= 1")
    return _rolling_mean(np.asarray(closes, dtype=float), n)


def ema(closes: np.ndarray, n: int) -> np.ndarray:
    """Exponential moving average with K = 2/(n+1), seeded by the first-n SMA."""
    if n < 1:
        raise ParameterError("ema period must be >= 1")
    x = np.asarray(closes, dtype=float)
    out = np.full(len(x), np.nan)
    if n <= len(x):
        k = 2.0 / (n + 1.0)
        value = x[:n].mean()
        out[n - 1] = value
        for i in range(n, len(x)):
            value = value + k * (x[i] - value)
            out[i] = value
    return out


def wma(closes: np.ndarray, n: int) -> np.ndarray:
    """Linearly weighted moving average (weight i+1 on the i-th oldest value)."""
    if n < 1:
        raise ParameterError("wma period must be >= 1")
    x = np.asarray(closes, dtype=float)
    out = np.full(len(x), np.nan)
    if n <= len(x):
        weights = np.arange(1, n + 1, dtype=float)
        windows = np.lib.stride_tricks.sliding_window_view(x, n)
        out[n - 1:] = windows @ weights / weights.sum()
    return out


def dema(closes: np.ndarray, n: int) -> np.ndarray:
    """Double EMA: 2*EMA(x) - EMA(EMA(x))."""
    e1 = ema(closes, n)
    return 2.0 * e1 - _on_defined(e1, n, ema)


def tema(closes: np.ndarray, n: int) -> np.ndarray:
    """Triple EMA: 3*EMA - 3*EMA(EMA) + EMA(EMA(EMA))."""
    e1 = ema(closes, n)
    e2 = _on_defined(e1, n, ema)
    return 3.0 * e1 - 3.0 * e2 + _on_defined(e2, n, ema)


def trima(closes: np.ndarray, n: int) -> np.ndarray:
    """Triangular moving average: SMA(SMA(x, m1), m2) with
    m1 = ceil((n+1)/2) and m2 = floor(n/2) + 1."""
    if n < 2:
        raise ParameterError("trima period must be >= 2")
    x = np.asarray(closes, dtype=float)
    inner = _rolling_mean(x, math.ceil((n + 1) / 2))
    return _on_defined(inner, n // 2 + 1, _rolling_mean)


def macd(
    closes: np.ndarray, fast: int = 12, slow: int = 26, signal_period: int = 9
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MACD line (fast EMA - slow EMA), its signal EMA, and the histogram."""
    if fast >= slow:
        raise ParameterError("macd requires fast < slow")
    line = ema(closes, fast) - ema(closes, slow)
    signal = _on_defined(line, signal_period, ema)
    return line, signal, line - signal


def willr(series: CandleSeries, n: int = 14) -> np.ndarray:
    """Williams %R: -100 * (HH - close) / (HH - LL) over the trailing n bars.

    A flat window (HH == LL) reads -50.
    """
    if n < 1:
        raise ParameterError("willr period must be >= 1")
    out = np.full(len(series), np.nan)
    if n <= len(series):
        hh = np.lib.stride_tricks.sliding_window_view(series.high, n).max(axis=1)
        ll = np.lib.stride_tricks.sliding_window_view(series.low, n).min(axis=1)
        close = series.close[n - 1:]
        span = hh - ll
        with np.errstate(divide="ignore", invalid="ignore"):
            r = -100.0 * (hh - close) / span
        r[span == 0] = -50.0
        out[n - 1:] = r
    return out


def bop(series: CandleSeries, n: int = 14) -> np.ndarray:
    """Balance of power: SMA over n of (close-open)/(high-low); 0 when high==low."""
    if n < 1:
        raise ParameterError("bop period must be >= 1")
    span = series.high - series.low
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (series.close - series.open) / span
    raw = np.where(span == 0, 0.0, raw)
    return _rolling_mean(raw, n)


def true_range_atr(
    series: CandleSeries, n: int = 14
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """True range, its trailing-n arithmetic mean (ATR), and NATR = 100*ATR/close.

    ATR is the plain 1/n mean of the trailing true ranges, not Wilder's
    recursive smoothing, so values diverge slightly from common charting tools.
    """
    if n < 1:
        raise ParameterError("atr period must be >= 1")
    tr = np.full(len(series), np.nan)
    if len(series):
        tr[0] = series.high[0] - series.low[0]
        prev_close = series.close[:-1]
        tr[1:] = np.maximum.reduce([
            series.high[1:] - series.low[1:],
            np.abs(series.high[1:] - prev_close),
            np.abs(series.low[1:] - prev_close),
        ])
    atr = _rolling_mean(tr, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        natr = 100.0 * atr / series.close
    return tr, atr, natr


def bbands(
    closes: np.ndarray, n: int = 20, k: float = 2.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bollinger bands: middle = SMA(n), upper/lower = middle +/- k*stddev.

    The deviation is the population standard deviation over the window.
    """
    if n < 2:
        raise ParameterError("bbands period must be >= 2")
    if not (k > 0):
        raise ParameterError("bbands width k must be > 0")
    x = np.asarray(closes, dtype=float)
    middle = _rolling_mean(x, n)
    dev = np.full(len(x), np.nan)
    if n <= len(x):
        dev[n - 1:] = np.lib.stride_tricks.sliding_window_view(x, n).std(axis=1)
    return middle + k * dev, middle, middle - k * dev


def rsi(closes: np.ndarray, n: int = 14) -> np.ndarray:
    """Relative strength index from trailing-n mean gains and losses.

    Uses plain window means (consistent with the ATR convention here);
    an all-loss window reads 0 and an all-gain window 100.
    """
    if n < 1:
        raise ParameterError("rsi period must be >= 1")
    x = np.asarray(closes, dtype=float)
    out = np.full(len(x), np.nan)
    if len(x) > n:
        delta = np.diff(x)
        gains = _rolling_mean(np.maximum(delta, 0.0), n)
        losses = _rolling_mean(np.maximum(-delta, 0.0), n)
        total = gains + losses
        with np.errstate(divide="ignore", invalid="ignore"):
            value = 100.0 * gains / total
        value = np.where(total == 0, 50.0, value)
        out[n:] = value[n - 1:]
    return out


def mom(closes: np.ndarray, n: int = 10) -> np.ndarray:
    """Momentum: close(t) - close(t-n)."""
    if n < 1:
        raise ParameterError("mom period must be >= 1")
    x = np.asarray(closes, dtype=float)
    out = np.full(len(x), np.nan)
    if len(x) > n:
        out[n:] = x[n:] - x[:-n]
    return out


def roc(closes: np.ndarray, n: int = 10) -> np.ndarray:
    """Rate of change: (close(t)/close(t-n) - 1) * 100."""
    if n < 1:
        raise ParameterError("roc period must be >= 1")
    x = np.asarray(closes, dtype=float)
    out = np.full(len(x), np.nan)
    if len(x) > n:
        out[n:] = (x[n:] / x[:-n] - 1.0) * 100.0
    return out


def shipped_indicators(series: CandleSeries) -> dict[str, np.ndarray]:
    """The shipped indicator columns by name, in feature order: the one
    source of both. Periods follow the names used in reports, with industry
    defaults where a name carries none."""
    o, h, l, c = series.open, series.high, series.low, series.close
    return {
        "sma10": sma(c, 10),
        "sma30": sma(c, 30),
        "ema10": ema(c, 10),
        "wma5": wma(c, 5),
        "dema": dema(c, 30),
        "tema": tema(c, 30),
        "trima30": trima(c, 30),
        **dict(zip(("macd", "macdsignal", "macdhist"), macd(c, 12, 26, 9))),
        "willr": willr(series, 14),
        "bop": bop(series, 14),
        **dict(zip(("trange", "atr", "natr"), true_range_atr(series, 14))),
        "avgprice": (o + h + l + c) / 4.0,
        "medprice": (h + l) / 2.0,
        "typprice": (h + l + c) / 3.0,
        "wclprice": (2.0 * c + h + l) / 4.0,
        **dict(zip(("upperband", "middleband", "lowerband"),
                   bbands(c, 20, 2.0))),
        "rsi": rsi(c, 14),
        "mom": mom(c, 10),
        "roc10": roc(c, 10),
    }


def compute_features(
    series: CandleSeries,
    indicators: bool = True,
    extra: dict[str, np.ndarray] | None = None,
) -> FeatureFrame:
    """Assemble raw OHLC, the shipped indicators (unless ``indicators`` is
    false) and any external columns (e.g. rolling ARIMA forecasts) into one
    FeatureFrame."""
    columns = {"open": series.open.copy(), "high": series.high.copy(),
               "low": series.low.copy(), "close": series.close.copy()}
    if indicators:
        columns.update(shipped_indicators(series))
    for name, values in (extra or {}).items():
        if name in columns:
            raise SpecError(f"duplicate extra column {name!r}")
        values = np.asarray(values, dtype=float)
        if len(values) != len(series):
            raise ParameterError(f"extra column {name!r} not aligned to series")
        columns[name] = values
    return FeatureFrame(index=series.timestamps, columns=columns)
