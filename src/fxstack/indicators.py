"""Technical indicators over a CandleSeries and FeatureFrame assembly.

:func:`compute_features` puts the columns of :func:`shipped_indicators`, in
their order, between the raw OHLC and any external (e.g. ARIMA) columns.

Every indicator is causal: the value at index t depends only on bars <= t.
Warmup cells (windows not yet full) are NaN and removed later by cleaning.

Conventions where the window is degenerate: Williams %R reads -50 and the
balance-of-power raw term reads 0 when its denominator is zero, so a flat
window yields a neutral value instead of an undefined cell mid-series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SpecError
from .market_data import CandleSeries, FeatureFrame


@dataclass(frozen=True)
class IndicatorColumn:
    """A named series aligned to the candle index; the first ``warmup_len``
    cells are undefined (NaN)."""

    name: str
    values: np.ndarray
    warmup_len: int


def _column(name: str, values: np.ndarray) -> IndicatorColumn:
    finite = np.isfinite(values)
    warmup = int(np.argmax(finite)) if finite.any() else len(values)
    return IndicatorColumn(name=name, values=values, warmup_len=warmup)


def _rolling_mean(x: np.ndarray, n: int) -> np.ndarray:
    out = np.full(len(x), np.nan)
    if n <= len(x):
        windows = np.lib.stride_tricks.sliding_window_view(x, n)
        out[n - 1:] = windows.mean(axis=1)
    return out


def _rolling_std(x: np.ndarray, n: int) -> np.ndarray:
    # population standard deviation over each window
    out = np.full(len(x), np.nan)
    if n <= len(x):
        windows = np.lib.stride_tricks.sliding_window_view(x, n)
        out[n - 1:] = windows.std(axis=1)
    return out


def sma(closes: np.ndarray, n: int, name: str = "sma") -> IndicatorColumn:
    """Simple moving average: mean of the trailing n values."""
    if n < 1:
        raise ParameterError("sma period must be >= 1")
    return _column(name, _rolling_mean(np.asarray(closes, dtype=float), n))


def ema(closes: np.ndarray, n: int, name: str = "ema") -> IndicatorColumn:
    """Exponential moving average with K = 2/(n+1), seeded by the first-n SMA."""
    if n < 1:
        raise ParameterError("ema period must be >= 1")
    x = np.asarray(closes, dtype=float)
    out = np.full(len(x), np.nan)
    if n > len(x):
        return _column(name, out)
    k = 2.0 / (n + 1.0)
    value = x[:n].mean()
    out[n - 1] = value
    for i in range(n, len(x)):
        value = value + k * (x[i] - value)
        out[i] = value
    return _column(name, out)


def wma(closes: np.ndarray, n: int, name: str = "wma") -> IndicatorColumn:
    """Linearly weighted moving average (weight i+1 on the i-th oldest value)."""
    if n < 1:
        raise ParameterError("wma period must be >= 1")
    x = np.asarray(closes, dtype=float)
    out = np.full(len(x), np.nan)
    if n <= len(x):
        weights = np.arange(1, n + 1, dtype=float)
        windows = np.lib.stride_tricks.sliding_window_view(x, n)
        out[n - 1:] = windows @ weights / weights.sum()
    return _column(name, out)


def dema(closes: np.ndarray, n: int, name: str = "dema") -> IndicatorColumn:
    """Double EMA: 2*EMA(x) - EMA(EMA(x))."""
    e1 = ema(closes, n).values
    e2 = ema(e1[np.isfinite(e1)], n).values if np.isfinite(e1).any() else e1
    out = np.full(len(closes), np.nan)
    offset = len(closes) - len(e2)
    out[offset:] = 2.0 * e1[offset:] - e2
    return _column(name, out)


def tema(closes: np.ndarray, n: int, name: str = "tema") -> IndicatorColumn:
    """Triple EMA: 3*EMA - 3*EMA(EMA) + EMA(EMA(EMA))."""
    e1 = ema(closes, n).values
    d1 = e1[np.isfinite(e1)]
    e2full = np.full(len(closes), np.nan)
    e2full[len(closes) - len(d1):] = ema(d1, n).values if len(d1) else d1
    d2 = e2full[np.isfinite(e2full)]
    e3full = np.full(len(closes), np.nan)
    e3full[len(closes) - len(d2):] = ema(d2, n).values if len(d2) else d2
    out = 3.0 * e1 - 3.0 * e2full + e3full
    return _column(name, out)


def trima(closes: np.ndarray, n: int, name: str = "trima") -> IndicatorColumn:
    """Triangular moving average: SMA(SMA(x, m1), m2) with
    m1 = ceil((n+1)/2) and m2 = floor(n/2) + 1."""
    if n < 2:
        raise ParameterError("trima period must be >= 2")
    x = np.asarray(closes, dtype=float)
    m1 = math.ceil((n + 1) / 2)
    m2 = n // 2 + 1
    inner = _rolling_mean(x, m1)
    out = np.full(len(x), np.nan)
    defined = inner[np.isfinite(inner)]
    if len(defined) >= m2:
        out[m1 - 1 + m2 - 1:] = np.lib.stride_tricks.sliding_window_view(
            defined, m2
        ).mean(axis=1)
    return _column(name, out)


def macd(
    closes: np.ndarray, fast: int = 12, slow: int = 26, signal_period: int = 9
) -> tuple[IndicatorColumn, IndicatorColumn, IndicatorColumn]:
    """MACD line (fast EMA - slow EMA), its signal EMA, and the histogram."""
    if fast >= slow:
        raise ParameterError("macd requires fast < slow")
    line = ema(closes, fast).values - ema(closes, slow).values
    defined = line[np.isfinite(line)]
    sig = np.full(len(closes), np.nan)
    if len(defined):
        offset = len(closes) - len(defined)
        sig[offset:] = ema(defined, signal_period).values
    hist = line - sig
    return (
        _column("macd", line),
        _column("macdsignal", sig),
        _column("macdhist", hist),
    )


def willr(series: CandleSeries, n: int = 14, name: str = "willr") -> IndicatorColumn:
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
    return _column(name, out)


def bop(series: CandleSeries, n: int = 14, name: str = "bop") -> IndicatorColumn:
    """Balance of power: SMA over n of (close-open)/(high-low); 0 when high==low."""
    if n < 1:
        raise ParameterError("bop period must be >= 1")
    span = series.high - series.low
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (series.close - series.open) / span
    raw = np.where(span == 0, 0.0, raw)
    return _column(name, _rolling_mean(raw, n))


def true_range_atr(
    series: CandleSeries, n: int = 14
) -> tuple[IndicatorColumn, IndicatorColumn, IndicatorColumn]:
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
    return _column("trange", tr), _column("atr", atr), _column("natr", natr)


def price_transforms(
    series: CandleSeries,
) -> tuple[IndicatorColumn, IndicatorColumn, IndicatorColumn, IndicatorColumn]:
    """avg=(O+H+L+C)/4, med=(H+L)/2, typ=(H+L+C)/3, wcl=(2C+H+L)/4."""
    o, h, l, c = series.open, series.high, series.low, series.close
    return (
        _column("avgprice", (o + h + l + c) / 4.0),
        _column("medprice", (h + l) / 2.0),
        _column("typprice", (h + l + c) / 3.0),
        _column("wclprice", (2.0 * c + h + l) / 4.0),
    )


def bbands(
    closes: np.ndarray, n: int = 20, k: float = 2.0
) -> tuple[IndicatorColumn, IndicatorColumn, IndicatorColumn]:
    """Bollinger bands: middle = SMA(n), upper/lower = middle +/- k*stddev.

    The deviation is the population standard deviation over the window.
    """
    if n < 2:
        raise ParameterError("bbands period must be >= 2")
    if not (k > 0):
        raise ParameterError("bbands width k must be > 0")
    x = np.asarray(closes, dtype=float)
    middle = _rolling_mean(x, n)
    dev = _rolling_std(x, n)
    return (
        _column("upperband", middle + k * dev),
        _column("middleband", middle),
        _column("lowerband", middle - k * dev),
    )


def rsi(closes: np.ndarray, n: int = 14, name: str = "rsi") -> IndicatorColumn:
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
    return _column(name, out)


def mom(closes: np.ndarray, n: int = 10, name: str = "mom") -> IndicatorColumn:
    """Momentum: close(t) - close(t-n)."""
    if n < 1:
        raise ParameterError("mom period must be >= 1")
    x = np.asarray(closes, dtype=float)
    out = np.full(len(x), np.nan)
    if len(x) > n:
        out[n:] = x[n:] - x[:-n]
    return _column(name, out)


def roc(closes: np.ndarray, n: int = 10, name: str = "roc") -> IndicatorColumn:
    """Rate of change: (close(t)/close(t-n) - 1) * 100."""
    if n < 1:
        raise ParameterError("roc period must be >= 1")
    x = np.asarray(closes, dtype=float)
    out = np.full(len(x), np.nan)
    if len(x) > n:
        out[n:] = (x[n:] / x[:-n] - 1.0) * 100.0
    return _column(name, out)


def shipped_indicators(series: CandleSeries) -> list[IndicatorColumn]:
    """The shipped indicator columns, in feature order (periods follow the
    feature names used in reports plus industry defaults where unnamed)."""
    closes = series.close
    return [
        sma(closes, 10, "sma10"),
        sma(closes, 30, "sma30"),
        ema(closes, 10, "ema10"),
        wma(closes, 5, "wma5"),
        dema(closes, 30),
        tema(closes, 30),
        trima(closes, 30, "trima30"),
        *macd(closes, 12, 26, 9),
        willr(series, 14),
        bop(series, 14),
        *true_range_atr(series, 14),
        *price_transforms(series),
        *bbands(closes, 20, 2.0),
        rsi(closes, 14),
        mom(closes, 10),
        roc(closes, 10, "roc10"),
    ]


def compute_features(
    series: CandleSeries,
    indicators: bool = True,
    extra: dict[str, np.ndarray] | None = None,
) -> FeatureFrame:
    """Assemble raw OHLC, the shipped indicators (unless ``indicators`` is
    false) and any external columns (e.g. rolling ARIMA forecasts) into one
    FeatureFrame."""
    columns: dict[str, np.ndarray] = {
        "open": series.open.copy(),
        "high": series.high.copy(),
        "low": series.low.copy(),
        "close": series.close.copy(),
    }
    if indicators:
        columns.update((col.name, col.values)
                       for col in shipped_indicators(series))
    for name, values in (extra or {}).items():
        if name in columns:
            raise SpecError(f"duplicate extra column {name!r}")
        values = np.asarray(values, dtype=float)
        if len(values) != len(series):
            raise ParameterError(f"extra column {name!r} not aligned to series")
        columns[name] = values
    return FeatureFrame(index=series.timestamps, columns=columns)
