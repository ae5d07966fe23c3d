import numpy as np
import pytest

from fxstack import indicators as ind
from fxstack.errors import ParameterError, SpecError
from fxstack.market_data import generate_synthetic_ohlc
from oracles import (
    atr_oracle,
    bbands_oracle,
    bop_oracle,
    dema_oracle,
    ema_oracle,
    macd_oracle,
    mom_oracle,
    roc_oracle,
    rsi_oracle,
    sma_oracle,
    tema_oracle,
    trima_oracle,
    true_range_oracle,
    willr_oracle,
    wma_oracle,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def series():
    return generate_synthetic_ohlc(1000, seed=123, volatility=0.002)


def assert_matches(got, expected, tol=TOL):
    assert got.shape == expected.shape
    defined = np.isfinite(expected)
    np.testing.assert_array_equal(np.isfinite(got), defined)
    np.testing.assert_allclose(got[defined], expected[defined],
                               rtol=0, atol=tol)


def test_sma_matches_oracle(series):
    for n in (1, 5, 10, 30):
        assert_matches(ind.sma(series.close, n), sma_oracle(series.close, n))


def test_ema_matches_oracle(series):
    for n in (5, 10, 26):
        assert_matches(ind.ema(series.close, n), ema_oracle(series.close, n))


def test_wma_matches_oracle(series):
    for n in (1, 5, 20):
        assert_matches(ind.wma(series.close, n), wma_oracle(series.close, n))


def test_dema_tema_match_oracle(series):
    assert_matches(ind.dema(series.close, 30), dema_oracle(series.close, 30))
    assert_matches(ind.tema(series.close, 30), tema_oracle(series.close, 30))


def test_trima_matches_oracle(series):
    for n in (4, 5, 30):
        assert_matches(ind.trima(series.close, n),
                       trima_oracle(series.close, n))


def test_macd_matches_oracle(series):
    line, sig, hist = ind.macd(series.close)
    o_line, o_sig, o_hist = macd_oracle(series.close)
    assert_matches(line, o_line)
    assert_matches(sig, o_sig)
    assert_matches(hist, o_hist)


def test_willr_matches_oracle(series):
    assert_matches(
        ind.willr(series, 14),
        willr_oracle(series.high, series.low, series.close, 14),
    )


def test_willr_flat_window_reads_minus_50():
    flat = generate_synthetic_ohlc(30, seed=1)
    prices = np.full(30, 1.25)
    flat = type(flat)(timestamps=flat.timestamps, open=prices, high=prices,
                      low=prices, close=prices)
    values = ind.willr(flat, 14)
    assert np.all(values[13:] == -50.0)


def test_bop_matches_oracle(series):
    assert_matches(
        ind.bop(series, 14),
        bop_oracle(series.open, series.high, series.low, series.close, 14),
    )


def test_atr_family_matches_oracle(series):
    tr, atr, natr = ind.true_range_atr(series, 14)
    o_tr = true_range_oracle(series.high, series.low, series.close)
    o_atr = atr_oracle(series.high, series.low, series.close, 14)
    assert_matches(tr, o_tr)
    assert_matches(atr, o_atr)
    assert_matches(natr, 100.0 * o_atr / series.close)


def test_price_transforms(series):
    table = ind.shipped_indicators(series)
    o, h, l, c = series.open, series.high, series.low, series.close
    np.testing.assert_allclose(table["avgprice"], (o + h + l + c) / 4, atol=TOL)
    np.testing.assert_allclose(table["medprice"], (h + l) / 2, atol=TOL)
    np.testing.assert_allclose(table["typprice"], (h + l + c) / 3, atol=TOL)
    np.testing.assert_allclose(table["wclprice"], (2 * c + h + l) / 4,
                               atol=TOL)


def test_bbands_matches_oracle(series):
    upper, mid, lower = ind.bbands(series.close, 20, 2.0)
    o_up, o_mid, o_lo = bbands_oracle(series.close, 20, 2.0)
    assert_matches(upper, o_up)
    assert_matches(mid, o_mid)
    assert_matches(lower, o_lo)


def test_rsi_mom_roc_match_oracle(series):
    assert_matches(ind.rsi(series.close, 14), rsi_oracle(series.close, 14))
    assert_matches(ind.mom(series.close, 10), mom_oracle(series.close, 10))
    assert_matches(ind.roc(series.close, 10), roc_oracle(series.close, 10))


def test_rsi_extremes():
    rising = np.linspace(1.0, 2.0, 40)
    assert np.all(ind.rsi(rising, 14)[14:] == 100.0)
    falling = rising[::-1].copy()
    assert np.all(ind.rsi(falling, 14)[14:] == 0.0)


def test_indicators_are_causal(series):
    """Prefix invariance: truncating the series does not change earlier values."""
    m = 400
    head = type(series)(
        timestamps=series.timestamps[:m], open=series.open[:m],
        high=series.high[:m], low=series.low[:m], close=series.close[:m],
    )
    pairs = [
        (ind.ema(series.close, 10), ind.ema(head.close, 10)),
        (ind.trima(series.close, 30), ind.trima(head.close, 30)),
        (ind.willr(series, 14), ind.willr(head, 14)),
        (ind.rsi(series.close, 14), ind.rsi(head.close, 14)),
    ]
    for full, truncated in pairs:
        np.testing.assert_array_equal(full[:m], truncated)


def test_bad_periods_raise(series):
    with pytest.raises(ParameterError):
        ind.sma(series.close, 0)
    with pytest.raises(ParameterError):
        ind.trima(series.close, 1)
    with pytest.raises(ParameterError):
        ind.macd(series.close, fast=26, slow=12)
    with pytest.raises(ParameterError):
        ind.bbands(series.close, 20, k=0.0)


# Each shipped column's oracle at the period its name or the
# shipped_indicators docstring gives, in feature order.
SHIPPED_ORACLES = {
    "sma10": lambda s: sma_oracle(s.close, 10),
    "sma30": lambda s: sma_oracle(s.close, 30),
    "ema10": lambda s: ema_oracle(s.close, 10),
    "wma5": lambda s: wma_oracle(s.close, 5),
    "dema": lambda s: dema_oracle(s.close, 30),
    "tema": lambda s: tema_oracle(s.close, 30),
    "trima30": lambda s: trima_oracle(s.close, 30),
    "macd": lambda s: macd_oracle(s.close, 12, 26, 9)[0],
    "macdsignal": lambda s: macd_oracle(s.close, 12, 26, 9)[1],
    "macdhist": lambda s: macd_oracle(s.close, 12, 26, 9)[2],
    "willr": lambda s: willr_oracle(s.high, s.low, s.close, 14),
    "bop": lambda s: bop_oracle(s.open, s.high, s.low, s.close, 14),
    "trange": lambda s: true_range_oracle(s.high, s.low, s.close),
    "atr": lambda s: atr_oracle(s.high, s.low, s.close, 14),
    "natr": lambda s: 100.0 * atr_oracle(s.high, s.low, s.close, 14) / s.close,
    "avgprice": lambda s: (s.open + s.high + s.low + s.close) / 4,
    "medprice": lambda s: (s.high + s.low) / 2,
    "typprice": lambda s: (s.high + s.low + s.close) / 3,
    "wclprice": lambda s: (2 * s.close + s.high + s.low) / 4,
    "upperband": lambda s: bbands_oracle(s.close, 20, 2.0)[0],
    "middleband": lambda s: bbands_oracle(s.close, 20, 2.0)[1],
    "lowerband": lambda s: bbands_oracle(s.close, 20, 2.0)[2],
    "rsi": lambda s: rsi_oracle(s.close, 14),
    "mom": lambda s: mom_oracle(s.close, 10),
    "roc10": lambda s: roc_oracle(s.close, 10),
}


def test_shipped_table_names_every_oracle_column(series):
    assert list(ind.shipped_indicators(series)) == list(SHIPPED_ORACLES)


@pytest.mark.parametrize("name", list(SHIPPED_ORACLES))
def test_shipped_column_uses_its_indicator_and_period(series, name):
    """A column computed by the wrong indicator or period fails here: the
    NaN prefix or the values differ from the oracle's."""
    assert_matches(ind.shipped_indicators(series)[name],
                   SHIPPED_ORACLES[name](series))


def test_compute_features_assembles_all_columns(series):
    frame = ind.compute_features(series,
                                 extra={"arima_close": series.close.copy()})
    names = frame.feature_names
    assert names[:4] == ["open", "high", "low", "close"]
    for expected in ("sma10", "macd", "macdsignal", "macdhist", "atr",
                     "upperband", "rsi", "arima_close"):
        assert expected in names


def test_compute_features_column_order(series):
    """The column order drives features.csv and the tree feature indices."""
    frame = ind.compute_features(series, extra={
        "arima_close": series.close.copy(), "arima_high": series.high.copy()})
    assert frame.feature_names == [
        "open", "high", "low", "close", "sma10", "sma30", "ema10", "wma5",
        "dema", "tema", "trima30", "macd", "macdsignal", "macdhist", "willr",
        "bop", "trange", "atr", "natr", "avgprice", "medprice", "typprice",
        "wclprice", "upperband", "middleband", "lowerband", "rsi", "mom",
        "roc10", "arima_close", "arima_high"]


def test_compute_features_rejects_duplicates(series):
    with pytest.raises(SpecError):
        ind.compute_features(series, False, extra={"close": series.close})
