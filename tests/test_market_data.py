import re
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxstack import market_data as md
from fxstack.errors import (
    InsufficientDataError,
    OrderingError,
    ParameterError,
    SchemaError,
)
from oracles import feature_csv_oracle, highest_high_oracle, load_csv_oracle
from planted import generate_planted_frame

MINUTE = np.timedelta64(1, "m")


def _stamps(n, step=15 * MINUTE):
    return np.datetime64("2021-01-01", "us") + np.arange(n) * step


def test_rfc3339_roundtrip():
    ts = np.datetime64("2021-03-05T14:45", "us")
    assert md.parse_rfc3339(md.format_rfc3339(ts)) == ts
    assert md.parse_rfc3339("2021-03-05T14:45:00Z") == ts
    assert md.parse_rfc3339("2021-03-05T14:45:00+00:00") == ts


def test_candle_series_rejects_unordered():
    ts = np.datetime64("2021-01-01", "us")
    stamps = np.array([ts, ts])
    ones = np.ones(2)
    with pytest.raises(OrderingError):
        md.CandleSeries(timestamps=stamps, open=ones, high=ones,
                        low=ones, close=ones)


def _write_csv(path, rows):
    lines = ["datetime,open,high,low,close"] + rows
    path.write_text("\n".join(lines) + "\n")


def test_load_ohlc_csv_happy_path(tmp_path):
    path = tmp_path / "bars.csv"
    _write_csv(path, [
        "2021-01-01T00:00:00Z,1.0,1.2,0.9,1.1",
        "2021-01-01T00:15:00Z,1.1,1.3,1.0,1.2",
    ])
    series, dropped = md.load_ohlc_csv(path)
    assert len(series) == 2
    assert dropped == {}
    assert series.close[1] == 1.2


def test_load_ohlc_csv_drops_and_counts_invalid(tmp_path):
    path = tmp_path / "bars.csv"
    _write_csv(path, [
        "2021-01-01T00:00:00Z,1.0,1.2,0.9,1.1",
        "2021-01-01T00:15:00Z,1.1,0.5,1.0,1.2",   # high below open: invalid
        "2021-01-01T00:30:00Z,1.1,1.3,1.0,oops",  # unparseable price
        "2021-01-01T00:45:00Z,1.1,1.3,1.0,1.2",
        "2021-01-01T01:00:00Z,1.0,1.2,0.9,-1.0",  # negative price: invalid
    ])
    series, dropped = md.load_ohlc_csv(path)
    assert len(series) == 2
    assert dropped == {"invalid_candle": 2, "unparseable_price": 1}


def test_load_ohlc_csv_schema_and_ordering_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("time,open,high,low,close\n")
    with pytest.raises(SchemaError):
        md.load_ohlc_csv(bad_header)

    unordered = tmp_path / "o.csv"
    _write_csv(unordered, [
        "2021-01-01T00:15:00Z,1.0,1.2,0.9,1.1",
        "2021-01-01T00:00:00Z,1.0,1.2,0.9,1.1",
    ])
    with pytest.raises(OrderingError, match="row 3"):
        md.load_ohlc_csv(unordered)


def test_highest_high_matches_oracle():
    series = md.generate_synthetic_ohlc(300, seed=9)
    for horizon in (1, 5, 10):
        label = md.compute_highest_high(series, horizon)
        expected = highest_high_oracle(series.high, horizon)
        defined = np.isfinite(expected)
        np.testing.assert_array_equal(np.isfinite(label), defined)
        np.testing.assert_array_equal(label[defined], expected[defined])


def test_highest_high_label_locality():
    """Perturbing high[t+k] moves label(t) iff 1 <= k <= horizon."""
    series = md.generate_synthetic_ohlc(100, seed=4)
    base = md.compute_highest_high(series, 5)
    t = 40
    for k, expect_change in [(1, True), (5, True), (6, False), (0, False)]:
        highs = series.high.copy()
        highs[t + k] += 10.0
        bumped = md.CandleSeries(
            timestamps=series.timestamps, open=series.open, high=highs,
            low=series.low, close=np.minimum(series.close, highs),
        )
        label = md.compute_highest_high(bumped, 5)
        assert (label[t] != base[t]) == expect_change


def test_clean_drops_and_counts():
    frame = md.FeatureFrame(index=_stamps(5, MINUTE), columns={
        "a": np.array([np.nan, 1.0, 2.0, 3.0, 4.0]),
        "b": np.array([np.nan, np.nan, 2.0, 3.0, np.nan]),
    })
    cleaned, counts = md.clean(frame)
    assert len(cleaned) == 2
    assert counts == {"a": 1, "b": 3}
    assert np.isfinite(cleaned.columns["a"]).all()


def test_lagged_names_and_window_order():
    series = md.generate_synthetic_ohlc(30, seed=2)
    frame = md.FeatureFrame(index=series.timestamps, columns={
        "close": series.close, "high": series.high,
    })
    frame = frame.with_label("y", np.arange(30, dtype=float))
    ds = md.to_windowed(md.to_sequences(frame, lookback=3))
    assert ds.feature_names == [
        "close(t-2)", "high(t-2)", "close(t-1)", "high(t-1)",
        "close(t)", "high(t)",
    ]
    # row 0 covers bars 0..2 and is labeled by bar 2
    np.testing.assert_array_equal(
        ds.X[0], [series.close[0], series.high[0], series.close[1],
                  series.high[1], series.close[2], series.high[2]])
    assert ds.y[0] == 2.0
    assert ds.row_timestamps[0] == series.timestamps[2]


def test_windowed_is_flattened_sequences():
    series = md.generate_synthetic_ohlc(50, seed=3)
    frame = md.FeatureFrame(index=series.timestamps, columns={
        "close": series.close, "high": series.high,
    }).with_label("y", np.arange(50, dtype=float))
    seq = md.to_sequences(frame, 5)
    flat = md.to_windowed(seq)
    assert seq.X.shape == (46, 5, 2)
    np.testing.assert_array_equal(flat.X, seq.X.reshape(46, 10))
    np.testing.assert_array_equal(flat.y, seq.y)
    # a view of the windows: flattening builds no window
    assert np.shares_memory(flat.X, seq.X)


def test_windowing_requires_finite_cells():
    series = md.generate_synthetic_ohlc(20, seed=1)
    values = series.close.copy()
    values[3] = np.nan
    frame = md.FeatureFrame(index=series.timestamps, columns={"close": values})
    frame = frame.with_label("y", np.ones(20))
    with pytest.raises(ParameterError):
        md.to_windowed(md.to_sequences(frame, 3))


def test_split_counts_ignore_stamp_gaps():
    """Gaps between stamps from a microsecond to a week: the three parts
    hold exactly split_sizes' counts of consecutive rows."""
    gaps = 10 ** np.random.default_rng(8).uniform(0, 11.8, size=99)
    index = np.datetime64("2021-01-01", "us") + np.concatenate(
        [[0], np.cumsum(gaps.astype(np.int64) + 1)]).astype("timedelta64[us]")
    frame = md.FeatureFrame(index=index, columns={"row": np.arange(100.0)})
    for fractions in [(0.6, 0.2, 0.2), (0.7, 0.15, 0.15), (1, 1, 98),
                      (98, 1, 1)]:
        spec = md.split_spec_from_fractions(frame.index, fractions)
        parts = md.split_by_dates(frame, spec)
        assert [len(p) for p in parts] == list(md.split_sizes(100, fractions))
        np.testing.assert_array_equal(
            np.concatenate([p.columns["row"] for p in parts]), np.arange(100.0))
        np.testing.assert_array_equal(
            np.concatenate([p.index for p in parts]), index)


def test_split_by_dates_partitions_rows():
    series = md.generate_synthetic_ohlc(100, seed=6)
    frame = md.FeatureFrame(index=series.timestamps,
                            columns={"close": series.close})
    spec = md.split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    train, val, test = md.split_by_dates(frame, spec)
    assert len(train) + len(val) + len(test) == 100
    assert train.index[-1] < val.index[0] < test.index[0]
    # consecutive row ranges: no timestamp appears twice
    all_ts = list(train.index) + list(val.index) + list(test.index)
    assert len(set(all_ts)) == 100


def test_generate_planted_frame_names_informative():
    planted = generate_planted_frame(500, n_features=10, n_informative=2,
                                     seed=3)
    assert len(planted.informative) == 2
    assert set(planted.informative) <= set(planted.frame.feature_names)
    assert planted.frame.label_name == "highest_high"


def test_split_fractions_insufficient_rows():
    with pytest.raises(InsufficientDataError):
        md.split_spec_from_fractions(_stamps(1), (0.6, 0.2, 0.2))


@pytest.mark.parametrize("block_rows", [4, md._CSV_BLOCK_ROWS])
def test_feature_csv_matches_per_cell_oracle(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(md, "_CSV_BLOCK_ROWS", block_rows)  # 4: partial blocks
    special = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 1.0, 0.1 + 0.2,
               -1.5e17, 5e-324]
    rng = np.random.default_rng(19)
    n = len(special) + 6
    frame = md.FeatureFrame(index=_stamps(n), columns={
        "plain": np.concatenate([special, rng.normal(size=6)]),
        'needs, "quoting"': np.concatenate([rng.normal(size=6), special[::-1]]),
        "ints": np.arange(n),
        "label": np.concatenate([rng.normal(size=n - 3), [np.nan] * 3]),
    }, label_name="label")
    frame.to_csv(tmp_path / "fast.csv")
    feature_csv_oracle(frame, tmp_path / "oracle.csv")
    text = (tmp_path / "fast.csv").read_bytes()
    assert text == (tmp_path / "oracle.csv").read_bytes()
    lines = text.decode().splitlines()
    assert lines[0] == 'datetime,plain,"needs, ""quoting""",ints,label'
    assert lines[1].split(",")[1] == "NaN"  # NaN, +inf and -inf all read NaN
    assert lines[3].split(",")[1] == "NaN"
    assert lines[4].split(",")[1] == "-0.0"
    assert lines[5].split(",")[1] == "1e-300"


@pytest.mark.parametrize("index", [
    np.array([datetime(2021, 1, 1), datetime(2021, 1, 2)], dtype=object),
    np.array(["2021-01-01", "2021-01-02"], dtype="datetime64[s]"),
    np.arange(2),
    list(_stamps(2)),
], ids=["object", "seconds", "int", "list"])
def test_containers_reject_other_index_types(index):
    ones = np.ones(2)
    with pytest.raises(ParameterError, match=r"datetime64\[us\]"):
        md.FeatureFrame(index=index, columns={"a": ones})
    with pytest.raises(ParameterError, match=r"datetime64\[us\]"):
        md.CandleSeries(timestamps=index, open=ones, high=ones, low=ones,
                        close=ones)


_EPOCH = datetime(1970, 1, 1)
_BAR_US = 15 * 60 * 10**6
_ROW_KINDS = ("valid",) * 4 + ("flat", "blank", "unparseable", "bad_value",
                               "high_below_open", "low_above_close")
_STEPS = ("bar",) * 6 + ("gap", "subsecond", "duplicate", "decrease")
_OFFSETS = {"Z": 0, "z": 0, "": 0, "+02:00": 120, "-05:30": -330}


@st.composite
def _csv_rows(draw):
    """Data rows of 5 fields with parseable dates, or blank lines: valid and
    flat bars, unparseable, non-finite and non-positive prices, high below
    open and low above close, on stamps that step a bar, jump a gap, step
    less than a second, repeat or go back, with any of five suffixes."""
    price = st.floats(0.5, 2.0)
    wick = st.floats(0.0, 0.1)
    t = 1_420_070_400 * 10**6  # 2015-01-01T00:00:00Z
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(_ROW_KINDS))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", ",,,,", " , ,,, "])))
            continue
        step = draw(st.sampled_from(_STEPS))
        if step in ("bar", "gap"):
            bars = 1 if step == "bar" else draw(st.integers(2, 500))
            t += bars * _BAR_US + draw(st.sampled_from([0, 0, 1, 999_999]))
        elif step == "subsecond":
            t += draw(st.integers(1, 999_999))
        elif step == "decrease":
            t -= draw(st.integers(1, 3 * _BAR_US))
        suffix = draw(st.sampled_from(sorted(_OFFSETS)))
        local = _EPOCH + timedelta(microseconds=t, minutes=_OFFSETS[suffix])
        o, c = draw(price), draw(price)
        h, lo = max(o, c) + draw(wick), min(o, c) - draw(wick)
        if kind == "flat":
            h = lo = c = o
        elif kind == "high_below_open":
            h = o - draw(st.floats(1e-9, 0.1))
        elif kind == "low_above_close":
            lo = c + draw(st.floats(1e-9, 0.1))
        cells = [repr(v) for v in (o, h, lo, c)]
        if kind in ("unparseable", "bad_value"):
            bad = (["oops", "", "n/a", "1.2.3"] if kind == "unparseable" else
                   ["nan", "inf", "-inf", "0", "0.0", "-0.0", "-1.5"])
            cells[draw(st.integers(0, 3))] = draw(st.sampled_from(bad))
        lines.append(",".join([local.isoformat() + suffix] + cells))
    return lines


def _outcome(load, path):
    try:
        return load(path)
    except (SchemaError, OrderingError) as exc:
        return type(exc), re.search(r"row (\d+)", str(exc)).group(1)


@settings(max_examples=300, deadline=None)
@given(_csv_rows())
def test_load_ohlc_csv_matches_row_by_row_oracle(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bars.csv"
        _write_csv(path, rows)
        expected = _outcome(load_csv_oracle, path)
        got = _outcome(md.load_ohlc_csv, path)
    if isinstance(expected[0], type):
        assert got == expected
        return
    stamps, ohlc, dropped = expected
    series, got_dropped = got
    assert series.timestamps.dtype == stamps.dtype
    np.testing.assert_array_equal(series.timestamps, stamps)
    np.testing.assert_array_equal(
        np.column_stack([series.open, series.high, series.low, series.close]),
        ohlc)
    assert got_dropped == dropped
