from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from fxstack import market_data as md
from fxstack.errors import (
    InsufficientDataError,
    OrderingError,
    ParameterError,
    SchemaError,
    SplitError,
)
from oracles import feature_csv_oracle, highest_high_oracle

UTC = timezone.utc


def test_rfc3339_roundtrip():
    ts = datetime(2021, 3, 5, 14, 45, tzinfo=UTC)
    assert md.parse_rfc3339(md.format_rfc3339(ts)) == ts
    assert md.parse_rfc3339("2021-03-05T14:45:00Z") == ts
    assert md.parse_rfc3339("2021-03-05T14:45:00+00:00") == ts


def test_candle_validity():
    ts = datetime(2021, 1, 1, tzinfo=UTC)
    assert md.Candle(ts, 1.0, 1.2, 0.9, 1.1).is_valid()
    assert not md.Candle(ts, 1.0, 0.95, 0.9, 1.1).is_valid()  # high < open
    assert not md.Candle(ts, 1.0, 1.2, 0.9, -1.0).is_valid()  # negative price


def test_candle_series_rejects_unordered():
    ts = datetime(2021, 1, 1, tzinfo=UTC)
    stamps = np.array([ts, ts], dtype=object)
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
    ])
    series, dropped = md.load_ohlc_csv(path)
    assert len(series) == 2
    assert dropped == {"invalid_candle": 1, "unparseable_price": 1}


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
            timeframe=series.timeframe,
        )
        label = md.compute_highest_high(bumped, 5)
        assert (label[t] != base[t]) == expect_change


def test_clean_drops_and_counts():
    idx = np.array([datetime(2021, 1, 1, tzinfo=UTC) + timedelta(minutes=i)
                    for i in range(5)], dtype=object)
    frame = md.FeatureFrame(index=idx, columns={
        "a": np.array([np.nan, 1.0, 2.0, 3.0, 4.0]),
        "b": np.array([np.nan, np.nan, 2.0, 3.0, np.nan]),
    })
    cleaned, counts = md.clean(frame)
    assert len(cleaned) == 2
    assert counts == {"a": 1, "b": 3}
    assert np.isfinite(cleaned.column("a")).all()


def test_lagged_names_and_window_order():
    series = md.generate_synthetic_ohlc(30, seed=2)
    frame = md.FeatureFrame(index=series.timestamps, columns={
        "close": series.close, "high": series.high,
    })
    frame = frame.with_label("y", np.arange(30, dtype=float))
    ds = md.to_windowed(frame, lookback=3)
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
    flat = md.to_windowed(frame, 5)
    assert seq.X.shape == (46, 5, 2)
    np.testing.assert_array_equal(flat.X, seq.X.reshape(46, 10))
    np.testing.assert_array_equal(flat.y, seq.y)


def test_windowing_requires_finite_cells():
    series = md.generate_synthetic_ohlc(20, seed=1)
    values = series.close.copy()
    values[3] = np.nan
    frame = md.FeatureFrame(index=series.timestamps, columns={"close": values})
    frame = frame.with_label("y", np.ones(20))
    with pytest.raises(ParameterError):
        md.to_windowed(frame, 3)


def test_split_spec_validation():
    t0 = datetime(2021, 1, 1, tzinfo=UTC)
    with pytest.raises(SplitError):
        md.SplitSpec(train=(t0, t0), validation=(t0, t0), test=(t0, t0))
    with pytest.raises(SplitError):  # overlapping train/validation
        md.SplitSpec(
            train=(t0, t0 + timedelta(days=2)),
            validation=(t0 + timedelta(days=1), t0 + timedelta(days=3)),
            test=(t0 + timedelta(days=3), t0 + timedelta(days=4)),
        )


def test_split_by_dates_partitions_rows():
    series = md.generate_synthetic_ohlc(100, seed=6)
    frame = md.FeatureFrame(index=series.timestamps,
                            columns={"close": series.close})
    spec = md.split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    train, val, test = md.split_by_dates(frame, spec)
    assert len(train) + len(val) + len(test) == 100
    assert train.index[-1] < val.index[0] < test.index[0]
    # half-open ranges: no timestamp appears twice
    all_ts = list(train.index) + list(val.index) + list(test.index)
    assert len(set(all_ts)) == 100


def test_generate_planted_frame_names_informative():
    planted = md.generate_planted_frame(500, n_features=10, n_informative=2,
                                        seed=3)
    assert len(planted.informative) == 2
    assert set(planted.informative) <= set(planted.frame.feature_names)
    assert planted.frame.label_name == "highest_high"


def test_split_fractions_insufficient_rows():
    idx = np.array([datetime(2021, 1, 1, tzinfo=UTC)], dtype=object)
    with pytest.raises(InsufficientDataError):
        md.split_spec_from_fractions(idx, (0.6, 0.2, 0.2))


@pytest.mark.parametrize("block_rows", [4, md._CSV_BLOCK_ROWS])
def test_feature_csv_matches_per_cell_oracle(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(md, "_CSV_BLOCK_ROWS", block_rows)  # 4: partial blocks
    special = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 1.0, 0.1 + 0.2,
               -1.5e17, 5e-324]
    rng = np.random.default_rng(19)
    n = len(special) + 6
    idx = np.array([datetime(2021, 1, 1, tzinfo=UTC) + timedelta(minutes=15 * i)
                    for i in range(n)], dtype=object)
    frame = md.FeatureFrame(index=idx, columns={
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
