"""OHLC candle ingestion, labeling, cleaning, splitting, and windowing.

All containers are immutable after construction and all operations are pure.
Undefined cells (indicator warmup, tail label rows) are carried as NaN and
must be removed with :func:`clean` before windowing.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyFrameError,
    InsufficientDataError,
    OrderingError,
    ParameterError,
    SchemaError,
    SplitError,
)

CSV_HEADER = ["datetime", "open", "high", "low", "close"]
OHLC_COLUMNS = ("open", "high", "low", "close")
# every timestamp is UTC at Python datetime's own resolution, so a stamp
# that parses keeps its exact value
STAMP_DTYPE = np.dtype("datetime64[us]")
_SYNTHETIC_START = np.datetime64("2014-06-01", "us")
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def parse_rfc3339(text: str) -> np.datetime64:
    """Parse an RFC 3339 timestamp into a UTC ``datetime64[us]``."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return np.datetime64((dt - _EPOCH) // _MICROSECOND, "us")


def format_rfc3339(stamps):
    """``YYYY-MM-DDTHH:MM:SSZ`` of a ``datetime64`` scalar (a ``str``) or
    array (an array of ``str``), truncated to whole seconds."""
    text = np.char.add(np.datetime_as_string(stamps, unit="s"), "Z")
    return text if text.ndim else str(text)


def _check_stamps(stamps, what: str) -> None:
    if not (isinstance(stamps, np.ndarray) and stamps.dtype == STAMP_DTYPE):
        found = getattr(stamps, "dtype", type(stamps).__name__)
        raise ParameterError(f"{what} must be a datetime64[us] array, got {found}")


def _first_not_later(stamps: np.ndarray) -> int | None:
    """Position of the first stamp not after its predecessor, if any."""
    later = np.diff(stamps) > np.timedelta64(0)
    return None if later.all() else int(np.argmin(later)) + 1


@dataclass(frozen=True)
class CandleSeries:
    """Time-ordered OHLC bars with strictly increasing timestamps.

    Columns are stored as parallel numpy arrays; ``timestamps`` holds UTC
    ``datetime64[us]`` values. Gaps are permitted, duplicates are not.
    """

    timestamps: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray

    def __post_init__(self) -> None:
        _check_stamps(self.timestamps, "timestamps")
        n = len(self.timestamps)
        for name in OHLC_COLUMNS:
            if len(getattr(self, name)) != n:
                raise ParameterError(f"column {name!r} length mismatch")
        i = _first_not_later(self.timestamps)
        if i is not None:
            raise OrderingError(f"timestamps not strictly increasing at row "
                                f"{i}: {self.timestamps[i]}")

    def __len__(self) -> int:
        return len(self.timestamps)


# rows formatted at once by FeatureFrame.to_csv: a whole 6k-row frame held
# as strings raised the peak RSS of `fxstack features` by about 13 MB
_CSV_BLOCK_ROWS = 256


@dataclass(frozen=True)
class FeatureFrame:
    """Time-indexed named numeric columns with an optional label column.

    NaN marks a cell as undefined (warmup or missing label), never zero.
    """

    index: np.ndarray  # UTC datetime64[us]
    columns: dict[str, np.ndarray]
    label_name: str | None = None

    def __post_init__(self) -> None:
        _check_stamps(self.index, "index")
        n = len(self.index)
        for name, values in self.columns.items():
            if len(values) != n:
                raise ParameterError(f"column {name!r} length {len(values)} != {n}")
        if self.label_name is not None and self.label_name not in self.columns:
            raise ParameterError(f"label column {self.label_name!r} missing")

    def __len__(self) -> int:
        return len(self.index)

    @property
    def feature_names(self) -> list[str]:
        return [c for c in self.columns if c != self.label_name]

    @property
    def label(self) -> np.ndarray:
        if self.label_name is None:
            raise ParameterError("frame has no label column")
        return self.columns[self.label_name]

    def with_label(self, name: str, values: np.ndarray) -> "FeatureFrame":
        cols = dict(self.columns)
        cols[name] = np.asarray(values, dtype=float)
        return FeatureFrame(index=self.index, columns=cols, label_name=name)

    def select(self, names: list[str]) -> "FeatureFrame":
        """Keep only the named feature columns (label retained if present)."""
        cols = {n: self.columns[n] for n in names}
        label = self.label_name
        if label is not None and label not in cols:
            cols[label] = self.columns[label]
        return FeatureFrame(index=self.index, columns=cols, label_name=label)

    def take(self, rows) -> "FeatureFrame":
        cols = {n: v[rows] for n, v in self.columns.items()}
        return FeatureFrame(index=self.index[rows], columns=cols,
                            label_name=self.label_name)

    def matrix(self, names: list[str] | None = None) -> np.ndarray:
        names = self.feature_names if names is None else names
        return np.column_stack([self.columns[n] for n in names])

    def to_csv(self, path) -> None:
        """Write the frame with ``NaN`` literals for non-finite cells and the
        ``repr`` of every other value. Each column is formatted in one pass
        per block of ``_CSV_BLOCK_ROWS`` rows."""
        names = list(self.columns)
        with open(path, "w", newline="") as fh:
            # a column name can need quoting, so the header goes through csv
            csv.writer(fh).writerow(["datetime"] + names)
            for start in range(0, len(self), _CSV_BLOCK_ROWS):
                rows = slice(start, start + _CSV_BLOCK_ROWS)
                cells = [format_rfc3339(self.index[rows]).tolist()]
                for name in names:
                    values = np.asarray(self.columns[name][rows], dtype=float)
                    text = list(map(repr, values.tolist()))
                    for i in np.flatnonzero(~np.isfinite(values)).tolist():
                        text[i] = "NaN"
                    cells.append(text)
                # no cell (an RFC 3339 stamp, a float repr or NaN) holds a
                # comma, a quote or a line break, so none needs quoting;
                # "\r\n" is csv.writer's line terminator
                fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


@dataclass(frozen=True)
class SequenceDataset:
    """Lookback windows with one label per row: X is rows x lookback x F
    for recurrent models (:func:`to_sequences`), or rows x (lookback*F)
    with lagged feature names for tree models (:func:`to_windowed`)."""

    feature_names: list[str]
    X: np.ndarray
    y: np.ndarray
    row_timestamps: np.ndarray

    def take(self, rows) -> "SequenceDataset":
        """The rows selected by ``rows`` (a slice, mask or index array)."""
        return replace(self, X=self.X[rows], y=self.y[rows],
                       row_timestamps=self.row_timestamps[rows])


class SplitSpec(NamedTuple):
    """The three consecutive row ranges, train/validation/test, of the frame
    a spec was built for: ``test.stop`` is that frame's row count."""

    train: slice
    validation: slice
    test: slice


def split_sizes(n: int, fractions: tuple[float, float, float]
                ) -> tuple[int, int, int]:
    """The train, validation and test row counts that
    :func:`split_spec_from_fractions` gives ``n`` rows."""
    if n < 3:
        raise InsufficientDataError("need at least 3 rows to split")
    total = sum(fractions)
    if total <= 0 or any(f <= 0 for f in fractions):
        raise ParameterError("fractions must be positive")
    n_train = max(1, int(round(n * fractions[0] / total)))
    n_val = max(1, int(round(n * fractions[1] / total)))
    n_train = min(n_train, n - 2)
    n_val = min(n_val, n - n_train - 1)
    return n_train, n_val, n - n_train - n_val


def split_spec_from_fractions(
    index: np.ndarray, fractions: tuple[float, float, float]
) -> SplitSpec:
    """Split the rows of ``index`` (only its length is read) by the row
    counts of :func:`split_sizes`."""
    n_train, n_val, _ = split_sizes(len(index), fractions)
    t1, t2 = n_train, n_train + n_val
    return SplitSpec(slice(0, t1), slice(t1, t2), slice(t2, len(index)))


def load_ohlc_csv(path) -> tuple[CandleSeries, dict[str, int]]:
    """Load a ``datetime,open,high,low,close`` CSV.

    Malformed rows (non-finite, non-positive, or invariant-violating prices)
    are dropped and counted, never fatal. Non-monotone timestamps among the
    kept rows raise :class:`OrderingError` naming the offending row; a bad
    header, field count or datetime raises :class:`SchemaError`.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("file is empty (no header)") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise SchemaError(
                f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
            )
        # one stamp, line number and four prices per parsed row; the numbers
        # go to flat buffers, since a list per row costs memory
        stamps, lines, prices = [], array("q"), array("d")
        dropped: dict[str, int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise SchemaError(f"row {lineno}: expected 5 fields, got {len(row)}")
            try:
                stamp = parse_rfc3339(row[0])
            except ValueError as exc:
                raise SchemaError(f"row {lineno}: bad datetime {row[0]!r}") from exc
            try:
                prices.extend([float(v) for v in row[1:5]])
            except ValueError:
                dropped["unparseable_price"] = dropped.get("unparseable_price", 0) + 1
                continue
            stamps.append(stamp)
            lines.append(lineno)
    ohlc = np.array(prices).reshape(-1, 4)
    o, h, l, c = ohlc.T
    valid = ((np.isfinite(ohlc) & (ohlc > 0)).all(axis=1)
             & (l <= np.minimum(o, c)) & (h >= np.maximum(o, c)))
    if not valid.all():
        dropped["invalid_candle"] = int(np.count_nonzero(~valid))
    stamps = np.array(stamps, dtype=STAMP_DTYPE)[valid]
    i = _first_not_later(stamps)
    if i is not None:
        line = np.array(lines)[valid][i]
        raise OrderingError(f"row {line}: timestamp {stamps[i]} not after "
                            "previous bar")
    return CandleSeries(timestamps=stamps, open=o[valid], high=h[valid],
                        low=l[valid], close=c[valid]), dropped


def generate_synthetic_ohlc(
    n: int,
    seed: int,
    volatility: float = 0.001,
    start_price: float = 1.0,
    timeframe: np.timedelta64 = np.timedelta64(15, "m"),
) -> CandleSeries:
    """Seeded geometric random-walk OHLC bars, one every ``timeframe`` from
    2014-06-01 UTC."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not (volatility > 0):
        raise ParameterError("volatility must be > 0")
    rng = np.random.default_rng(seed)
    log_returns = rng.normal(0.0, volatility, size=n)
    closes = start_price * np.exp(np.cumsum(log_returns))
    opens = np.empty(n)
    opens[0] = start_price
    opens[1:] = closes[:-1]
    body_hi = np.maximum(opens, closes)
    body_lo = np.minimum(opens, closes)
    wick_up = np.abs(rng.normal(0.0, volatility, size=n)) * body_hi
    wick_dn = np.abs(rng.normal(0.0, volatility, size=n)) * body_lo
    highs = body_hi + wick_up
    lows = np.maximum(body_lo - wick_dn, body_lo * 0.5)
    return CandleSeries(
        timestamps=_SYNTHETIC_START + np.arange(n) * timeframe,
        open=opens,
        high=highs,
        low=lows,
        close=closes,
    )


def compute_highest_high(series: CandleSeries, horizon: int = 5) -> np.ndarray:
    """Label at t = max of the highs at t+1 .. t+horizon.

    The last ``horizon`` entries are NaN (their future window is incomplete).
    """
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    n = len(series)
    if n <= horizon:
        raise InsufficientDataError(
            f"series length {n} must exceed horizon {horizon}"
        )
    future = np.lib.stride_tricks.sliding_window_view(series.high[1:], horizon)
    label = np.full(n, np.nan)
    label[: n - horizon] = future.max(axis=1)
    return label


def clean(frame: FeatureFrame) -> tuple[FeatureFrame, dict[str, int]]:
    """Drop every row containing any undefined (NaN) cell.

    Returns the cleaned frame and a per-column count of removed rows in which
    that column was undefined (a row may be counted under several columns).
    """
    if len(frame) == 0:
        raise EmptyFrameError("frame has no rows")
    bad = np.zeros(len(frame), dtype=bool)
    nan_masks = {}
    for name, values in frame.columns.items():
        mask = ~np.isfinite(values)
        nan_masks[name] = mask
        bad |= mask
    keep = ~bad
    if not keep.any():
        raise EmptyFrameError("cleaning removed every row")
    report = {
        name: int(mask.sum()) for name, mask in nan_masks.items() if mask.any()
    }
    return frame.take(keep), report


def split_by_dates(
    frame: FeatureFrame, spec: SplitSpec
) -> tuple[FeatureFrame, FeatureFrame, FeatureFrame]:
    """The train, validation and test rows of ``frame``: views of its
    columns, which no code writes to."""
    if len(frame) != spec.test.stop:
        raise SplitError(f"the split is for {spec.test.stop} rows, "
                         f"the frame has {len(frame)}")
    return tuple(frame.take(rows) for rows in spec)


def lagged_name(base: str, lag: int) -> str:
    return f"{base}(t)" if lag == 0 else f"{base}(t-{lag})"


def _check_windowable(frame: FeatureFrame, lookback: int) -> None:
    if lookback < 1:
        raise ParameterError("lookback must be >= 1")
    if frame.label_name is None:
        raise ParameterError("frame must carry a label column")
    for name, values in frame.columns.items():
        if not np.isfinite(values).all():
            raise ParameterError(
                f"frame must be cleaned before windowing (column {name!r} "
                "has undefined cells)"
            )
    if len(frame) < lookback:
        raise InsufficientDataError(
            f"{len(frame)} rows < lookback {lookback}"
        )


def to_sequences(frame: FeatureFrame, lookback: int) -> SequenceDataset:
    """Sliding windows shaped rows x lookback x F, time axis oldest to newest."""
    _check_windowable(frame, lookback)
    names = frame.feature_names
    data = frame.matrix(names)  # N x F
    windows = np.lib.stride_tricks.sliding_window_view(data, lookback, axis=0)
    X = np.ascontiguousarray(np.swapaxes(windows, 1, 2))  # rows x lookback x F
    y = frame.label[lookback - 1:]
    return SequenceDataset(
        feature_names=list(names),
        X=X,
        y=np.asarray(y, dtype=float).copy(),
        row_timestamps=frame.index[lookback - 1:],
    )


def to_windowed(windows: SequenceDataset) -> SequenceDataset:
    """:func:`to_sequences` windows flattened for tree models, as a view
    shaped rows x (lookback*F). Column order is oldest lag first, grouped
    by lag: ``close(t-4), high(t-4), ..., close(t), high(t)``.
    """
    rows, lookback, n_features = windows.X.shape
    names = [
        lagged_name(base, lookback - 1 - step)
        for step in range(lookback)
        for base in windows.feature_names
    ]
    return replace(windows, feature_names=names,
                   X=windows.X.reshape(rows, lookback * n_features))
