"""OHLC candle ingestion, labeling, cleaning, splitting, and windowing.

All containers are immutable after construction and all operations are pure.
Undefined cells (indicator warmup, tail label rows) are carried as NaN and
must be removed with :func:`clean` before windowing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone

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


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_rfc3339(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class Candle:
    """One OHLC bar. low <= min(open, close) and high >= max(open, close)."""

    timestamp: datetime
    open: float
    high: float
    low: float
    close: float

    def is_valid(self) -> bool:
        prices = (self.open, self.high, self.low, self.close)
        if not all(math.isfinite(p) and p > 0 for p in prices):
            return False
        return self.low <= min(self.open, self.close) and self.high >= max(
            self.open, self.close
        )


@dataclass(frozen=True)
class CandleSeries:
    """Time-ordered OHLC bars with strictly increasing timestamps.

    Columns are stored as parallel numpy arrays; ``timestamps`` holds aware
    UTC datetimes (dtype=object). Gaps are permitted, duplicates are not.
    """

    timestamps: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    timeframe: timedelta = timedelta(minutes=15)

    def __post_init__(self) -> None:
        n = len(self.timestamps)
        for name in OHLC_COLUMNS:
            if len(getattr(self, name)) != n:
                raise ParameterError(f"column {name!r} length mismatch")
        for i in range(1, n):
            if self.timestamps[i] <= self.timestamps[i - 1]:
                raise OrderingError(
                    f"timestamps not strictly increasing at row {i}: "
                    f"{self.timestamps[i]!r}"
                )

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

    index: np.ndarray  # aware UTC datetimes, dtype=object
    columns: dict[str, np.ndarray]
    label_name: str | None = None

    def __post_init__(self) -> None:
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

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

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

    def take(self, mask: np.ndarray) -> "FeatureFrame":
        cols = {n: v[mask] for n, v in self.columns.items()}
        return FeatureFrame(index=self.index[mask], columns=cols,
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
                cells = [[format_rfc3339(t) for t in self.index[rows]]]
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


@dataclass(frozen=True)
class SplitSpec:
    """Half-open [start, end) timestamp ranges for train/validation/test."""

    train: tuple[datetime, datetime]
    validation: tuple[datetime, datetime]
    test: tuple[datetime, datetime]

    def __post_init__(self) -> None:
        for name, (start, end) in self.ranges().items():
            if start >= end:
                raise SplitError(f"{name} range is empty or inverted")
        if not (self.train[1] <= self.validation[0] <= self.validation[1]
                <= self.test[0]):
            raise SplitError("ranges must be disjoint and ordered "
                             "train < validation < test")

    def ranges(self) -> dict[str, tuple[datetime, datetime]]:
        return {"train": self.train, "validation": self.validation,
                "test": self.test}


def split_spec_from_fractions(
    index: np.ndarray, fractions: tuple[float, float, float]
) -> SplitSpec:
    """Build a SplitSpec covering ``index`` with the given row fractions."""
    if len(index) < 3:
        raise InsufficientDataError("need at least 3 rows to split")
    total = sum(fractions)
    if total <= 0 or any(f <= 0 for f in fractions):
        raise ParameterError("fractions must be positive")
    n = len(index)
    n_train = max(1, int(round(n * fractions[0] / total)))
    n_val = max(1, int(round(n * fractions[1] / total)))
    n_train = min(n_train, n - 2)
    n_val = min(n_val, n - n_train - 1)
    eps = timedelta(seconds=1)
    start = index[0]
    t1 = index[n_train]
    t2 = index[n_train + n_val]
    end = index[-1] + eps
    return SplitSpec(train=(start, t1), validation=(t1, t2), test=(t2, end))


def load_ohlc_csv(path) -> tuple[CandleSeries, dict[str, int]]:
    """Load a ``datetime,open,high,low,close`` CSV.

    Malformed rows (non-finite, non-positive, or invariant-violating prices)
    are dropped and counted, never fatal. Non-monotone timestamps raise
    :class:`OrderingError` naming the offending row.
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
        timestamps: list[datetime] = []
        cols: dict[str, list[float]] = {c: [] for c in OHLC_COLUMNS}
        dropped: dict[str, int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise SchemaError(f"row {lineno}: expected 5 fields, got {len(row)}")
            try:
                ts = parse_rfc3339(row[0])
            except ValueError as exc:
                raise SchemaError(f"row {lineno}: bad datetime {row[0]!r}") from exc
            try:
                o, h, l, c = (float(v) for v in row[1:5])
            except ValueError:
                dropped["unparseable_price"] = dropped.get("unparseable_price", 0) + 1
                continue
            candle = Candle(ts, o, h, l, c)
            if not candle.is_valid():
                dropped["invalid_candle"] = dropped.get("invalid_candle", 0) + 1
                continue
            if timestamps and ts <= timestamps[-1]:
                raise OrderingError(
                    f"row {lineno}: timestamp {row[0]} not after previous bar"
                )
            timestamps.append(ts)
            for name, value in zip(OHLC_COLUMNS, (o, h, l, c)):
                cols[name].append(value)
    series = CandleSeries(
        timestamps=np.array(timestamps, dtype=object),
        open=np.array(cols["open"], dtype=float),
        high=np.array(cols["high"], dtype=float),
        low=np.array(cols["low"], dtype=float),
        close=np.array(cols["close"], dtype=float),
    )
    return series, dropped


def generate_synthetic_ohlc(
    n: int,
    seed: int,
    volatility: float = 0.001,
    start_price: float = 1.0,
    start: datetime | None = None,
    timeframe: timedelta = timedelta(minutes=15),
    high_boost: np.ndarray | None = None,
) -> CandleSeries:
    """Seeded geometric random-walk OHLC bars.

    ``high_boost``, when given, is an additive per-bar lift applied to the
    high price; it is the planted-signal hook used by acceptance tests to
    make future highs depend on a known driver.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not (volatility > 0):
        raise ParameterError("volatility must be > 0")
    if start is None:
        start = datetime(2014, 6, 1, tzinfo=timezone.utc)
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
    if high_boost is not None:
        if len(high_boost) != n:
            raise ParameterError("high_boost length must equal n")
        highs = highs + np.maximum(high_boost, 0.0)
    timestamps = np.array([start + i * timeframe for i in range(n)], dtype=object)
    return CandleSeries(
        timestamps=timestamps,
        open=opens,
        high=highs,
        low=lows,
        close=closes,
        timeframe=timeframe,
    )


@dataclass(frozen=True)
class PlantedData:
    """Synthetic dataset where a few named feature columns drive future highs."""

    series: CandleSeries
    frame: "FeatureFrame"
    informative: list[str] = field(default_factory=list)


def generate_planted_frame(
    n: int,
    n_features: int,
    n_informative: int,
    seed: int,
    horizon: int = 5,
    volatility: float = 0.0005,
    signal_strength: float = 0.02,
) -> PlantedData:
    """Synthetic OHLC plus ``n_features`` extra columns, ``n_informative`` of
    which linearly lift the next bar's high (and hence the highest-high label).

    Used by recap/selection tests: a correct selector should rank the
    informative columns above the pure-noise ones.
    """
    if n_informative > n_features:
        raise ParameterError("n_informative must be <= n_features")
    rng = np.random.default_rng(seed)
    names = [f"f{i:02d}" for i in range(n_features)]
    informative = sorted(
        rng.choice(n_features, size=n_informative, replace=False).tolist()
    )
    signals = {}
    boost = np.zeros(n)
    for i in range(n_features):
        raw = rng.normal(0.0, 1.0, size=n)
        # mild smoothing so the columns look like indicator-style series
        smooth = np.convolve(raw, np.ones(4) / 4.0, mode="same")
        signals[names[i]] = smooth
        if i in informative:
            # feature value at t lifts the high of bar t+1
            lifted = np.zeros(n)
            lifted[1:] = np.maximum(smooth[:-1], 0.0)
            boost = boost + signal_strength * lifted / max(n_informative, 1)
    series = generate_synthetic_ohlc(
        n, seed=seed + 1, volatility=volatility, high_boost=boost
    )
    columns: dict[str, np.ndarray] = {
        "open": series.open,
        "high": series.high,
        "low": series.low,
        "close": series.close,
    }
    columns.update({name: signals[name] for name in names})
    frame = FeatureFrame(index=series.timestamps, columns=columns)
    label = compute_highest_high(series, horizon)
    frame = frame.with_label("highest_high", label)
    return PlantedData(
        series=series, frame=frame, informative=[names[i] for i in informative]
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


def in_range(index: np.ndarray, start: datetime, end: datetime) -> np.ndarray:
    """Mask of the timestamps in ``index`` inside the half-open [start, end)."""
    return np.fromiter((start <= t < end for t in index), dtype=bool,
                       count=len(index))


def split_by_dates(
    frame: FeatureFrame, spec: SplitSpec
) -> tuple[FeatureFrame, FeatureFrame, FeatureFrame]:
    """Partition rows into train/validation/test by half-open timestamp ranges."""
    if len(frame) == 0:
        raise EmptyFrameError("cannot split an empty frame")
    out = []
    for name, (start, end) in spec.ranges().items():
        mask = in_range(frame.index, start, end)
        if not mask.any():
            raise SplitError(
                f"{name} split [{format_rfc3339(start)}, {format_rfc3339(end)}) "
                "contains no rows"
            )
        out.append(frame.take(mask))
    return out[0], out[1], out[2]


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


def to_windowed(frame: FeatureFrame, lookback: int) -> SequenceDataset:
    """Flattened sliding windows for tree models.

    Column order is oldest lag first, grouped by lag:
    ``close(t-4), high(t-4), ..., close(t), high(t)``.
    """
    seq = to_sequences(frame, lookback)
    rows = seq.X.shape[0]
    X = seq.X.reshape(rows, lookback * len(seq.feature_names))
    names = [
        lagged_name(base, lookback - 1 - step)
        for step in range(lookback)
        for base in seq.feature_names
    ]
    return replace(seq, feature_names=names, X=X)
