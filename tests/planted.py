"""Synthetic data where a few named feature columns drive future highs: the
fixture of the recap selection tests. A correct selector should rank the
informative columns above the pure-noise ones."""

import dataclasses

import numpy as np

from fxstack.market_data import (
    CandleSeries,
    FeatureFrame,
    compute_highest_high,
    generate_synthetic_ohlc,
)


@dataclasses.dataclass(frozen=True)
class PlantedData:
    series: CandleSeries
    frame: FeatureFrame
    informative: list[str]


def generate_planted_frame(n, n_features, n_informative, seed, horizon=5,
                           volatility=0.0005, signal_strength=0.02):
    """Synthetic OHLC plus ``n_features`` extra columns, ``n_informative`` of
    which linearly lift the next bar's high (and hence the highest-high
    label)."""
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
    series = generate_synthetic_ohlc(n, seed=seed + 1, volatility=volatility)
    series = dataclasses.replace(series,
                                 high=series.high + np.maximum(boost, 0.0))
    columns = {"open": series.open, "high": series.high, "low": series.low,
               "close": series.close}
    columns.update({name: signals[name] for name in names})
    frame = FeatureFrame(index=series.timestamps, columns=columns)
    frame = frame.with_label("highest_high",
                             compute_highest_high(series, horizon))
    return PlantedData(series=series, frame=frame,
                       informative=[names[i] for i in informative])
