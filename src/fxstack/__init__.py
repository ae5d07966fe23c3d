"""fxstack: highest-high price forecasting toolkit.

Pipeline: OHLC ingestion -> indicator and rolling-ARMA features -> causal
windowing -> importance-recap feature selection -> five base learners ->
exhaustive two-layer stacking search. The ranges are not purged: the last
``horizon`` labels of each fitting range read the next range's bars.
"""

__version__ = "0.1.0"
