"""ARMA fitting with AIC order selection and causal rolling forecast columns.

Estimation is by least squares. An AR model (plus intercept) is an ordinary
regression on lagged values. A model with MA terms is fit by Hannan-Rissanen
(Biometrika, 1982): a long autoregression estimates the innovations, then one
regression on lagged values and lagged innovations gives the coefficients.
The residuals are the recursive (conditional) ones with pre-sample residuals
taken as zero; order selection scores each fit by the Gaussian conditional
likelihood implied by their variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFitError,
    InsufficientDataError,
    ParameterError,
    SearchError,
)

_VARIANCE_FLOOR = 1e-300  # keeps the log-likelihood finite on exact fits


@dataclass(frozen=True)
class ArmaModel:
    """Fitted ARMA(p, q) on the d-times differenced series."""

    p: int
    d: int
    q: int
    ar_coeffs: np.ndarray
    ma_coeffs: np.ndarray
    intercept: float
    residual_variance: float
    residuals: np.ndarray  # recursive residuals of w[p:], as _css_residuals


@dataclass(frozen=True)
class OrderSearchResult:
    """All grid AICs plus the selected (p, d, q).

    Ties on AIC break toward the smallest p+q, then the smallest p.
    """

    grid: list[tuple[int, int, int, float]]
    selected: tuple[int, int, int]


def _solve_lstsq(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    # rcond=None: rank cut-off S.max() * max(M, N) * eps, as in matrix_rank
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateFitError("singular design matrix")
    return coef


def _add_ma_terms(
    pred: np.ndarray, w: np.ndarray, ma: np.ndarray, lags: list
) -> list:
    """Turn the AR part ``pred`` into one-step forecasts of ``w`` in place,
    ``pred[k] + ma[0]*e[k-1] + ...`` summed left to right over the q MA
    terms, where ``e[k] = w[k] - forecast[k]``.

    ``lags`` holds the q residuals before the first row, latest first; the
    q latest residuals after the last row are returned. The recursion is
    serial, so it runs on Python floats. q = 1 and q = 2, the orders of the
    default grid, get their own loops: the general loop adds in the same
    order but costs about four times as much per row, and alone it cut the
    ``features-csv-6k`` benchmark from about 13,200 to 7,900 bars/s.
    """
    ma = ma.tolist()
    out: list = []
    append = out.append
    rows = zip(pred.tolist(), w.tolist())
    if len(ma) == 1:
        (m1,), (e1,) = ma, lags
        for b, wk in rows:
            f = b + m1 * e1
            append(f)
            e1 = wk - f
        lags = [e1]
    elif len(ma) == 2:
        (m1, m2), (e1, e2) = ma, lags
        for b, wk in rows:
            f = (b + m1 * e1) + m2 * e2
            append(f)
            e1, e2 = wk - f, e1
        lags = [e1, e2]
    else:
        lags = list(lags)
        for b, wk in rows:
            f = b
            for m, e in zip(ma, lags):
                f += m * e
            append(f)
            lags.insert(0, wk - f)
            lags.pop()
    pred[:] = out
    return lags


def _css_residuals(
    w: np.ndarray, intercept: float, ar: np.ndarray, ma: np.ndarray
) -> np.ndarray:
    """Recursive residuals with pre-sample residuals taken as zero.

    The AR part of every row is summed lag by lag and the intercept added
    last, the order the per-bar recursion used, so results are bit-identical
    to it (``tests/oracles.py::css_residuals_oracle``).
    """
    p, q = len(ar), len(ma)
    n = len(w)
    pred = np.zeros(n - p)
    for i in range(1, p + 1):
        pred += ar[i - 1] * w[p - i:n - i]
    pred += intercept
    if q:
        _add_ma_terms(pred, w[p:], ma, [0.0] * q)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = w[p:] - pred
    if not np.isfinite(resid).all():
        raise DegenerateFitError("residual recursion diverged (non-invertible MA)")
    return resid


def _regress_on_lags(
    w: np.ndarray, start: int, lagged: list[tuple[np.ndarray, int]]
) -> np.ndarray:
    """Least-squares coefficients of ``w[t]`` on an intercept and, for each
    ``(x, k)`` in ``lagged``, on ``x[t-1], ..., x[t-k]``, over the rows
    ``t >= start``: intercept first."""
    n = len(w)
    columns = [np.ones(n - start)]
    for x, k in lagged:
        columns += [x[start - i:n - i] for i in range(1, k + 1)]
    # stacked column by column (Fortran order): each column is one
    # contiguous copy, and lstsq takes the same values in any layout
    return _solve_lstsq(np.array(columns).T, w[start:])


def fit_arma(series: np.ndarray, p: int, d: int, q: int) -> ArmaModel:
    """Fit ARMA(p, q) to the d-times differenced series."""
    x = np.asarray(series, dtype=float)
    w = np.diff(x, n=d) if d > 0 else x
    n = len(w)
    if n < 10 * (p + q + 1):
        raise InsufficientDataError(
            f"{n} points after differencing; need >= {10 * (p + q + 1)} "
            f"for ARMA({p},{q})"
        )
    if q == 0:
        coef = _regress_on_lags(w, p, [(w, p)])
    else:
        # Hannan-Rissanen: a long AR stands in for the innovations, then
        # one regression on lagged values and lagged innovations
        m = min(max(2 * (p + q), 20), (n - p - q) // 4)
        long_ar = _regress_on_lags(w, m, [(w, m)])
        innovations = np.zeros(n)
        innovations[m:] = _css_residuals(
            w, float(long_ar[0]), long_ar[1:], np.zeros(0))
        coef = _regress_on_lags(
            w, max(m + q, p), [(w, p), (innovations, q)])
    intercept, ar, ma = float(coef[0]), coef[1:1 + p], coef[1 + p:]
    resid = _css_residuals(w, intercept, ar, ma)
    return ArmaModel(
        p=p,
        d=d,
        q=q,
        ar_coeffs=np.asarray(ar, dtype=float),
        ma_coeffs=np.asarray(ma, dtype=float),
        intercept=intercept,
        residual_variance=float(np.mean(resid**2)),
        residuals=resid,
    )


def select_order(
    series: np.ndarray,
    p_max: int = 5,
    d_set: tuple[int, ...] = (0, 1),
    q_max: int = 2,
) -> OrderSearchResult:
    """Fit every (p, d, q) on the grid and pick the AIC minimizer.

    Likelihoods are compared on a common conditioning sample (the last
    ``n - p_max`` residuals for each d), so candidates with different AR
    orders are scored on the same observations.
    """
    grid: list[tuple[int, int, int, float]] = []
    for d in d_set:
        for p in range(p_max + 1):
            for q in range(q_max + 1):
                try:
                    resid = fit_arma(series, p, d, q).residuals
                except (DegenerateFitError, InsufficientDataError):
                    continue
                tail = resid[p_max - p:] if p_max > p else resid
                sigma2 = max(float(np.mean(tail**2)), _VARIANCE_FLOOR)
                log_lik = -0.5 * len(tail) * (np.log(2.0 * np.pi * sigma2) + 1.0)
                grid.append((p, d, q, -2.0 * log_lik + 2.0 * (p + q + 1)))
    if not grid:
        raise SearchError("every grid cell failed to fit")
    selected = min(grid, key=lambda cell: (cell[3], cell[0] + cell[2], cell[0]))
    return OrderSearchResult(grid=grid, selected=selected[:3])


def rolling_forecast_feature(
    series: np.ndarray,
    order: tuple[int, int, int],
    fit_len: int,
    refit_every: int = 500,
) -> tuple[np.ndarray, int]:
    """Causal one-step-ahead forecast column and its count of failed refits.

    value(t) is the forecast of series[t] computed from series[:t] only.
    Coefficients are first fit on the leading ``fit_len`` points and refit
    every ``refit_every`` steps on the expanding history. Entries before
    ``fit_len`` are NaN. A refit that raises ``DegenerateFitError`` keeps the
    previous coefficients and residuals and is counted; a failed first fit
    raises.
    """
    p, d, q = order
    if d not in (0, 1):
        raise ParameterError(f"rolling forecast supports d in (0, 1), got {d}")
    x = np.asarray(series, dtype=float)
    n = len(x)
    w = np.diff(x) if d else x
    out = np.full(n, np.nan)
    model: ArmaModel | None = None
    lags: list = []  # the q latest residuals, latest first
    fallbacks = 0
    for t0 in range(fit_len, n, refit_every):
        t1 = min(t0 + refit_every, n)
        # w[m] is series[m + d] on the differenced scale: forecast w[m0:m1]
        m0, m1 = t0 - d, t1 - d
        try:
            fitted = fit_arma(x[:t0], p, d, q)
        except DegenerateFitError:
            if model is None:
                raise
            fallbacks += 1
        else:
            # the fit's residuals are those of w[:m0], since w is diff(x)
            model = fitted
            lags = [float(model.residuals[m0 - p - j]) if m0 - j >= p
                    else 0.0 for j in range(1, q + 1)]
        # AR part with the intercept first, the order of the per-bar forecast
        pred = np.full(m1 - m0, model.intercept)
        for i in range(1, p + 1):
            pred += model.ar_coeffs[i - 1] * w[m0 - i:m1 - i]
        if q:
            lags = _add_ma_terms(pred, w[m0:m1], model.ma_coeffs, lags)
        out[t0:t1] = pred + x[t0 - 1:t1 - 1] if d else pred
    return out, fallbacks
