"""ARMA fitting with AIC order selection and causal rolling forecast columns.

Estimation is by conditional least squares: the AR part (plus intercept) is
an ordinary regression on lagged values; MA terms are added by iterating a
regression on lagged residuals (conditional sum of squares). The likelihood
is the Gaussian conditional likelihood implied by the residual variance.
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
_CSS_MAX_ITER = 50
_CSS_TOL = 1e-8


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
    n_fit: int
    log_likelihood: float


@dataclass(frozen=True)
class OrderSearchResult:
    """All grid AICs plus the selected (p, d, q).

    Ties on AIC break toward the smallest p+q, then the smallest p.
    """

    grid: list[tuple[int, int, int, float]]
    selected: tuple[int, int, int]


def _solve_lstsq(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise DegenerateFitError("singular design matrix")
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
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
    # AR + intercept by ordinary least squares on lagged values
    rows = n - p
    design = np.ones((rows, 1 + p))
    for i in range(1, p + 1):
        design[:, i] = w[p - i:n - i]
    target = w[p:]
    coef = _solve_lstsq(design, target)
    intercept, ar = float(coef[0]), coef[1:]
    ma = np.zeros(q)
    if q > 0:
        # iterated CSS: regress on lagged values and lagged recursive residuals
        prev = np.concatenate(([intercept], ar, ma))
        for _ in range(_CSS_MAX_ITER):
            resid_full = np.zeros(n)
            resid_full[p:] = _css_residuals(w, intercept, ar, ma)
            design_q = np.ones((rows, 1 + p + q))
            for i in range(1, p + 1):
                design_q[:, i] = w[p - i:n - i]
            for j in range(1, q + 1):
                lagged = np.zeros(rows)
                lagged[j:] = resid_full[p:n - j]
                design_q[:, p + j] = lagged
            coef = _solve_lstsq(design_q, target)
            intercept, ar, ma = float(coef[0]), coef[1:1 + p], coef[1 + p:]
            if np.max(np.abs(coef - prev)) < _CSS_TOL:
                break
            prev = coef
        else:
            raise DegenerateFitError(
                f"MA estimation did not converge in {_CSS_MAX_ITER} iterations"
            )
    resid = _css_residuals(w, intercept, ar, ma)
    sigma2 = float(np.mean(resid**2))
    n_eff = len(resid)
    log_lik = -0.5 * n_eff * (
        np.log(2.0 * np.pi * max(sigma2, _VARIANCE_FLOOR)) + 1.0
    )
    return ArmaModel(
        p=p,
        d=d,
        q=q,
        ar_coeffs=np.asarray(ar, dtype=float),
        ma_coeffs=np.asarray(ma, dtype=float),
        intercept=intercept,
        residual_variance=sigma2,
        n_fit=n_eff,
        log_likelihood=float(log_lik),
    )


def aic(model: ArmaModel, k: int = 1) -> float:
    """Akaike information criterion: -2 log L + 2 (p + q + k), k counting the
    intercept."""
    return -2.0 * model.log_likelihood + 2.0 * (model.p + model.q + k)


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
    x = np.asarray(series, dtype=float)
    for d in d_set:
        w = np.diff(x, n=d) if d > 0 else x
        for p in range(p_max + 1):
            for q in range(q_max + 1):
                try:
                    model = fit_arma(series, p, d, q)
                    resid = _css_residuals(
                        w, model.intercept, model.ar_coeffs, model.ma_coeffs
                    )
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
            resid = _css_residuals(
                w[:m0], fitted.intercept, fitted.ar_coeffs, fitted.ma_coeffs)
        except DegenerateFitError:
            if model is None:
                raise
            fallbacks += 1
        else:
            model = fitted
            lags = [float(resid[m0 - p - j]) if m0 - j >= p else 0.0
                    for j in range(1, q + 1)]
        # AR part with the intercept first, the order of the per-bar forecast
        pred = np.full(m1 - m0, model.intercept)
        for i in range(1, p + 1):
            pred += model.ar_coeffs[i - 1] * w[m0 - i:m1 - i]
        if q:
            lags = _add_ma_terms(pred, w[m0:m1], model.ma_coeffs, lags)
        out[t0:t1] = pred + x[t0 - 1:t1 - 1] if d else pred
    return out, fallbacks
