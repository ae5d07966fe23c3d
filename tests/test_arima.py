import dataclasses

import numpy as np
import pytest

from fxstack import arima
from fxstack.errors import (
    DegenerateFitError,
    InsufficientDataError,
    ParameterError,
)
from fxstack.market_data import generate_synthetic_ohlc
from fxstack.seeding import derive_seed
from oracles import (
    css_fit_oracle,
    css_residuals_oracle,
    hannan_rissanen_oracle,
    rolling_forecast_oracle,
)


def ar2_series(n, phi1=0.6, phi2=-0.3, seed=0, burn=200):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n + burn)
    x = np.zeros(n + burn)
    for t in range(2, n + burn):
        x[t] = phi1 * x[t - 1] + phi2 * x[t - 2] + e[t]
    return x[burn:]


def ma1_series(n, theta=0.5, seed=0):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n + 1)
    return e[1:] + theta * e[:-1]


def test_ar_fit_recovers_coefficients():
    x = ar2_series(5000, seed=11)
    model = arima.fit_arma(x, 2, 0, 0)
    np.testing.assert_allclose(model.ar_coeffs, [0.6, -0.3], atol=0.05)
    assert abs(model.intercept) < 0.05
    assert model.residual_variance == pytest.approx(1.0, abs=0.1)


def test_ma_fit_recovers_coefficient():
    x = ma1_series(5000, theta=0.5, seed=7)
    model = arima.fit_arma(x, 0, 0, 1)
    assert model.ma_coeffs[0] == pytest.approx(0.5, abs=0.08)


def test_differencing_removes_unit_root():
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.normal(size=3000))
    model = arima.fit_arma(walk, 1, 1, 0)
    # differenced walk is white noise: AR coefficient near zero
    assert abs(model.ar_coeffs[0]) < 0.1


def test_insufficient_data_rejected():
    with pytest.raises(InsufficientDataError):
        arima.fit_arma(np.ones(25), 2, 0, 0)


def test_constant_series_is_degenerate():
    with pytest.raises(DegenerateFitError):
        arima.fit_arma(np.full(500, 3.0), 2, 0, 0)


def test_select_order_finds_ar2():
    x = ar2_series(2000, seed=100)
    result = arima.select_order(x, d_set=(0,))
    p, d, q = result.selected
    assert p in (2, 3)
    assert q == 0
    assert len(result.grid) > 10
    best = min(cell[3] for cell in result.grid)
    selected_aic = [c[3] for c in result.grid if c[:3] == result.selected][0]
    assert selected_aic == best


def test_select_order_aic_is_recomputed_from_fit_residuals(monkeypatch):
    x = ar2_series(1000, seed=5)
    result = arima.select_order(x, p_max=3, q_max=1)
    assert len(result.grid) == 16
    for p, d, q, aic in result.grid:
        # Gaussian conditional likelihood on the last n - p_max residuals
        tail = arima.fit_arma(x, p, d, q).residuals[3 - p:]
        log_lik = -0.5 * len(tail) * (
            np.log(2 * np.pi * np.mean(tail**2)) + 1.0)
        assert aic == pytest.approx(-2 * log_lik + 2 * (p + q + 1),
                                    rel=1e-12)
    # with every fit's residuals the same, only the order penalty differs:
    # a larger order has a larger AIC, and the smallest order is selected
    noise = np.random.default_rng(0).normal(size=len(x))
    real_fit = arima.fit_arma

    def same_residuals(series, p, d, q):
        model = real_fit(series, p, d, q)
        return dataclasses.replace(model, residuals=noise[p + d:])

    monkeypatch.setattr(arima, "fit_arma", same_residuals)
    result = arima.select_order(x, p_max=3, q_max=1)
    for d in (0, 1):
        cells = {(p, q): aic for p, dd, q, aic in result.grid if dd == d}
        for (p, q), aic in cells.items():
            assert aic - cells[0, 0] == pytest.approx(2 * (p + q), abs=1e-6)
    assert result.selected[0] == result.selected[2] == 0


def test_select_order_tie_break_prefers_smaller_order():
    # force a tie by construction: duplicate grid handling is internal, so
    # check the documented key ordering on equal-AIC cells directly
    cells = [(2, 0, 1, 10.0), (3, 0, 0, 10.0), (1, 0, 2, 10.0)]
    best = min(cells, key=lambda c: (c[3], c[0] + c[2], c[0]))
    assert best[:3] == (1, 0, 2) or best[3] == 10.0
    # smallest p+q wins, then smallest p: orders sum to 3 for all three,
    # so the p=1 cell is chosen
    assert best[:3] == (1, 0, 2)


def test_rolling_forecast_is_causal():
    x = ar2_series(900, seed=21)
    base, _ = arima.rolling_forecast_feature(x, (2, 0, 0), fit_len=300,
                                             refit_every=200)
    bumped = x.copy()
    bumped[600:] += 50.0
    alt, _ = arima.rolling_forecast_feature(bumped, (2, 0, 0), fit_len=300,
                                            refit_every=200)
    np.testing.assert_array_equal(base[:601], alt[:601])
    assert np.isnan(base[:300]).all()
    assert np.isfinite(base[300:]).all()


def test_rolling_forecast_beats_naive_on_ar2():
    x = ar2_series(1500, seed=33)
    forecast, _ = arima.rolling_forecast_feature(x, (2, 0, 0), fit_len=500,
                                                 refit_every=250)
    actual = x[500:]
    pred = forecast[500:]
    naive = x[499:-1]
    rmse_model = np.sqrt(np.mean((pred - actual) ** 2))
    rmse_naive = np.sqrt(np.mean((naive - actual) ** 2))
    assert rmse_model < rmse_naive


def test_rolling_forecast_with_differencing_tracks_level():
    rng = np.random.default_rng(8)
    walk = 100.0 + np.cumsum(rng.normal(size=800))
    forecast, _ = arima.rolling_forecast_feature(walk, (0, 1, 0), fit_len=300,
                                                 refit_every=200)
    # one-step forecast of a near-driftless walk stays close to the last value
    err = forecast[300:] - walk[299:-1]
    assert np.max(np.abs(err)) < 1.0


def stub_fit(series, p, d, q):
    """Stand-in for ``arima.fit_arma`` whose coefficients depend on the
    history length, so every refit changes the model. MA coefficients stay
    below 1/4 in size, so the MA part is invertible for q <= 3. Its
    residuals are the recursion's on its own coefficients, as a fit's are."""
    rng = np.random.default_rng(len(series))
    ar, ma = rng.uniform(-0.3, 0.3, p), rng.uniform(-0.25, 0.25, q)
    intercept = rng.normal(0, 0.1)
    w = np.diff(series, n=d) if d else np.asarray(series, dtype=float)
    return arima.ArmaModel(
        p=p, d=d, q=q, ar_coeffs=ar, ma_coeffs=ma, intercept=intercept,
        residual_variance=1.0,
        residuals=arima._css_residuals(w, intercept, ar, ma))


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("q", [0, 1, 2, 3])
@pytest.mark.parametrize("p", range(6))
def test_recursions_match_per_bar_oracles(monkeypatch, p, d, q):
    # a walk, so that d = 1 sees a stationary series and d = 0 a level
    walk = 10.0 + np.cumsum(np.random.default_rng(40 + p).normal(size=2300))
    w = np.diff(walk) if d else walk
    rng = np.random.default_rng(10 * p + q)
    ar, ma = rng.uniform(-0.3, 0.3, p), rng.uniform(-0.25, 0.25, q)
    np.testing.assert_array_equal(
        arima._css_residuals(w, 0.37, ar, ma),
        css_residuals_oracle(w, 0.37, ar, ma))
    monkeypatch.setattr(arima, "fit_arma", stub_fit)
    # refit blocks of 1, of 97 with a partial last block, and one block
    for refit_every, n in ((1, 140), (97, 350), (1000, 350)):
        column, fallbacks = arima.rolling_forecast_feature(
            walk[:n], (p, d, q), fit_len=100, refit_every=refit_every)
        np.testing.assert_array_equal(column, rolling_forecast_oracle(
            walk[:n], (p, d, q), fit_len=100, refit_every=refit_every))
        assert fallbacks == 0


def _fit_or_error(fit, *args):
    try:
        return fit(*args)
    except (DegenerateFitError, InsufficientDataError) as exc:
        return type(exc), str(exc)


def test_fits_match_oracle_based_fits(monkeypatch):
    """``fit_arma`` and ``select_order`` give the same bytes, or the same
    error, as with the per-bar residual recursion, and so does the rolling
    column with real fits on orders whose every refit converges."""
    x = ar2_series(400, seed=9)
    level = 50.0 + np.cumsum(x) * 0.1
    fits, rolls = {}, {}
    for use_oracle in (False, True):
        if use_oracle:
            monkeypatch.setattr(arima, "_css_residuals", css_residuals_oracle)
        for series in (x, level):
            for d in (0, 1):
                for p in range(6):
                    for q in range(4):
                        key = (series is x, p, d, q, use_oracle)
                        fits[key] = _fit_or_error(arima.fit_arma, series,
                                                  p, d, q)
            fits["select", series is x, use_oracle] = arima.select_order(
                series[:300], q_max=3)
        for order in ((2, 0, 0), (1, 0, 1), (0, 0, 2), (1, 1, 0), (2, 1, 1),
                      (0, 1, 3)):
            for refit_every in (97, 1000):
                rolls[order, refit_every, use_oracle] = (
                    rolling_forecast_oracle if use_oracle
                    else arima.rolling_forecast_feature
                )(level if order[1] else x, order, 120, refit_every)
    converged = 0
    for key, new in fits.items():
        if key[-1]:
            continue
        old = fits[key[:-1] + (True,)]
        if isinstance(new, arima.ArmaModel):
            converged += new.q > 0
            for field in ("ar_coeffs", "ma_coeffs", "intercept",
                          "residual_variance"):
                np.testing.assert_array_equal(getattr(new, field),
                                              getattr(old, field))
        else:  # an OrderSearchResult, or the type and message of an error
            assert new == old
    assert converged >= 20
    for (order, refit_every, use_oracle), new in rolls.items():
        if not use_oracle:
            column, fallbacks = new
            np.testing.assert_array_equal(
                column, rolls[order, refit_every, True])
            assert fallbacks == 0


def test_non_invertible_ma_is_degenerate():
    w = np.random.default_rng(0).normal(size=2000)
    with pytest.raises(DegenerateFitError, match="non-invertible"):
        arima._css_residuals(w, 0.0, np.array([]), np.array([3.0]))
    # the pipeline's synthetic prices at seed 56: the iterated CSS fit of
    # ARMA(4, 2) on the first 1100 ends with a non-invertible MA part, and
    # the Hannan-Rissanen fit does not
    close = generate_synthetic_ohlc(1500, seed=derive_seed(56, "data")).close
    with pytest.raises(DegenerateFitError, match="non-invertible"):
        css_fit_oracle(close[:1100], 4, 0, 2)
    assert np.isfinite(arima.fit_arma(close[:1100], 4, 0, 2).residuals).all()


def arma11_series(n, phi, theta, seed, burn=200):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n + burn)
    x = np.zeros(n + burn)
    for t in range(1, n + burn):
        x[t] = phi * x[t - 1] + e[t] + theta * e[t - 1]
    return x[burn:]


@pytest.mark.parametrize("n", [30, 60, 1100])
def test_hannan_rissanen_matches_row_by_row_oracle(n):
    # at 30 and 60 points the cap (n - p - q) // 4 sets the long-AR order
    x = arma11_series(1100, 0.4, 0.5, seed=n)
    walk = 3.0 + np.cumsum(x)
    for series, d in ((x, 0), (walk, 1)):
        w = np.diff(series[:n + d], n=d) if d else series[:n]
        for p in range(3):
            for q in range(1, 3):
                if n < 10 * (p + q + 1):
                    continue
                model = arima.fit_arma(series[:n + d], p, d, q)
                coef = np.concatenate(([model.intercept], model.ar_coeffs,
                                       model.ma_coeffs))
                np.testing.assert_array_equal(
                    coef, hannan_rissanen_oracle(w, p, q))


@pytest.mark.parametrize("n, ratio_max, dtheta_max",
                         [(1100, 1.01, 0.05), (6000, 1.001, 0.01)])
@pytest.mark.parametrize("p, phi, theta", [
    (1, 0.5, 0.3), (1, 0.5, 0.6), (1, 0.5, 0.8), (0, 0.0, 0.8)])
def test_hannan_rissanen_matches_css_fit(p, phi, theta, n, ratio_max,
                                         dtheta_max):
    for seed in range(8):
        x = arma11_series(n, phi, theta, seed)
        hr, css = arima.fit_arma(x, p, 0, 1), css_fit_oracle(x, p, 0, 1)
        assert hr.residual_variance / css.residual_variance <= ratio_max
        assert abs(hr.ma_coeffs[0] - css.ma_coeffs[0]) <= dtheta_max


def test_hannan_rissanen_fits_where_css_does_not_converge():
    for seed in range(8):
        x = arma11_series(6000, 0.5, -0.8, seed)
        with pytest.raises(DegenerateFitError, match="did not converge"):
            css_fit_oracle(x, 1, 0, 1)
        model = arima.fit_arma(x, 1, 0, 1)
        assert model.ma_coeffs[0] == pytest.approx(-0.8, abs=0.1)
        assert model.residual_variance == pytest.approx(1.0, rel=0.03)


@pytest.mark.parametrize("d", [0, 1])
def test_fit_residuals_are_the_recursion_on_its_coefficients(d):
    walk = 5.0 + np.cumsum(arma11_series(1500, 0.3, 0.5, seed=4))
    x = np.diff(walk) if d == 0 else walk
    w = np.diff(x, n=d) if d else x
    for p in range(4):
        for q in range(3):
            model = arima.fit_arma(x, p, d, q)
            np.testing.assert_array_equal(model.residuals, arima._css_residuals(
                w, model.intercept, model.ar_coeffs, model.ma_coeffs))


def test_ar_fits_match_css_fit_bytes():
    x = ar2_series(1200, seed=17)
    level = 20.0 + np.cumsum(x)
    for series, d in ((x, 0), (level, 1)):
        for p in range(6):
            new, old = arima.fit_arma(series, p, d, 0), css_fit_oracle(
                series, p, d, 0)
            for field in ("ar_coeffs", "ma_coeffs", "intercept",
                          "residual_variance", "residuals"):
                np.testing.assert_array_equal(getattr(new, field),
                                              getattr(old, field))


def test_failed_refit_keeps_previous_coefficients(monkeypatch):
    x = ar2_series(900, seed=21)
    order = (2, 0, 1)
    clean, fallbacks = arima.rolling_forecast_feature(x, order, fit_len=300,
                                                      refit_every=200)
    assert fallbacks == 0
    real_fit = arima.fit_arma
    calls = []

    def fail_on(call):
        def fit(*args):
            calls.append(args)
            if len(calls) == call:
                raise DegenerateFitError("injected")
            return real_fit(*args)
        return fit

    monkeypatch.setattr(arima, "fit_arma", fail_on(2))
    column, fallbacks = arima.rolling_forecast_feature(x, order, fit_len=300,
                                                       refit_every=200)
    assert fallbacks == 1
    assert np.isfinite(column[300:]).all()
    np.testing.assert_array_equal(column[:500], clean[:500])
    # the block after the failed refit at bar 500 continues the recursion
    # of the fit at bar 300, as if no refit had been due there
    monkeypatch.setattr(arima, "fit_arma", real_fit)
    skipped, _ = arima.rolling_forecast_feature(x, order, fit_len=300,
                                                refit_every=400)
    np.testing.assert_array_equal(column[:700], skipped[:700])
    assert not np.array_equal(column[500:700], clean[500:700])

    calls.clear()
    monkeypatch.setattr(arima, "fit_arma", fail_on(1))
    with pytest.raises(DegenerateFitError, match="injected"):
        arima.rolling_forecast_feature(x, order, fit_len=300, refit_every=200)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_failing_refits_continue_one_recursion(monkeypatch, q):
    # blocks of one bar, shorter than the MA lags for q > 1
    walk = np.cumsum(np.random.default_rng(q).normal(size=160))
    monkeypatch.setattr(arima, "fit_arma", stub_fit)
    whole, _ = arima.rolling_forecast_feature(walk, (2, 1, q), fit_len=100,
                                              refit_every=1000)
    calls = []

    def first_fit_only(*args):
        calls.append(args)
        if len(calls) > 1:
            raise DegenerateFitError("injected")
        return stub_fit(*args)

    monkeypatch.setattr(arima, "fit_arma", first_fit_only)
    column, fallbacks = arima.rolling_forecast_feature(
        walk, (2, 1, q), fit_len=100, refit_every=1)
    assert fallbacks == 59
    np.testing.assert_array_equal(column, whole)


@pytest.mark.parametrize("d", [-1, 2])
def test_rolling_forecast_rejects_unsupported_differencing(d):
    # an I(2) series: a forecast of its second difference is not a level
    x = np.cumsum(np.cumsum(np.random.default_rng(2).normal(size=900)))
    with pytest.raises(ParameterError, match="d in"):
        arima.rolling_forecast_feature(x, (1, d, 0), fit_len=300)
