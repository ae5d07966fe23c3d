"""Acceptance gate: one test per shipped acceptance criterion.

Each test prints a single ``ACCEPTANCE <name>: PASS/FAIL`` line (visible with
``pytest -s``) and asserts the criterion at its stated tolerance, including
the runtime budget where one applies.
"""

import dataclasses
import hashlib
import json
import time
from collections import Counter

import numpy as np
import pytest

from fxstack import arima, indicators as ind, recap, recurrent as rnn
from fxstack import market_data as md
from fxstack import stacking, trees
from fxstack.config import PipelineConfig
from fxstack.evaluation import compute_metrics, format_results_table
from fxstack.pipeline import run_pipeline
from fxstack.trees import BoostParams
from oracles import (
    atr_oracle,
    bbands_oracle,
    bop_oracle,
    dema_oracle,
    ema_oracle,
    gradient_check,
    highest_high_oracle,
    macd_oracle,
    mom_oracle,
    roc_oracle,
    rsi_oracle,
    sma_oracle,
    split_gain,
    tema_oracle,
    trima_oracle,
    true_range_oracle,
    willr_oracle,
    wma_oracle,
)
from planted import generate_planted_frame


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def _max_abs_diff(got, expected):
    defined = np.isfinite(expected)
    if not np.array_equal(np.isfinite(got), defined):
        return np.inf
    if not defined.any():
        return 0.0
    return float(np.max(np.abs(got[defined] - expected[defined])))


def test_indicator_oracle_suite():
    """Every indicator matches its brute-force oracle within 1e-9 on 1,000
    seeded random bars; runtime < 5 s."""
    start = time.perf_counter()
    series = md.generate_synthetic_ohlc(1000, seed=2024, volatility=0.002)
    close = series.close
    checks = {
        "sma": _max_abs_diff(ind.sma(close, 10), sma_oracle(close, 10)),
        "ema": _max_abs_diff(ind.ema(close, 10), ema_oracle(close, 10)),
        "wma": _max_abs_diff(ind.wma(close, 5), wma_oracle(close, 5)),
        "dema": _max_abs_diff(ind.dema(close, 30),
                              dema_oracle(close, 30)),
        "tema": _max_abs_diff(ind.tema(close, 30),
                              tema_oracle(close, 30)),
        "trima": _max_abs_diff(ind.trima(close, 30),
                               trima_oracle(close, 30)),
        "willr": _max_abs_diff(
            ind.willr(series, 14),
            willr_oracle(series.high, series.low, close, 14)),
        "bop": _max_abs_diff(
            ind.bop(series, 14),
            bop_oracle(series.open, series.high, series.low, close, 14)),
        "rsi": _max_abs_diff(ind.rsi(close, 14), rsi_oracle(close, 14)),
        "mom": _max_abs_diff(ind.mom(close, 10), mom_oracle(close, 10)),
        "roc": _max_abs_diff(ind.roc(close, 10), roc_oracle(close, 10)),
    }
    line, sig, hist = ind.macd(close)
    o_line, o_sig, o_hist = macd_oracle(close)
    checks["macd"] = max(_max_abs_diff(line, o_line),
                         _max_abs_diff(sig, o_sig),
                         _max_abs_diff(hist, o_hist))
    tr, atr, natr = ind.true_range_atr(series, 14)
    o_atr = atr_oracle(series.high, series.low, close, 14)
    checks["atr"] = max(
        _max_abs_diff(tr,
                      true_range_oracle(series.high, series.low, close)),
        _max_abs_diff(atr, o_atr),
        _max_abs_diff(natr, 100.0 * o_atr / close))
    upper, mid, lower = ind.bbands(close, 20, 2.0)
    o_up, o_mid, o_lo = bbands_oracle(close, 20, 2.0)
    checks["bbands"] = max(_max_abs_diff(upper, o_up),
                           _max_abs_diff(mid, o_mid),
                           _max_abs_diff(lower, o_lo))
    elapsed = time.perf_counter() - start
    worst = max(checks.values())
    report("indicator-oracle-suite", worst < 1e-9 and elapsed < 5.0,
           f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_target_and_windowing_leakage_suite():
    """Label equals brute force exactly; features are causal and the label is
    local to the next-horizon window; runtime < 5 s."""
    start = time.perf_counter()
    series = md.generate_synthetic_ohlc(600, seed=31)
    label = md.compute_highest_high(series, 5)
    expected = highest_high_oracle(series.high, 5)
    defined = np.isfinite(expected)
    exact = (np.array_equal(np.isfinite(label), defined)
             and np.array_equal(label[defined], expected[defined]))

    # feature causality: indicator values up to t are unchanged when every
    # bar after t is perturbed
    m = 300
    head = md.CandleSeries(
        timestamps=series.timestamps[:m], open=series.open[:m],
        high=series.high[:m], low=series.low[:m], close=series.close[:m])
    causal = True
    frame_full = ind.compute_features(series)
    frame_head = ind.compute_features(head)
    for name in frame_full.feature_names:
        full = frame_full.column(name)[:m]
        trunc = frame_head.column(name)
        both = np.isfinite(full) & np.isfinite(trunc)
        if not (np.array_equal(np.isfinite(full), np.isfinite(trunc))
                and np.array_equal(full[both], trunc[both])):
            causal = False
            break

    # label locality: high[t+k] moves label(t) iff 1 <= k <= 5
    local = True
    t = 250
    for k, expect in [(0, False), (1, True), (5, True), (6, False)]:
        highs = series.high.copy()
        highs[t + k] += 5.0
        bumped = md.CandleSeries(
            timestamps=series.timestamps, open=series.open, high=highs,
            low=series.low, close=np.minimum(series.close, highs))
        moved = md.compute_highest_high(bumped, 5)[t] != label[t]
        if moved != expect:
            local = False

    elapsed = time.perf_counter() - start
    report("target-windowing-leakage-suite",
           exact and causal and local and elapsed < 5.0,
           f"exact={exact} causal={causal} local={local}, {elapsed:.2f}s")


def test_boosting_math():
    """Hand-computed leaf weight and split gains exact; objective
    non-increasing over 100 rounds; single unlimited tree interpolates."""
    hand = (
        trees.leaf_weight(4.0, 3.0, 1.0) == -1.0
        and split_gain(2.0, 1.0, -2.0, 1.0, 0.0, 0.0) == 4.0
        and abs(split_gain(1.0, 1.0, 1.0, 1.0, 1.0, 0.0) + 1 / 6) < 1e-15
    )
    rng = np.random.default_rng(77)
    X = rng.normal(size=(500, 20))
    y = rng.normal(size=500)
    model = trees.newton_boost_fit(
        X, y, BoostParams(n_trees=100, learning_rate=0.3, gamma=0.0), seed=0)
    monotone = bool(np.all(np.diff(model.objective_history) <= 1e-9))

    Xs = rng.normal(size=(20, 3))
    ys = rng.normal(size=20)
    single = trees.newton_boost_fit(
        Xs, ys, BoostParams(n_trees=1, learning_rate=1.0, lam=0.0,
                            max_depth=64), seed=0)
    rmse = float(np.sqrt(np.mean((trees.predict(single, Xs) - ys) ** 2)))
    report("boosting-math", hand and monotone and rmse < 1e-10,
           f"hand={hand} monotone={monotone} interp rmse {rmse:.1e}")


def test_recurrent_gradients():
    """GRU and LSTM BPTT gradients match central differences < 1e-4; < 30 s."""
    start = time.perf_counter()
    errs = {
        cell: gradient_check(rnn.RnnArch(cell=cell, hidden_size=6), seed=11)
        for cell in ("gru", "lstm")
    }
    elapsed = time.perf_counter() - start
    worst = max(errs.values())
    report("recurrent-gradient-check", worst < 1e-4 and elapsed < 30.0,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_arima_order_selection():
    """AIC search on seeded AR(2) (phi=[0.6,-0.3], n=2000) selects p in {2,3},
    q=0 in >= 4 of 5 seeds; < 10 s."""
    start = time.perf_counter()
    hits = 0
    selections = []
    for s in range(5):
        rng = np.random.default_rng(100 + s)
        n, burn = 2000, 200
        e = rng.normal(size=n + burn)
        x = np.zeros(n + burn)
        for t in range(2, n + burn):
            x[t] = 0.6 * x[t - 1] - 0.3 * x[t - 2] + e[t]
        p, d, q = arima.select_order(x[burn:], d_set=(0,)).selected
        selections.append((p, d, q))
        if p in (2, 3) and q == 0:
            hits += 1
    elapsed = time.perf_counter() - start
    report("arima-order-selection", hits >= 4 and elapsed < 10.0,
           f"{hits}/5 seeds {selections}, {elapsed:.2f}s")


@pytest.mark.slow
def test_recap_effectiveness():
    """5 informative of 70 features, 20k bars: final top-20 holds >= 4 planted
    base features and recap RMSE <= all-features baseline, in >= 2 of 3 seeds;
    runtime < 10 min."""
    start = time.perf_counter()
    successes = 0
    details = []
    for seed in range(3):
        planted = generate_planted_frame(20000, n_features=70,
                                         n_informative=5, seed=seed)
        spec = md.split_spec_from_fractions(planted.frame.index,
                                            (0.7, 0.15, 0.15))
        cfg = recap.RecapConfig(k=20, seed=seed, with_baseline=True)
        result = recap.run_recap(planted.frame, spec, cfg)
        hits = sum(1 for b in result.selected_base
                   if b in planted.informative)
        better = result.final_metrics.rmse <= result.baseline_metrics.rmse
        ok = hits >= 4 and better
        successes += ok
        details.append(f"seed{seed}: hits={hits} recap<=base={better}")
    elapsed = time.perf_counter() - start
    report("recap-effectiveness", successes >= 2 and elapsed < 600.0,
           f"{successes}/3 [{'; '.join(details)}], {elapsed:.0f}s")


def test_recap_arithmetic():
    """Fusion score equals an independent recomputation exactly; top-k is
    invariant under common positive rescaling of the RMSEs."""
    rng = np.random.default_rng(5)
    names = [f"f{i}" for i in range(30)]
    norm = [
        trees.ImportanceVector(kind="gain", scores={
            n: float(rng.uniform()) for n in names})
        for _ in range(3)
    ]
    rmses = [0.4, 0.9, 0.15]
    fused = recap.recap_scores(norm, rmses)
    exact = all(
        fused[n] == norm[0].scores[n] / rmses[0]
        + norm[1].scores[n] / rmses[1] + norm[2].scores[n] / rmses[2]
        for n in names)
    base_top = recap.top_k_columns(fused, 10)
    invariant = all(
        recap.top_k_columns(
            recap.recap_scores(norm, [r * c for r in rmses]), 10) == base_top
        for c in (1e-3, 0.5, 7.0, 1e3))
    report("recap-arithmetic", exact and invariant,
           f"exact={exact} rescale-invariant={invariant}")


def test_stacking_structure():
    """31 combinations sized {5,10,10,5,1}; selected meta-val RMSE <= every
    singleton; 31-way search on a 5k-row window < 5 min."""
    start = time.perf_counter()
    combos = stacking.enumerate_combinations()
    sizes = Counter(len(c.members) for c in combos)
    shape_ok = len(combos) == 31 and sizes == {1: 5, 2: 10, 3: 10, 4: 5, 5: 1}

    rng = np.random.default_rng(9)
    n = 5000
    truth = np.cumsum(rng.normal(size=n)) * 0.01 + 1.0
    preds = {name: truth + rng.normal(size=n) * q
             for name, q in zip(stacking.MODEL_ORDER,
                                (0.02, 0.05, 0.04, 0.15, 0.03))}
    labels = truth + rng.normal(size=n) * 0.01
    ts = np.datetime64("2021-01-01", "us") + np.arange(n) * np.timedelta64(15, "m")
    frame = stacking.build_meta_frame(preds, labels, ts)
    spec = md.split_spec_from_fractions(frame.index, (0.6, 0.2, 0.2))
    result = stacking.run_stacking_search(frame, spec, seed=0)
    singles = [r.val_rmse for r in result.rows if len(r.members) == 1]
    optimal = result.selected.val_rmse <= min(singles)
    elapsed = time.perf_counter() - start
    report("stacking-structure",
           shape_ok and optimal and len(result.rows) == 31 and elapsed < 300.0,
           f"shape={shape_ok} selected<=singletons={optimal}, {elapsed:.0f}s")


def test_metrics_properties():
    """RMSE^2 = MSE within 1e-12 relative and MAE <= RMSE on 1,000 random
    vectors; MAPE unavailable iff a zero actual; E-3 table round-trips."""
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        pred = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        actual = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        m = compute_metrics(pred, actual)
        if abs(m.rmse ** 2 - m.mse) > 1e-12 * max(m.mse, 1e-300):
            ok = False
        if m.mae > m.rmse * (1 + 1e-12):
            ok = False
    zeroed = compute_metrics(np.ones(3), np.array([1.0, 0.0, 2.0]))
    nonzero = compute_metrics(np.ones(3), np.array([1.0, 3.0, 2.0]))
    mape_rule = zeroed.mape is None and nonzero.mape is not None

    m = compute_metrics(np.array([1.00123456, 0.99954321]),
                        np.array([1.0, 1.0]))
    line = format_results_table([("row", m)]).strip().splitlines()[1]
    _, rmse_e3, mae_e3, mape_e3 = line.split(",")
    roundtrip = (abs(float(rmse_e3) / 1e3 - m.rmse) < 1e-7
                 and abs(float(mae_e3) / 1e3 - m.mae) < 1e-7
                 and abs(float(mape_e3) / 1e3 - m.mape) < 1e-7)
    report("metrics-properties", ok and mape_rule and roundtrip,
           f"invariants={ok} mape-rule={mape_rule} e3-roundtrip={roundtrip}")


@pytest.mark.slow
def test_pipeline_determinism(tmp_path):
    """Two full runs with identical config and seed, into different output
    directories, produce byte-identical report.json."""
    cfg = PipelineConfig(
        synthetic_n=1200, recap_ks=(6,), xgb_n_trees=8,
        lgbm_n_trees=8, forest_n_trees=6, rnn_epochs=2, rnn_hidden=8,
        recap_rnn_epochs=2, recap_rnn_hidden=8, meta_epochs=30,
        arima_fit_len=400, seed=21,
    )
    digests = []
    for out in (tmp_path / "run", tmp_path / "elsewhere"):
        run_pipeline(dataclasses.replace(cfg, out_dir=str(out)))
        digests.append(hashlib.sha256(
            (out / "report.json").read_bytes()).hexdigest())
    report("pipeline-determinism", digests[0] == digests[1],
           f"sha256 {digests[0][:12]} vs {digests[1][:12]}")
