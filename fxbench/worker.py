"""Workload runs in a fresh interpreter.

Usage: python3 fxbench/worker.py JOB.json RESULT.json

The job names the workload, its config file and output directory, and
whether to trace. The worker imports fxstack from the checkout's ``src/``
and runs the workload through its public entry point. A traced job makes
one traced run. An untraced job with ``seconds`` makes one warm-up run,
then runs closed-loop, one run after another, until the next run would end
after ``seconds`` (never fewer than ``min_runs``); each of these runs is
sampled for host speed (``hostspeed.py``). Every run's outputs are checked.
RESULT.json holds each run's timings, counters, check results and output
digest. Peak RSS is this process's, so it covers one workload run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time

import hostspeed
import tracing
from workloads import WORKLOADS, csv_rmse


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _import_fxstack(root: str) -> dict:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fxstack
    from fxstack import arima, cli, config, market_data, pipeline, recap
    from fxstack import stacking

    where = os.path.realpath(fxstack.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"imported fxstack from {where}, not from {src}")
    return {"arima": arima, "cli": cli, "config": config,
            "market_data": market_data, "pipeline": pipeline,
            "recap": recap, "stacking": stacking}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check(checks: dict, name: str, ok: bool, detail) -> None:
    checks[name] = {"ok": bool(ok), "detail": detail}


def _measure(call, sample: bool) -> tuple[object, dict]:
    """Run ``call()``; time it, and sample host speed while it runs."""
    cpu = _cpu_s()
    if not sample:
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        return result, {"wall_s": wall, "cpu_s": _cpu_s() - cpu}
    with hostspeed.Sampler() as sampler:
        start = sampler.start()
        result = call()
        wall = sampler.stop() - start
    return result, {"wall_s": wall, "cpu_s": _cpu_s() - cpu,
                    "handler_s": sampler.in_region_s,
                    "kernel_s": sampler.kernel_s(),
                    "samples": len(sampler.samples),
                    "scaled_s": sampler.scale_s(wall)}


def _run_pipeline(fx, job, config, checks, sample) -> tuple[dict, dict, dict]:
    report, timing = _measure(
        lambda: fx["pipeline"].run_pipeline(config), sample)
    _check(checks, "dropped_rows_by_reason",
           report.ingest_dropped == job["csv"]["dropped"],
           {"dropped": report.ingest_dropped,
            "expected": job["csv"]["dropped"]})
    rows = report.stacking["rows"]
    _check(checks, "stacking_has_31_rows", len(rows) == 31, len(rows))
    argmin = min(rows, key=lambda r: (r["val_rmse"], r["id"]))["id"]
    _check(checks, "stacking_selects_argmin_val_rmse",
           report.stacking["selected_id"] == argmin,
           {"selected": report.stacking["selected_id"], "argmin": argmin})
    # RMSE over a window is finite only if every prediction in it is
    base_rmse = {k: v["rmse"] for k, v in report.base_metrics.items()}
    _check(checks, "base_predictions_finite",
           len(base_rmse) == 5 and all(map(math.isfinite, base_rmse.values())),
           base_rmse)
    selected = rows[report.stacking["selected_id"]]
    quality = {
        "stack_test_rmse": selected["test_rmse"],
        "best_base_test_rmse": min(base_rmse.values()),
    }
    outputs = {
        "digest": _sha256(os.path.join(config.out_dir, "report.json")),
        "digest_of": "report.json",
        "arima_orders": report.arima_orders,
        "stage_totals": dict(report.timings),
    }
    return timing, quality, outputs


def _run_features(fx, job, config, checks, sample) -> tuple[dict, dict, dict]:
    captured = io.StringIO()

    def call():
        with contextlib.redirect_stdout(captured):
            return fx["cli"].main(["--config", job["config_path"],
                                   "features"])

    code, timing = _measure(call, sample)
    _check(checks, "features_exit_code", code == 0, code)
    path = os.path.join(config.out_dir, "features.csv")
    rows, rmse = csv_rmse(path, "arima_close", "close")
    expected = job["csv"]["valid_bars"] - config.arima_fit_len - config.horizon
    _check(checks, "features_csv_rows", rows == expected,
           {"rows": rows, "expected": expected})
    _, dropped = fx["market_data"].load_ohlc_csv(config.csv_path)
    _check(checks, "dropped_rows_by_reason", dropped == job["csv"]["dropped"],
           {"dropped": dropped, "expected": job["csv"]["dropped"]})
    _check(checks, "arima_forecast_finite", math.isfinite(rmse) and rmse > 0,
           rmse)
    orders = {}
    for line in captured.getvalue().splitlines():
        if line.startswith("arima order "):
            name, order = line[len("arima order "):].split(": ")
            orders[name] = json.loads(order.replace("(", "[").replace(")", "]"))
    outputs = {
        "digest": _sha256(path),
        "digest_of": "features.csv",
        "arima_orders": orders,
        "stage_totals": {"features_cli": timing["wall_s"]},
    }
    return timing, {"arima_forecast_rmse": rmse}, outputs


def _environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}"
    except Exception:  # older numpy: no dict mode
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _one_run(fx, job, config, workload, sample: bool) -> dict:
    shutil.rmtree(config.out_dir, ignore_errors=True)
    checks: dict = {}
    run = _run_pipeline if workload.kind == "pipeline" else _run_features
    timing, quality, outputs = run(fx, job, config, checks, sample)
    return {**timing, "quality": quality, "checks": checks, **outputs}


def _closed_loop(fx, job, config, workload) -> list[dict]:
    """A warm-up run, then sampled runs until the next one would end after
    ``job["seconds"]`` (never fewer than ``job["min_runs"]``), or the
    deadline is near."""
    deadline = time.perf_counter() + job["deadline_s"]
    runs = [dict(_one_run(fx, job, config, workload, False), warmup=True)]
    loop_start = time.perf_counter()
    while True:
        run = _one_run(fx, job, config, workload, True)
        runs.append(run)
        now = time.perf_counter()
        if (len(runs) > job["min_runs"]
                and now - loop_start + run["wall_s"] > job["seconds"]):
            break
        if now + 1.5 * run["wall_s"] > deadline:
            break
    return runs


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    root = job["root"]
    os.chdir(root)
    fx = _import_fxstack(root)
    workload = WORKLOADS[job["workload"]]
    tracer = None
    if job["trace"]:
        tracer = tracing.install(fx)
    config = fx["config"].load_config(job["config_path"])
    if job["seconds"] is None:
        runs = [_one_run(fx, job, config, workload, False)]
    else:
        runs = _closed_loop(fx, job, config, workload)
    result = {"runs": runs, "peak_rss_mb": _peak_rss_mb(),
              "environment": _environment()}
    if tracer is not None:
        run = runs[0]
        totals = run["stage_totals"]
        result["layers"] = tracing.layer_metrics(tracer, totals)
        result["reconcile"] = tracing.reconcile(tracer, totals)
        result["spans"] = tracer.to_json()
        checks = run["checks"]
        if workload.kind == "pipeline":
            preds = [s.attrs["finite"] for s in tracer.spans
                     if s.parent is None and "finite" in s.attrs]
            _check(checks, "traced_base_predictions_finite",
                   len(preds) == 5 and all(preds), preds)
        _check(checks, "trace_reconciles_with_stage_totals",
               result["reconcile"]["ok"], result["reconcile"]["total_ratio"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
