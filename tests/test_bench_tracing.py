"""The benchmark's tracer (``fxbench/tracing.py``) replaces names in the
namespaces of ``fxstack.pipeline``, ``fxstack.recap`` and the other modules.
A learner that kept a function object instead of calling the name when it
runs would bypass it, and the traced benchmark would stop reconciling.

Each case runs in a fresh interpreter, so the wrapped modules never reach
another test. The tracer module is imported as the benchmark imports it."""

import json
import os
import subprocess
import sys

import numpy as np

from fxstack.market_data import generate_synthetic_ohlc
from test_pipeline import SMALL

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = r"""
import ast, json, os, sys, time
root, mode, arg, out_dir = sys.argv[1:5]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "fxbench")]
import tracing
from fxstack import arima, cli, market_data, pipeline, recap, stacking
from fxstack.config import PipelineConfig
tracer = tracing.install({"arima": arima, "market_data": market_data,
                          "pipeline": pipeline, "recap": recap,
                          "stacking": stacking})
if mode == "pipeline":
    config = PipelineConfig(out_dir=out_dir, **ast.literal_eval(arg))
    totals = pipeline.run_pipeline(config).timings
else:
    start = time.perf_counter()
    assert cli.main(["--config", arg, "features"]) == 0
    totals = {"features_cli": time.perf_counter() - start}
print(json.dumps({
    "reconcile": tracing.reconcile(tracer, totals),
    "spans": [{"name": s.name, "top": s.parent is None, "attrs": s.attrs}
              for s in tracer.spans]}))
"""


def _traced(mode: str, arg: str, out_dir) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, ROOT, mode, arg, str(out_dir)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_traced_pipeline_reconciles(tmp_path):
    traced = _traced("pipeline", repr(SMALL), tmp_path)
    assert traced["reconcile"]["ok"], traced["reconcile"]
    spans = traced["spans"]
    names = {s["name"] for s in spans}
    assert {"trees.forest", "recurrent.train", "recurrent.predict",
            "trees.save", "recurrent.to_dict", "stacking.meta_fit"} <= names
    assert {s["attrs"]["splitter"] for s in spans
            if s["name"] == "trees.boost"} == {"exact", "histogram"}
    # the benchmark checks one top-level prediction span per base learner
    assert [s["attrs"]["finite"] for s in spans
            if s["top"] and "finite" in s["attrs"]] == [True] * 5


def test_traced_features_reconciles(tmp_path):
    series = generate_synthetic_ohlc(6000, seed=3)
    stamps = np.datetime_as_string(series.timestamps, unit="s")
    rows = [f"{t}Z,{o!r},{h!r},{lo!r},{c!r}" for t, o, h, lo, c in zip(
        stamps, series.open.tolist(), series.high.tolist(),
        series.low.tolist(), series.close.tolist())]
    csv_path = tmp_path / "bars.csv"
    csv_path.write_text("\n".join(["datetime,open,high,low,close", *rows])
                        + "\n")
    config = tmp_path / "features.cfg"
    config.write_text(f"data.source = csv\ndata.csv_path = {csv_path}\n"
                      f"out_dir = {tmp_path}\narima.p_max = 1\n"
                      "arima.refit_every = 100\n")
    traced = _traced("features", str(config), tmp_path)
    assert traced["reconcile"]["ok"], traced["reconcile"]
    names = {s["name"] for s in traced["spans"]}
    assert {"market_data.load_csv", "arima.rolling", "market_data.label",
            "market_data.clean", "market_data.features_csv"} <= names
