"""fxstack benchmark: run one workload for one seed and print its metrics.

Usage (from the root of a checkout):

    python3 fxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the benchmark times fresh-interpreter set-up, then, in
one fresh worker process, makes a warm-up run and runs the workload
closed-loop, one run at a time, until ``--seconds`` are used, and never
fewer than three timed runs. Times are put on one host-speed scale
(``hostspeed.py``) and the medians are reported. With ``--trace 1`` it
makes one untraced and one traced run, each in a fresh process, and
reports the per-layer numbers of the traced one. The last
line of standard output is one JSON object; the lines before it and
``.fxbench_work/<workload>/`` hold the full record (environment, every run,
every check, and the spans of a traced run).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed
from workloads import WORKLOADS, config_lines, work_dir, write_bar_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
MIN_RUNS = 3
SETUP_PROBES = 9
DEADLINE_S = 170.0       # the whole invocation must end within 180 s
# one BLAS thread: the matrices are small, and spinning BLAS threads on a
# shared host add noise, not speed
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

# a fresh interpreter importing what the CLI imports, then loading and
# validating the workload config: what every CLI invocation pays first.
# It samples host speed meanwhile (hostspeed.py, which imports only the
# standard library) and reports the samples, so that the parent can take
# the sampling off the process's wall time and scale the rest.
SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, 'fxbench')\n"
    "import hostspeed\n"
    "with hostspeed.Sampler() as sampler:\n"
    "    sys.path.insert(0, 'src')\n"
    "    from fxstack import cli, config\n"
    "    c = config.load_config(sys.argv[1])\n"
    "    bad = any(f.severity == 'error'\n"
    "              for f in config.validate_config(c))\n"
    "print(sampler.samples)\n"
    "sys.exit(bad)\n"
)

E2E_UNITS = {"bars_per_s": "bars/s", "setup_s": "s", "peak_rss_mb": "MB"}
QUALITY_UNITS = {"stack_test_rmse": "price", "best_base_test_rmse": "price",
                 "arima_forecast_rmse": "price"}


def _deadline_left(started: float) -> float:
    return DEADLINE_S - (time.perf_counter() - started)


def _run_worker(job: dict, tag: str, started: float) -> dict:
    """Workload runs in a fresh process; returns the worker's record, or a
    record with ``error`` and no runs."""
    base = os.path.join(work_dir(WORKLOADS[job["workload"]]), tag)
    job_path, result_path = base + "-job.json", base + "-result.json"
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, job_path, result_path], cwd=ROOT,
            env=CHILD_ENV, capture_output=True, text=True,
            timeout=max(1.0, _deadline_left(started)),
        )
    except subprocess.TimeoutExpired:
        return {"runs": [], "error": "timed out",
                "process_s": time.perf_counter() - t0}
    process_s = time.perf_counter() - t0
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"runs": [], "process_s": process_s,
                "error": proc.stderr.strip().splitlines()[-5:]}
    with open(result_path) as fh:
        result = json.load(fh)
    result["process_s"] = process_s
    for run in result["runs"]:
        run["ok"] = all(c["ok"] for c in run["checks"].values())
    return result


def _setup_times(config_path: str) -> list[dict]:
    """Wall time of each set-up probe, less its sampling, and that time on
    the reference speed scale."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, config_path],
                              cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=60)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: " + proc.stderr.strip())
        samples = json.loads(proc.stdout.strip().splitlines()[-1])
        wall -= sum(samples)
        times.append({"wall_s": wall,
                      "kernel_s": hostspeed.trimmed_mean(samples),
                      "scaled_s": hostspeed.to_reference(
                          wall, samples, hostspeed.SETUP_EXPONENT)})
    return times


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def _prepare(workload, seed: int) -> dict:
    """Write the workload's inputs and config; return the job template."""
    wdir = work_dir(workload)
    os.makedirs(wdir, exist_ok=True)
    for name in os.listdir(wdir):
        path = os.path.join(wdir, name)
        if os.path.isfile(path):
            os.remove(path)
    csv_path = os.path.join(wdir, "bars.csv")
    csv = dataclasses.asdict(write_bar_csv(csv_path, workload.bars, seed))
    config_path = os.path.join(wdir, "workload.cfg")
    lines = config_lines(workload, seed, csv_path, os.path.join(wdir, "out"))
    with open(config_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"root": ROOT, "workload": workload.name, "seed": seed,
            "config_path": config_path, "csv": csv, "trace": False,
            "seconds": None}


def _mark_digest_mismatches(runs: list[dict]) -> None:
    """Same seed, same inputs: every run must emit the same digest."""
    for r in runs:
        same = r["digest"] == runs[0]["digest"]
        r["checks"]["same_seed_same_digest"] = {"ok": same,
                                                "detail": r["digest"]}
        r["ok"] = r["ok"] and same


def _e2e_metrics(worker: dict, bars: int, setup: list[dict]) -> dict:
    timed = [r["scaled_s"] for r in worker["runs"] if not r.get("warmup")]
    values = {
        "bars_per_s": bars / statistics.median(timed),
        "setup_s": statistics.median(p["scaled_s"] for p in setup),
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def _layer_metrics(untraced: dict, traced: dict) -> dict:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in traced["layers"].items()}
    metrics["trace.overhead_s"] = {
        "value": traced["runs"][0]["wall_s"] - untraced["runs"][0]["wall_s"],
        "unit": "s"}
    return metrics


def _print_summary(record: dict, runs: list[dict], failed: int) -> None:
    first = runs[0]
    print(f"workload {record['workload']} ({record['bars']} bars, seed "
          f"{record['seed']}, {'traced' if record['trace'] else 'untraced'})"
          f": {record['why']}")
    for key, value in record["environment"].items():
        print(f"  env {key}: {value}")
    print(f"  arima orders: {json.dumps(first['arima_orders'])}")
    print(f"  digest {first['digest_of']}: {first['digest']}")
    for p in record.get("setup", []):
        print(f"  set-up probe: wall {p['wall_s']:.3f} s, kernel "
              f"{p['kernel_s'] * 1e3:.3f} ms, scaled {p['scaled_s']:.3f} s")
    for i, r in enumerate(runs):
        bad = [n for n, c in r["checks"].items() if not c["ok"]]
        status = "ok" if r["ok"] else f"FAILED {bad}"
        speed = (f", kernel {r['kernel_s'] * 1e3:.3f} ms x{r['samples']}, "
                 f"scaled {r['scaled_s']:.3f} s" if "scaled_s" in r else
                 " (warm-up, not timed)" if r.get("warmup") else "")
        print(f"  run {i}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s"
              f"{speed}, {status}")
    print(f"  failure_ratio = {failed / len(runs):.4g} (failed / attempted "
          f"runs, {failed}/{len(runs)})")
    for name, value in first["quality"].items():
        print(f"  {name} = {value:.6g} {QUALITY_UNITS[name]}")
    if record["trace"]:
        rec = record["reconcile"]
        print(f"  layer self times / stage totals = {rec['total_ratio']:.4f}"
              f" ({'within' if rec['ok'] else 'OUTSIDE'} 5%)")
    for name, m in record["result"]["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "fxstack", "__init__.py")):
        print(f"error: no fxstack sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    job = _prepare(workload, args.seed)
    record = {"workload": workload.name, "why": workload.why,
              "bars": workload.bars, "seed": args.seed, "trace": args.trace}

    if args.trace:
        workers = [_run_worker(job, "untraced", started),
                   _run_worker(dict(job, trace=True), "traced", started)]
    else:
        record["setup"] = _setup_times(job["config_path"])
        job.update(seconds=args.seconds, min_runs=MIN_RUNS,
                   deadline_s=_deadline_left(started) - 5.0)
        workers = [_run_worker(job, "runs", started)]
    record["workers"] = [{k: v for k, v in w.items() if k != "spans"}
                         for w in workers]
    if any("error" in w for w in workers):
        print(json.dumps(record, indent=1), file=sys.stderr)
        print("error: a worker did not complete", file=sys.stderr)
        return 1
    runs = [r for w in workers for r in w["runs"]]
    _mark_digest_mismatches(runs)

    if args.trace:
        metrics = _layer_metrics(*workers)
        record["reconcile"] = workers[1]["reconcile"]
        with open(os.path.join(work_dir(workload), "spans.json"), "w") as fh:
            json.dump(workers[1]["spans"], fh)
    else:
        metrics = _e2e_metrics(workers[0], workload.bars, record["setup"])
    failed = sum(not r["ok"] for r in runs)
    record["environment"] = dict(_machine(), **workers[0]["environment"])
    record["result"] = {"correct": failed == 0, "attempted": len(runs),
                        "failed": failed, "metrics": metrics}
    tag = f"result-trace{args.trace}-seed{args.seed}.json"
    with open(os.path.join(work_dir(workload), tag), "w") as fh:
        json.dump(record, fh, indent=1)
    _print_summary(record, runs, failed)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
