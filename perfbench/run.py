"""Benchmark of the ostrocube CLI: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N            # every workload in turn

Run from the root of a checkout. For each workload this launcher builds the
seeded operation list and its reference values (workloads.py), times a few
fresh set-up processes, then runs the timed loop in one worker process
(worker.py) with the checkout's `src` first on PYTHONPATH and BLAS/OpenMP
held to one thread. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
worker wraps each layer's public functions and the metrics are per layer
(spans are written to .perfbench_out/trace-WORKLOAD.npz). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, build_round, build_warmup

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_UNITS = {
    "calls": "1/op",
    "self_ms": "ms/op",
    "distinct_ratio": "ratio",
    "samples": "1/op",
    "points": "1/op",
    "output_kb": "KB/op",
    "cells": "1/op",
    "width_rel_p50": "ratio",
}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _probe_once(workload: str, env: dict) -> float:
    """Seconds from process start until its first operation has run."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--probe", workload],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return ready


def measure_setup(workload: str, env: dict) -> float:
    _probe_once(workload, env)  # untimed: writes bytecode caches on a fresh checkout
    return statistics.median(_probe_once(workload, env) for _ in range(SETUP_PROBES))


def run_worker(job: dict, env: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = _child_env()
    setup_s = None if trace else measure_setup(workload, env)
    job = {
        "ops": build_round(workload, seed),
        "warmup": build_warmup(workload, seed),
        "seconds": seconds,
        "trace": trace,
        "trace_path": str(OUT_DIR / f"trace-{workload}.npz"),
    }
    res = run_worker(job, env)
    if trace:
        metrics = {
            name: {"value": value, "unit": PER_LAYER_UNITS[name.rsplit(".", 1)[1]]}
            for name, value in res["per_layer"].items()
        }
    else:
        res["setup_s"] = setup_s
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": res["n_unexpected"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "ops_per_s": res["ops_per_s"],
        "failures": res["failures"],
        "unexpected": res["unexpected"],
    }


def _report(workload: str, result: dict, trace: bool) -> None:
    print(f"[{workload}] attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for reason, count in result["failures"].items():
        print(f"[{workload}]   failed x{count}: {reason}")
    for line in result["unexpected"]:
        print(f"[{workload}]   UNEXPECTED {line}")
    if trace:
        print(f"[{workload}]   traced ops_per_s = {result['ops_per_s']!r} 1/s")
    for name, m in result["metrics"].items():
        print(f"[{workload}]   {name} = {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "ostrocube" / "cli.py").is_file():
        print(f"no ostrocube sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _report(name, results[name], bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
