"""One workload's timed run, in a process of its own.

Started by run.py with the checkout's `src` on PYTHONPATH and BLAS/OpenMP
held to one thread. Reads the job (operations, warm-up operations, run
length, trace flag) as JSON on stdin and prints its result as one JSON
line on stdout.

Each operation is one in-process CLI invocation: `cli.parse_args` then
`cli.run` into a string buffer. Only those two calls are timed; parsing
and checking the output happen outside the timed section. The run repeats
whole rounds of the operation list until it has measured for the requested
seconds and made at least 100 operations, so the 90th percentile has ten
samples beyond it.

    python3 perfbench/worker.py --probe WORKLOAD   # set-up probe, see run.py
"""

from __future__ import annotations

import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100

# one small first call per workload: a fresh process pays its lazy set-up
# before its first timed operation can start
PROBE_ARGV = {
    "enclose-grid": ["enclose", "--f", "exp(t*s)", "--rect", "0", "1", "0", "1",
                     "--bounds", "1", "5.5", "--subdivide", "2", "2", "--json"],
    "audit": ["verify", "--trials", "1", "--seed", "1", "--json"],
    "anchor-mix": ["identity", "--f", "exp(t*s)", "--rect", "0", "1", "0", "1",
                   "--point", "0.3", "0.6", "--json"],
}


def _import_package():
    import ostrocube
    from ostrocube import cli

    src = (_ROOT / "src").resolve()
    if src not in Path(ostrocube.__file__).resolve().parents:
        raise SystemExit(f"ostrocube imported from {ostrocube.__file__}, not from {src}")
    return ostrocube, cli


def _invoke(cli, argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    code = cli.run(cli.parse_args(argv), buf)
    return time.perf_counter() - t0, code, buf.getvalue()


def _invoke_traced(cli, tracer, argv):
    buf = io.StringIO()
    tracer.start_op()
    op_id = tracer.name_id("op")
    parse_id = tracer.name_id("cli.parse_args")
    run_id = tracer.name_id("cli.run")
    t0 = time.perf_counter()
    tracer.begin(op_id)
    tracer.begin(parse_id)
    inv = cli.parse_args(argv)
    tracer.end()
    tracer.begin(run_id)
    code = cli.run(inv, buf)
    tracer.end()
    tracer.end()
    elapsed = time.perf_counter() - t0
    tracer.end_op()
    return elapsed, code, buf.getvalue()


def probe(workload: str) -> int:
    """Import the package, make the workload's first call, report ready."""
    _, cli = _import_package()
    _, code, _ = _invoke(cli, PROBE_ARGV[workload])
    print("ready", flush=True)
    return code


def run_job(job: dict) -> dict:
    from checks import check

    package, cli = _import_package()
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(package)

    def invoke(argv):
        if tracer is None:
            return _invoke(cli, argv)
        return _invoke_traced(cli, tracer, argv)

    for op in job["warmup"]:
        invoke(op["argv"])
    if tracer is not None:
        tracer.reset()
    gc.collect()

    ops = job["ops"]
    latencies: list[float] = []
    failures: dict[str, int] = {}
    unexpected: list[str] = []
    output_bytes = 0
    cells = 0
    width_rel: list[float] = []
    started = time.perf_counter()
    while True:
        for op in ops:
            elapsed, code, out = invoke(op["argv"])
            latencies.append(elapsed)
            output_bytes += len(out)
            try:
                doc = json.loads(out) if code == 0 else None
            except ValueError:
                doc = None
            reason = check(op, code, doc)
            if reason is not None:
                failures[reason] = failures.get(reason, 0) + 1
                if not op["expect_fail"]:
                    unexpected.append(f"{' '.join(op['argv'])}: {reason}")
            if doc is not None and op["check"] == "enclose":
                res = doc["results"]
                cells += res["cells"]
                if op["reference"] != 0.0:
                    width_rel.append(res["enclosure"]["width"] / abs(op["reference"]))
        if time.perf_counter() - started >= job["seconds"] and len(latencies) >= MIN_OPS:
            break

    attempted = len(latencies)
    result = {
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": failures,
        "unexpected": unexpected[:10],
        "n_unexpected": len(unexpected),
        "ops_per_s": attempted / sum(latencies),
        "op_ms_p50": 1000.0 * statistics.median(latencies),
        "op_ms_p90": 1000.0 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layer = tracer.metrics()
        layer["cli.output_kb"] = output_bytes / 1024.0 / attempted
        layer["enclosure.cells"] = cells / attempted
        layer["enclosure.width_rel_p50"] = statistics.median(width_rel) if width_rel else 0.0
        result["per_layer"] = layer
        Path(job["trace_path"]).parent.mkdir(parents=True, exist_ok=True)
        tracer.save(job["trace_path"])
    return result


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--probe":
        return probe(argv[1])
    if argv:
        print("usage: worker.py [--probe WORKLOAD] < job.json", file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    result = run_job(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
