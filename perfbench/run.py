"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Each measurement runs in a fresh interpreter (worker.py), so set-up time
includes importing lpatrace and numpy, and peak RSS belongs to that one
workload.  Times are scaled to a reference host speed (speed.py); the raw
values are in the metadata line.  With --trace 0 the workload is set up
SETUP_RUNS times, the last process also runs the closed loop, and the
end-to-end metrics are printed.  With --trace 1 one process measures untraced and a second one
replays the same seeded queries under the tracer, and the per-layer
metrics are printed.  The last line of output is the result JSON; the line
before it records the versions, seed and commit.  --out DIR appends both
to DIR/<workload>.jsonl (and the trace spans to DIR/spans-*.jsonl), which
compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
TIMEOUT_S = 150  # per worker process; a run must end within 180 s


class BenchError(Exception):
    pass


def worker(args, *extra) -> dict:
    """Run worker.py; returns its report with the measured set-up time, raw
    and scaled.  Only the part after the imports is scaled, by the mean
    kernel time just before and just after set-up: interpreter start and
    imports do not follow the kernel's speed."""
    before_ms = speed.kernel_ms()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or ready != "ready\n":
        raise BenchError(f"worker {' '.join(extra)} exited with code {code}")
    report = json.loads(rest.strip().splitlines()[-1])
    report["setup_raw_s"] = setup_s
    python_s = report["setup_python_s"]
    kernel = (before_ms + report["setup_kernel_ms"]) / 2
    report["setup_s"] = setup_s - python_s + python_s * speed.REFERENCE_KERNEL_MS / kernel
    return report


def latency_metrics(lat) -> dict:
    return {
        "queries_per_s": len(lat) / (sum(lat) / 1e3),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8],
    }


def untraced(args):
    setups = [worker(args, "--setup-only") for _ in range(SETUP_RUNS - 1)]
    run = worker(args)
    setups.append(run)
    run["raw"] = latency_metrics(run["latencies_ms"])
    run["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    scaled = latency_metrics(speed.normalize(run["latencies_ms"], run["kernel_ms"]))
    metrics = {
        "queries_per_s": (scaled["queries_per_s"], "1/s"),
        "latency_p50_ms": (scaled["latency_p50_ms"], "ms"),
        "latency_p90_ms": (scaled["latency_p90_ms"], "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return run, run["attempted"], run["failed"], metrics


def traced(args):
    off = worker(args)
    spans = []
    if args.out:
        spans = ["--spans", str(Path(args.out) / f"spans-{args.workload}-{args.seed}.jsonl")]
    on = worker(args, "--trace", *spans)
    k = min(len(off["latencies_ms"]), len(on["latencies_ms"]))
    mismatched = sum(a != b for a, b in zip(off["digests"][:k], on["digests"][:k]))
    if mismatched:
        print(f"perfbench: {mismatched} traced results differ from untraced ones",
              file=sys.stderr)
    metrics = {name: (m["value"], m["unit"]) for name, m in on["layers"].items()}
    for name, report in (("tracing.queries_per_s_off", off), ("tracing.queries_per_s_on", on)):
        lat = speed.normalize(report["latencies_ms"][:k], report["kernel_ms"][:k])
        metrics[name] = (k / (sum(lat) / 1e3), "1/s")
    on["raw"] = latency_metrics(on["latencies_ms"])
    attempted = off["attempted"] + on["attempted"]
    return on, attempted, off["failed"] + on["failed"] + mismatched, metrics


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lpatrace benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["algebra_session", "cli_reports", "semigroup_tables"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="directory to append results and spans to")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lpatrace" / "__init__.py").is_file():
        print(f"perfbench: no lpatrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    try:
        run, attempted, failed, metrics = (traced if args.trace else untraced)(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(run["latencies_ms"]),
        "error_rate": failed / attempted,
        "raw": run["raw"],
        "kernel_ms": statistics.median(run["kernel_ms"]),
        "python": run["python"],
        "numpy": run["numpy"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps({"perfbench": meta}))
    if args.out:
        with open(Path(args.out) / f"{args.workload}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
