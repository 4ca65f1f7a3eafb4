"""One benchmark process: set up a workload, then measure it.

The process builds the workload and runs its warm-up queries, then prints
`ready`; the parent (run.py) times set-up from starting this interpreter
to that line.  It then reports how much of set-up came after the imports,
times the speed kernel, and unless --setup-only is given runs the closed
loop for --seconds.  The last line it prints is one
JSON object with the raw measurements.  With --trace the loop runs under
the tracer's wrappers, which are removed before the process reports.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

import speed

# A measured phase runs at least this many queries: p90 needs ten samples
# beyond it, and peak RSS is read after exactly this many, so that it does
# not grow with the number of queries the host's speed allows.
MIN_QUERIES = 400


def measure(workload, rng, seconds: float, min_queries: int, tracer=None) -> dict:
    """Closed loop: one query at a time until `seconds` have passed and at
    least `min_queries` ran.  Only `workload.run` is timed; input generation,
    the reference checks and one run of the speed kernel come between timed
    intervals."""
    latencies, kernels, digests, failures = [], [], [], []
    peak_rss_mb = None
    deadline = perf_counter() + seconds
    for i, query in enumerate(workload.queries(rng)):
        if len(latencies) >= min_queries and perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.query, tracer.active = i, True
        start = perf_counter()
        try:
            out, error = workload.run(query), None
        except Exception as exc:  # a query that raises counts as failed
            out, error = None, f"query raised {type(exc).__name__}: {exc}"
        latencies.append((perf_counter() - start) * 1e3)
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                error = workload.check(query, out)
            except Exception as exc:  # a malformed result fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        digests.append("error" if out is None else workload.digest(out))
        if error is not None:
            failures.append(error)
        kernels.append(speed.time_kernel())
        if len(latencies) == min_queries:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"latencies_ms": latencies, "kernel_ms": kernels, "digests": digests,
            "failures": failures, "peak_rss_mb": peak_rss_mb}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the trace spans to this file")
    args = parser.parse_args(argv)

    import numpy

    from tracer import Tracer
    from workloads import WORKLOADS

    imported = perf_counter()
    root = Path(__file__).resolve().parent.parent
    workload = WORKLOADS[args.workload](args.seed, root)
    try:
        warm = measure(workload, random.Random(f"{args.seed}:warmup"), 0, workload.warmup)
        workload.output_bytes = 0
        print("ready", flush=True)
        setup = {"setup_python_s": perf_counter() - imported,
                 "setup_kernel_ms": speed.kernel_ms()}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            run = measure(workload, random.Random(f"{args.seed}:queries"), args.seconds,
                          MIN_QUERIES, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        workload.close()

    failures = warm["failures"] + run["failures"]
    for message in failures[:5]:
        print(f"perfbench: {args.workload}: {message}", file=sys.stderr)
    report = {
        "latencies_ms": run["latencies_ms"],
        "kernel_ms": run["kernel_ms"],
        **setup,
        "digests": run["digests"],
        "attempted": len(warm["digests"]) + len(run["digests"]),
        "failed": len(failures),
        "peak_rss_mb": run["peak_rss_mb"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        scales = [norm / raw for norm, raw in zip(
            speed.normalize(run["latencies_ms"], run["kernel_ms"]), run["latencies_ms"])]
        report["layers"] = tracer.layer_metrics(len(run["digests"]), workload.output_bytes,
                                                scales)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
