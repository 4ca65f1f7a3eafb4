"""Host-speed normalization of the benchmark's times.

On a shared host the same pure-Python work runs up to twice as fast at one
moment as at another, so raw wall times of two runs differ more than the
code does.  Workers therefore time a fixed calibration kernel next to the
measured work, and every reported time is scaled to the speed at which the
kernel takes REFERENCE_KERNEL_MS:

    normalized = raw * REFERENCE_KERNEL_MS / kernel_ms

The kernel uses no lpatrace code, so a change to lpatrace moves the
normalized times exactly as it moves the raw ones at a fixed host speed.
Of set-up time only the part after the imports is scaled; interpreter
start and imports were measured not to follow the kernel's speed.  Raw
times are kept in the metadata line of every result.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's median time on the 2-CPU x86_64 host (Python 3.11.7) where
# the bounds in BENCHMARK.json were set.  Fixed, so that results of
# different commits stay comparable.
REFERENCE_KERNEL_MS = 0.75

# Queries per block that share one kernel median: enough samples to
# smooth the kernel's own jitter, few enough to follow the host's changes.
BLOCK = 64


def kernel() -> int:
    """Fraction arithmetic, tuple keys and dict inserts, like lpatrace's work."""
    acc, table = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
        table[(i, i % 7, str(i))] = acc
    return len(table)


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return (perf_counter() - start) * 1e3


def kernel_ms() -> float:
    return statistics.median(time_kernel() for _ in range(15))


def normalize(latencies, kernels):
    """Scale each latency by the kernel median of its block of queries."""
    out = []
    for start in range(0, len(latencies), BLOCK):
        scale = REFERENCE_KERNEL_MS / statistics.median(kernels[start:start + BLOCK])
        out += [lat * scale for lat in latencies[start:start + BLOCK]]
    return out
