"""Time a fresh interpreter's set-up for one workload; print the seconds.

Covers ``import dsim``, building the workload's distributions and one small
round trip of its first stream: the cost every dsim CLI invocation pays
before it does useful work.  ``run.py`` starts this script several times and
reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py density-1e6
"""

import sys
import time

import checkout

start = time.perf_counter()
checkout.use_checkout_sources()

import dsim  # noqa: E402,F401  (its import is part of what is timed)
import workloads  # noqa: E402

workload = workloads.build(sys.argv[1])
first = workload.streams[0]
stream = workloads.Stream(first.scheme, first.dist, 1000)
enc, dec = workloads.stream_sources(0, workloads.WARMUP, 0, 0)
data, multiset, samples, _, _ = workloads.round_trip(stream, enc, dec, time.perf_counter_ns)
problem = workloads.check(stream, multiset, samples)
print(repr(time.perf_counter() - start))
if problem:
    raise SystemExit(f"set-up round trip failed: {problem}")
