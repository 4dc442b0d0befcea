"""Time one workload's set-up in a fresh interpreter and print it in seconds.

Usage: python bench/setup_probe.py scale | lossy K

scale times importing the pipeline's modules; lossy adds parse, validate
and the overlay of the fixture copied K times.  Making the model bytes is
input generation and is not timed.  Prints the set-up seconds and then the
calibration kernel's seconds, taken after the set-up so that the kernel's
imports do not shorten it.
"""

import sys
import time

from scaled import scaled_bytes

workload = sys.argv[1]
data = scaled_bytes(int(sys.argv[2])) if workload == "lossy" else None
start = time.perf_counter()
import pipeline  # noqa: E402
from tracing import NullTracer  # noqa: E402

if data is not None:
    pipeline.overlay(data, NullTracer())
elapsed = time.perf_counter() - start

import statistics  # noqa: E402

import calibrate  # noqa: E402

# One kernel reading is noisy next to a set-up this short; take the median of five.
print(elapsed, statistics.median(calibrate.kernel_seconds() for _ in range(5)))
