"""How fast the host runs right now, from a fixed piece of work.

The measuring host is a shared VM whose speed drifts by up to a factor of
two over minutes, and the drift moves every timing of a run together. So
run.py times ``host_slice()`` between the rows of each pass (and
probe_setup.py after each set-up) and scales the timings to the reference
speed at which one slice takes ``REF_SLICE_S`` seconds.

A slice is pure Python plus small elementwise numpy calls: generator
creation, Gaussian draws, complex arithmetic and a reduction, the mix that
jamsim's per-trial code spends its time on. It calls no BLAS, so the
thread settings that BLAS uses do not change it, and it is benchmark code,
so no change to jamsim changes it.
"""

import math
from time import perf_counter

import numpy as np

REF_SLICE_S = 4.0e-4    # seconds per slice at the reference host speed
_REPEATS = 3            # a slice is the fastest of this many timings


def _work() -> float:
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(32):
        z = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        acc += math.log2(1.0 + float((z.real * z.real + z.imag * z.imag).sum()))
    count = 0
    for i in range(3000):
        count += i * i % 7
    return acc + count


def host_slice() -> float:
    """Seconds of one slice: the fastest of a few timings of the fixed work."""
    best = math.inf
    for _ in range(_REPEATS):
        t0 = perf_counter()
        _work()
        best = min(best, perf_counter() - t0)
    return best
