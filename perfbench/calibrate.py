"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose throughput drifts
by about ±20% over tens of seconds (neighbours on the same physical cores;
it shows in CPU time as well as wall time, so a CPU clock does not remove
it). Every timed stretch of ops is therefore bracketed by a fixed
calibration kernel that uses nothing from casense: masked FFTs, complex
soft thresholding and small-array numpy calls, the mix the casense ops
spend their time on. An op's time is reported in *nominal seconds*,

    op wall seconds x NOMINAL_S / calibration wall seconds,

the calibration time being the mean of the kernels just before and just
after the op's stretch. A nominal second is a wall second on a machine
where the kernel takes ``NOMINAL_S``. A change to casense moves the op
time and not the kernel, so it moves the nominal time by the same share
as the wall time; a slower or busier machine moves both and cancels out.
The raw wall times are kept next to the nominal ones in the run's details.
"""

from __future__ import annotations

import time

import numpy as np

# About the median kernel wall time on the reference machine (2 vCPUs of an
# Intel Xeon host, numpy with one BLAS thread); only sets the scale of nominal
# seconds, so that they read close to that machine's wall seconds.
NOMINAL_S = 0.06

_N, _BATCH, _ITERS, _SMALL_CALLS = 512, 64, 60, 15000
_rng = np.random.default_rng(20230925)
_X = _rng.standard_normal((_N, _BATCH)) + 1j * _rng.standard_normal((_N, _BATCH))
_MASK = _rng.random(_N) < 0.5
_V = _rng.standard_normal(16)


def kernel() -> float:
    """The fixed work; returns a checksum so that none of it is skipped."""
    y = _X
    full = np.zeros_like(_X)
    for _ in range(_ITERS):
        full[_MASK] = np.fft.fft(y, axis=0)[_MASK]
        g = np.fft.ifft(full, axis=0)
        mag = np.abs(g)
        y = g * np.maximum(1.0 - 0.01 / np.maximum(mag, 1e-300), 0.0)
    acc = 0.0
    for k in range(_SMALL_CALLS):
        acc += float(np.dot(_V, _V)) * (k & 3)
    return float(np.abs(y).sum()) + acc


def calibrate() -> float:
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
