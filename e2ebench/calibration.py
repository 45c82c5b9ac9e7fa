"""A fixed calibration kernel, and the reference speed it defines.

The cores of a small shared machine change speed with other tenants'
load, up to twofold, in spells from seconds to many minutes, so a run
that fell in a slow spell read slow however its passes were chosen: the
fastest pass spread 24-30% across ten runs.  The benchmark therefore
runs :func:`calibrate` before and after every piece of work it times and
reports that work at the kernel's reference speed: its wall time is
multiplied by ``CALIBRATION_REF_S`` over the mean of the kernel times
around (and, for a long pass, inside) it.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["CALIBRATION_REF_S", "calibrate", "reference_scale"]

#: About the wall time of :func:`calibrate` on an undisturbed core of the
#: machine the bounds were set on (2-vCPU "Intel Xeon Processor"); each
#: piece of work is reported as if the kernel runs around it had taken
#: this long.
CALIBRATION_REF_S = 0.05

_RNG = np.random.default_rng(0)
_WINDOWS = _RNG.standard_normal((64, 540, 4)).astype(np.float32)
_SQUARE = _RNG.standard_normal((128, 128))


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter and NumPy work.

    The kernel shares the slowdowns of the work around it: over 175
    serve-monitored passes in one process, pass wall time and the mean
    of the kernel times before and after it correlated at 0.82, and in
    blocks of ten passes the median pass spread 14% uncalibrated and 7%
    calibrated (scaling a whole block by its median kernel time left
    11%).  It mixes what the workloads do: a dict-and-integer loop,
    batched covariances and a matmul.
    """
    tic = time.perf_counter()
    table, acc = {}, 0
    for i in range(60_000):
        acc += i * i
        table[i & 511] = acc
    for _ in range(20):
        centred = _WINDOWS - _WINDOWS.mean(axis=1, keepdims=True)
        np.einsum("nti,ntj->nij", centred, centred)
        _SQUARE @ _SQUARE
    return time.perf_counter() - tic


def reference_scale(kernel_s) -> float:
    """Scale to reference speed for work timed among these kernel runs."""
    return CALIBRATION_REF_S * len(kernel_s) / sum(kernel_s)
