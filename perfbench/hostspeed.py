"""Host speed reference: a fixed kernel, timed between the ops of a run.

On a shared host the same code runs up to about 1.5x slower for stretches of
seconds to minutes, because other tenants load the physical cores and the
memory system.  A median over one run cannot remove a slow stretch that
covers the whole run.  So the harness times this kernel before every op and
scales the end-to-end op times by ``REFERENCE_S / median(samples)``: the
reported times are what the op would take on a host that runs the kernel in
``REFERENCE_S``.  The kernel uses no realbloch code, so a change to realbloch
moves the scaled times exactly as it moves the wall times.

The kernel mixes the kinds of work the workloads do: a pure-Python loop,
many small scipy calls and dense 40x40 ``eigh``.  It allocates only tiny
arrays, so it leaves the peak memory of the process as the ops make it.
"""

import time

import numpy as np
import scipy.linalg

# About the median kernel time on a 2-vCPU Intel Xeon (Sapphire Rapids,
# 2.1 GHz) with one OpenBLAS thread.  It only sets the scale of the
# reported times; any fixed value would do.
REFERENCE_S = 0.1

_RNG = np.random.default_rng(0)
_HERM = _RNG.standard_normal((40, 40))
_HERM = _HERM + _HERM.T
_SMALL = 0.1j * _RNG.standard_normal((2, 2))


def sample():
    """Wall time of one run of the kernel, in seconds (about 0.1 s)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(500_000):
        acc += i * 0.5
    for _ in range(1500):
        scipy.linalg.expm(_SMALL)
    for _ in range(150):
        np.linalg.eigh(_HERM)
    return time.perf_counter() - t0
