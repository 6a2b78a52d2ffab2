"""Host-speed probe: a fixed slice of reference work timed before each operation.

On a shared host the same code runs up to 1.5-2x slower or faster for
seconds to minutes at a time, as other tenants load the machine. That
drift is as slow as a benchmark run or slower, so a median over the run
keeps it. The probe measures it instead: ``probe()`` times a fixed slice
of work that does not touch supconc, with the instruction mix of the
workloads (interpreter and small-object work, 3x3 and 32x32 SVDs, a
100x100 operator product). The benchmark probes before every operation
and scales the operation's seconds by ``REFERENCE_SECONDS / probe``:
the time it would take on the host state in which one slice takes
``REFERENCE_SECONDS``. Nothing in supconc runs inside the slice, it
allocates almost nothing, and an untimed slice before it takes up what
the previous operation left in the caches, so a change to supconc moves
a scaled time by about the factor it moves the raw one.
"""

from __future__ import annotations

import time

import numpy as np

# About the median of back-to-back probes on the host the README baseline
# was measured on (2-core Intel Xeon, numpy 2.4.6, OpenBLAS at one thread).
# It only sets the scale. Probes between operations read ~0.6 ms there, so
# scaled rates read ~20 % above raw ones.
REFERENCE_SECONDS = 0.5e-3
REPS = 12

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3))
_MID = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_FACTOR = _rng.standard_normal((10, 10)) + 1j * _rng.standard_normal((10, 10))
_KRON = np.kron(_FACTOR, _FACTOR)      # a 100x100 operator, allocated once
_BLOCK = _rng.standard_normal((100, 4)) + 1j * _rng.standard_normal((100, 4))
_OUT = np.empty((100, 4), dtype=complex)


class _Item:
    __slots__ = ("index", "value")

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value


def _slice() -> float:
    acc = 0.0
    for i in range(REPS):
        acc += float(np.linalg.svd(_SMALL + i, compute_uv=False)[0])
        items = [_Item(j, acc) for j in range(24)]
        acc += sum(item.value * 1e-9 for item in items)
        acc += len(",".join(f"{item.index}:{item.value:.6g}" for item in items[:8]))
    acc += float(np.linalg.svd(_MID, compute_uv=False)[0])
    np.matmul(_KRON, _BLOCK, out=_OUT)
    return acc + abs(complex(_OUT[0, 0]))


def probe() -> float:
    """Seconds one slice of reference work takes now, after an untimed slice.

    The untimed slice refills the caches the previous operation evicted
    and wakes a core that sat idle, so the timed one reads the host's
    speed rather than what ran before it.
    """
    _slice()
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0
