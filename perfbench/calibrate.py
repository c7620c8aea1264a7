"""Speed calibration: a fixed piece of work timed next to every measurement.

The CPU speed of a small shared host changes in phases, from seconds to
minutes long; on the 2-core host this benchmark was built on, the same
operation ran up to 1.6 times slower in a slow phase than in a fast one.
So every wall time the benchmark reports is scaled to a reference speed:

    reported = wall * REF_S / kernel

where ``kernel`` is the wall time of ``kernel_s()`` measured right before
and right after the timed work (their mean). The kernel does what
qgame's hot paths do: formats and parses floats as the CSV writers and
reader do, and makes small-array numpy calls as the vector field does.
It never calls qgame, so a change to the package cannot move it.
"""

import time

import numpy as np

REF_S = 0.004  # the kernel's wall time at the reference speed

_VALUES = [i * 0.1234567 for i in range(200)]
_TEXT = ",".join(format(v, ".17g") for v in _VALUES)
_X = np.linspace(0.0, 1.0, 46)
_S = np.ones((5, 36))


def kernel_s() -> float:
    """Wall time of the fixed calibration work, about 4 ms."""
    t0 = time.perf_counter()
    for _ in range(10):
        ",".join(format(v, ".17g") for v in _VALUES)
        [float(v) for v in _TEXT.split(",")]
    for _ in range(150):
        y = _X * 2.0 - 1.0
        (_S * y[:5, None]) @ _X[:36]
        np.concatenate([y, _X])
    return time.perf_counter() - t0


def scale(wall_s: float, kernel: float) -> float:
    """A wall time at the reference speed, given the kernel time around it."""
    return wall_s * REF_S / kernel
