"""Half-lattice sampling of grid-only drivers for the RK4 loops.

The classical RK4 stages need the driving terms at t, t + dt/2 and
t + dt.  Drivers known only on the grid (a designed drive, the
anticipated input, the mixing angle) are therefore interpolated once
onto the half lattice -- grid points interleaved with cubic midpoints --
and the scalar stepping loops in ``dynamics`` and ``dark_state`` read
them by half-lattice *index* instead of by time, which keeps each loop
free of interpolation and bitwise reproducible.
"""

from __future__ import annotations

import numpy as np


def cubic_midpoints(y: np.ndarray) -> np.ndarray:
    """Midpoints of uniformly sampled data, 4th-order accurate.

    Interior midpoints use the centered 4-point stencil
    (-1, 9, 9, -1)/16; the two boundary midpoints use the one-sided
    cubic through the first (last) four samples.
    """
    y = np.asarray(y)
    n = y.shape[0] - 1
    if n < 1:
        raise ValueError("need at least two samples")
    if n == 1:
        return (y[:-1] + y[1:]) / 2.0
    if n == 2:
        return np.stack(
            [
                (3.0 * y[0] + 6.0 * y[1] - y[2]) / 8.0,
                (-y[0] + 6.0 * y[1] + 3.0 * y[2]) / 8.0,
            ]
        )
    m = np.empty((n,) + y.shape[1:], dtype=y.dtype)
    m[1:-1] = (-y[:-3] + 9.0 * y[1:-2] + 9.0 * y[2:-1] - y[3:]) / 16.0
    m[0] = (5.0 * y[0] + 15.0 * y[1] - 5.0 * y[2] + y[3]) / 16.0
    m[-1] = (y[-4] - 5.0 * y[-3] + 15.0 * y[-2] + 5.0 * y[-1]) / 16.0
    return m


def half_lattice(y: np.ndarray) -> np.ndarray:
    """Interleave samples with their cubic midpoints (length 2n + 1)."""
    y = np.asarray(y)
    n = y.shape[0] - 1
    out = np.empty((2 * n + 1,) + y.shape[1:], dtype=y.dtype)
    out[0::2] = y
    out[1::2] = cubic_midpoints(y)
    return out
