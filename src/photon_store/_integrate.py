"""Half-lattice sampling for the RK4 loops, and RK4 of a scalar linear
equation solved as array operations.

The classical RK4 stages need the driving terms at t, t + dt/2 and
t + dt.  Drivers known only on the grid (a designed drive, the
anticipated input, the mixing angle) are therefore interpolated once
onto the half lattice -- grid points interleaved with cubic midpoints --
and the scalar stepping loops in ``dynamics`` and ``dark_state`` read
them by half-lattice *index* instead of by time, which keeps each loop
free of interpolation and bitwise reproducible.  The loops take them
one block of steps at a time (:func:`half_lattice_block`), so no loop
holds a whole half lattice.

The two bath terms of the drive design (the anticipated input N and the
memory Z) each obey one scalar equation y' = lam y + f, because a
Lorentzian bath acts as one damped pseudomode.  RK4 applied to it is
exactly an affine recurrence, which :func:`_rk4_linear` solves in
blocks instead of stepping it in Python.  Only a path the blocks cannot
settle (not finite, or near enough to overflow for an RK4 stage to) is
stepped by that scalar loop, whose first non-finite y raises.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFiniteState

# cap on width * log(r): r^width <= exp(700) ~ 1e304 stays finite
_EXP_ROOM = 700.0
_FLOAT_MAX = float(np.finfo(float).max)


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


def half_lattice_block(y: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """``half_lattice(y)[2 k0 : 2 k1 + 1]``, bit for bit, from the
    samples around steps ``k0 .. k1`` only.

    The window reaches one sample past each end of the block, and at
    least four samples, so its one-sided midpoints fall outside the
    block or on the ends of ``y``, where ``half_lattice`` has them too.
    """
    n = y.shape[0] - 1
    lo = max(0, min(k0 - 1, n - 3))
    hi = min(n, max(k1 + 1, 3))
    return half_lattice(y[lo : hi + 1])[2 * (k0 - lo) : 2 * (k1 - lo) + 1]


def cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoid integral of uniform samples from 0: scipy's
    ``cumulative_trapezoid(y, dx=dx, initial=0)``, bit for bit."""
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))


def _rk4_linear(
    z: float, dt: float, f_half: np.ndarray, backward: bool = False, *, amplitude: str
) -> np.ndarray:
    """RK4 path of y' = lam y + f from y = 0, with no per-step loop.

    ``z = lam * dt`` and ``f_half`` holds f on the half lattice
    (2n + 1 samples).  One RK4 step of this equation is exactly

        y_{k+1} = r y_k + b_k,   r = R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
        b_k = dt/6 [f_k (1 + z + z^2/2 + z^3/4)
                    + f_{k+1/2} (4 + 2z + z^2/2) + f_{k+1}],

    the r of the forward solvers' RK4 steps (not exp(z)).  The recurrence is
    solved in blocks of L = isqrt(n) steps: one product with the
    lower-triangular Toeplitz matrix r^(i-j) gives every block's path
    from rest, and a scalar carry over the ~sqrt(n) blocks adds the
    start of each block.  Every power is ``exp(k log1p(r - 1))``, with
    r - 1 formed without the leading 1: ``r**k`` loses the digits of r
    near 1 and puts N(0) ~1e-13 off G'(0) at small W.

    With ``backward=True`` the recurrence runs from the last sample to
    t = 0 and ``lam``, ``f_half`` describe the equation in reversed
    time span - t; the path is still returned in grid order.

    A path the blocks cannot settle -- one that is not finite, or that
    comes near enough to overflow for an RK4 stage to -- is stepped by
    the scalar RK4 loop the recurrence stands for.  That loop's raise is
    the contract: :class:`NonFiniteState`, naming ``amplitude``, at the
    first step whose y is not finite.  If the loop gets through, the
    block path is returned.
    """
    n = (f_half.shape[0] - 1) // 2
    if backward:
        f_half = f_half[::-1]
    q = z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    log_r = math.log1p(q)
    zz = z * z
    b = (dt / 6.0) * (
        (1.0 + z + 0.5 * zz + 0.25 * zz * z) * f_half[0:-1:2]
        + (4.0 + 2.0 * z + 0.5 * zz) * f_half[1::2]
        + f_half[2::2]
    )

    width = max(1, math.isqrt(n))
    if log_r > 0.0:
        # a growing solution: keep r^width finite so that the block
        # product overflows only where the path itself does
        width = max(1, min(width, int(_EXP_ROOM / log_r)))
    blocks = -(-n // width)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.exp(np.arange(width + 1) * log_r)
        # toeplitz[j, m] = r^(m - j) for m >= j, else 0
        strip = np.concatenate((np.zeros(width - 1), powers[:width]))
        toeplitz = np.ascontiguousarray(sliding_window_view(strip, width)[::-1])
        padded = np.zeros(blocks * width)
        padded[:n] = b
        local = padded.reshape(blocks, width) @ toeplitz
        carry = np.empty((blocks, 1))
        c = 0.0
        r_width = float(powers[width])
        for i, last in enumerate(local[:, -1].tolist()):
            carry[i, 0] = c
            c = r_width * c + last
        local += carry * powers[1:]

    path = np.empty(n + 1)
    stepped = path[::-1] if backward else path
    stepped[0] = 0.0
    stepped[1:] = local.reshape(-1)[:n]
    # below this size no RK4 stage of the next step can overflow
    size = abs(z)
    grow = 1.0 + size
    limit = _FLOAT_MAX / (6.0 * (grow + size / dt) * grow * grow * grow)
    if not np.max(np.abs(path)) < limit:
        # step the loop the blocks stand for, which stops where it blows up
        lam = z / dt
        h = dt / 2.0
        f = f_half.tolist()
        y = 0.0
        for k in range(n):
            j = 2 * k
            k1 = lam * y + f[j]
            k2 = lam * (y + h * k1) + f[j + 1]
            k3 = lam * (y + h * k2) + f[j + 1]
            k4 = lam * (y + dt * k3) + f[j + 2]
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not math.isfinite(y):
                raise NonFiniteState((n - k - 1 if backward else k + 1) * dt, amplitude)
    return path
