"""Physical model: three-level atom in a cavity leaking into a
Lorentzian bath, and the single-photon input envelope.

Conventions
-----------
Frequencies are angular and carried in MHz (rad/us); times are in us.
The input envelope ``phi_in`` is real, switches on at t = 0 and is
normalized so that the packet carries exactly one photon,
``integral |phi_in|^2 dt = 1``.

The bath is a continuum with Lorentzian coupling

    kappa(w) = sqrt(big_gamma / 2 pi) * W / (W - i w),

so the cavity sees the exponential memory kernel
``f(t) = (W * big_gamma / 2) * exp(-W |t|)`` and responds to the input
field through the causal impulse response
``h(t) = W * sqrt(big_gamma) * exp(-W t)`` for t >= 0 (with h(0) taken
at its full height).  W -> infinity recovers the memoryless
(Markovian) cavity with decay rate ``big_gamma``.

h and f decay at the same rate and ``h = (2 / sqrt(big_gamma)) f`` for
t >= 0, so the bath is one damped pseudomode: with the memory
``Z = integral f(t - tau) G(tau) d tau``, the non-Markovian input-output
relation reads ``phi_out = (2 / sqrt(big_gamma)) Z - phi_in``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._integrate import _rk4_linear
from .grid import TimeGrid


@dataclass(frozen=True)
class PhysicalParams:
    """Static parameters of one storage scenario.

    Parameters
    ----------
    g_cav : float
        Atom-cavity coupling (MHz), > 0.
    gamma_L : float
        Decay rate of the lossy intermediate level (MHz), >= 0.
    delta1, delta2 : float
        Drive and cavity detunings (MHz).  Both zero on resonance.
    big_gamma : float
        Cavity-bath coupling strength (MHz), > 0.
    bandwidth_w : float
        Lorentzian bath bandwidth W (MHz), > 0.
    rho_offset : float
        Initial excited-state population seeding the drive design,
        in [0, 1).
    """

    g_cav: float
    gamma_L: float
    delta1: float
    delta2: float
    big_gamma: float
    bandwidth_w: float
    rho_offset: float

    def __post_init__(self) -> None:
        if not self.g_cav > 0.0:
            raise ValueError("g_cav must be positive")
        if self.gamma_L < 0.0:
            raise ValueError("gamma_L must be non-negative")
        if not self.big_gamma > 0.0:
            raise ValueError("big_gamma must be positive")
        if not self.bandwidth_w > 0.0:
            raise ValueError("bandwidth_w must be positive")
        if not 0.0 <= self.rho_offset < 1.0:
            raise ValueError("rho_offset must lie in [0, 1)")

    @property
    def delta(self) -> float:
        """Two-photon mismatch ``delta2 - delta1``."""
        return self.delta2 - self.delta1

    @property
    def is_resonant(self) -> bool:
        return self.delta1 == 0.0 and self.delta2 == 0.0


@dataclass(frozen=True, eq=False)
class InputPulse:
    """Real input envelope with closed-form or interpolated derivatives.

    ``value`` through ``d3`` accept scalars or arrays and return zero
    outside the support [0, duration].  ``_d3`` may be None for a pulse
    that is only simulated; the drive design needs it, because G'' feeds
    x_tilde' and through it the in-phase drive quadrature.
    ``breakpoints`` holds the times where a piecewise envelope changes
    piece (a spline's knots); None means the envelope is smooth on its
    whole support.
    """

    duration: float
    _value: Callable[[np.ndarray], np.ndarray]
    _d1: Callable[[np.ndarray], np.ndarray]
    _d2: Callable[[np.ndarray], np.ndarray]
    _d3: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None)
    breakpoints: Optional[np.ndarray] = field(default=None)

    def _masked(self, fn: Callable, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.duration * (1.0 + 1e-12))
        out = np.where(inside, fn(np.where(inside, t, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def value(self, t) -> np.ndarray:
        return self._masked(self._value, t)

    def d1(self, t) -> np.ndarray:
        return self._masked(self._d1, t)

    def d2(self, t) -> np.ndarray:
        return self._masked(self._d2, t)

    def d3(self, t) -> np.ndarray:
        if self._d3 is None:
            raise ValueError("the drive design needs phi_in''', which this pulse lacks")
        return self._masked(self._d3, t)


def builtin_packet(duration: float = math.pi) -> InputPulse:
    """Smooth two-hump test packet on [0, T].

    ``phi(t) = 8 sin^2(2 pi t/T) cos^2(pi t/T) / sqrt(7 T)`` -- zero
    value and slope at both ends, exactly unit norm for every T, with
    closed-form derivatives up to third order.
    """
    if not duration > 0.0:
        raise ValueError("duration must be positive")
    s = math.pi / duration
    amp = 8.0 / math.sqrt(7.0 * duration)
    # raises OverflowError here, not at the first d3 call, when the
    # duration is too short for the third derivative's scale
    s3 = s ** 3

    def value(t):
        q = s * t
        return amp * np.sin(2.0 * q) ** 2 * np.cos(q) ** 2

    # cos expansion: phi = (amp/4) [1 + cos(2st)/2 - cos(4st) - cos(6st)/2]
    def d1(t):
        q = s * t
        return (amp / 4.0) * s * (
            -np.sin(2.0 * q) + 4.0 * np.sin(4.0 * q) + 3.0 * np.sin(6.0 * q)
        )

    def d2(t):
        q = s * t
        return (amp / 4.0) * s * s * (
            -2.0 * np.cos(2.0 * q) + 16.0 * np.cos(4.0 * q) + 18.0 * np.cos(6.0 * q)
        )

    def d3(t):
        q = s * t
        return (amp / 4.0) * s3 * (
            4.0 * np.sin(2.0 * q) - 64.0 * np.sin(4.0 * q) - 108.0 * np.sin(6.0 * q)
        )

    return InputPulse(duration=duration, _value=value, _d1=d1, _d2=d2, _d3=d3)


def _solve_tridiagonal(dl: list, d: list, du: list, b: list) -> list:
    """Solve a tridiagonal system in place, step for step as LAPACK's
    ``dgtsv`` with one right-hand side: Gaussian elimination with
    partial pivoting (the row interchange when ``|dl| > |d|``), then
    back substitution.  ``dl``, ``d``, ``du`` are the sub-, main and
    super-diagonal; a zero pivot raises ValueError."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise ValueError("the spline's tridiagonal system is singular")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise ValueError("the spline's tridiagonal system is singular")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients ``c[k, i]`` of ``(t - x[i])**(3 - k)`` of the
    not-a-knot cubic spline through at least 4 points (de Boor, *A
    Practical Guide to Splines*, ch. IV), bit for bit those of
    ``scipy.interpolate.CubicSpline``: the same rows and right-hand
    side, the same elimination and the same Hermite step."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # the slopes s solve dl[i-1] s[i-1] + d[i] s[i] + du[i] s[i+1] = b[i]
    d = np.empty_like(x)
    d[0], d[-1] = dx[1], dx[-2]
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du = np.concatenate(([x[2] - x[0]], dx[:-1]))
    dl = np.concatenate((dx[1:], [x[-1] - x[-3]]))
    b = np.empty_like(x)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    h = x[2] - x[0]
    b[0] = ((dx[0] + 2 * h) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / h
    h = x[-1] - x[-3]
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * h + dx[-1]) * dx[-2] * slope[-1]) / h
    s = np.array(_solve_tridiagonal(dl.tolist(), d.tolist(), du.tolist(), b.tolist()))
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _piecewise_cubic(x: np.ndarray, c: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of the piecewise polynomial with breakpoints ``x`` and
    coefficients ``c`` (highest power first), extrapolating the end
    pieces.  It sums as ``scipy.interpolate.PPoly`` does -- constant
    term first, then rising powers of ``t - x[i]`` -- so its values
    match scipy's bit for bit."""
    inner, start = x[1:-1], x[:-1]
    rows = list(c[::-1])

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        q = t.ravel()
        # the piece of each time is the number of inner knots at or below it
        piece = np.searchsorted(inner, q, side="right")
        s = q - start[piece]
        out = 0.0 + rows[0][piece]
        power = s
        for k in range(1, len(rows)):
            if k > 1:
                power = power * s
            out += rows[k][piece] * power
        return out.reshape(t.shape)

    return evaluate


# the coefficients of a cubic's derivative k are c[:-k] times the
# falling factorials p! / (p - k)! of the powers p = 3, 2, 1
_FALLING = {
    1: np.array([[3.0], [2.0], [1.0]]),
    2: np.array([[6.0], [2.0]]),
    3: np.array([[6.0]]),
}


def sampled_packet(times: np.ndarray, values: np.ndarray) -> InputPulse:
    """Build a pulse from samples; renormalizes to unit photon number.

    A not-a-knot cubic spline, identical in every bit to scipy's
    ``CubicSpline``, supplies the envelope and its first two
    derivatives; the third derivative of a cubic spline is piecewise
    constant and is exposed as such.  It enters the drive through G'',
    so a designed drive is only as accurate as that fit, which converges
    at first order in the sample spacing.  Samples must be finite and
    start at t = 0, the envelope must switch on smoothly (zero value at
    t = 0), and the spline through them must be finite.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 4:
        raise ValueError("need matching 1-d arrays with at least 4 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("samples must be finite")
    if abs(t[0]) > 1e-12 or np.any(np.diff(t) <= 0.0):
        raise ValueError("times must start at 0 and increase")
    if abs(v[0]) > 1e-9 * max(1.0, float(np.max(np.abs(v)))):
        raise ValueError("envelope must vanish at t = 0")
    norm = math.sqrt(float(np.trapezoid(v * v, t)))
    if norm == 0.0:
        raise ValueError("envelope is identically zero")
    if not math.isfinite(norm):
        raise ValueError(f"envelope norm is {norm}; rescale the samples")
    c = _not_a_knot(t, v / norm)
    if not np.all(np.isfinite(c)):
        raise ValueError("the cubic spline through the samples is not finite")
    return InputPulse(
        duration=float(t[-1]),
        _value=_piecewise_cubic(t, c),
        _d1=_piecewise_cubic(t, c[:-1] * _FALLING[1]),
        _d2=_piecewise_cubic(t, c[:-2] * _FALLING[2]),
        _d3=_piecewise_cubic(t, c[:-3] * _FALLING[3]),
        breakpoints=t,
    )


def future_drive(
    pulse: InputPulse,
    params: PhysicalParams,
    grid: TimeGrid,
    *,
    phi_half: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Anticipated input seen by the cavity at each grid time.

    Solves ``dN/dt = W N - W sqrt(big_gamma) phi_in`` backward from
    N(span) = 0, i.e. ``N(t) = integral_t^span h(tau - t) phi_in(tau)
    d tau``: the part of the photon still to arrive, weighted by the
    bath response.  The RK4 path is solved as the exact recurrence of
    :func:`photon_store._integrate._rk4_linear` on the reversed half
    lattice.  ``phi_half`` may pass ``pulse.value(grid.half_times)``
    when the caller already has it.  The grid must cover the pulse
    support.
    """
    grid.require_cover(pulse.duration)
    w = params.bandwidth_w
    if phi_half is None:
        phi_half = pulse.value(grid.half_times)
    pump = w * math.sqrt(params.big_gamma) * phi_half
    return _rk4_linear(-w * grid.dt, grid.dt, pump, backward=True, amplitude="N")
