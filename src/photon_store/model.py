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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

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
    pulse_duration : float
        Support length T of the input envelope (us), > 0.
    """

    g_cav: float
    gamma_L: float
    delta1: float
    delta2: float
    big_gamma: float
    bandwidth_w: float
    rho_offset: float
    pulse_duration: float

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
        if not self.pulse_duration > 0.0:
            raise ValueError("pulse_duration must be positive")

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
    outside the support [0, duration].  ``d3`` may be None when a third
    derivative is not available (it is only needed to evaluate the
    time derivative of the drive itself, never for the drive design).
    """

    duration: float
    _value: Callable[[np.ndarray], np.ndarray]
    _d1: Callable[[np.ndarray], np.ndarray]
    _d2: Callable[[np.ndarray], np.ndarray]
    _d3: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None)

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
            raise ValueError("this pulse has no third derivative")
        return self._masked(self._d3, t)

    @property
    def has_d3(self) -> bool:
        return self._d3 is not None

    def norm_squared(self, dt_nominal: float = 1e-5) -> float:
        """Trapezoid estimate of ``integral |phi_in|^2 dt``."""
        grid = TimeGrid.from_span(self.duration, dt_nominal)
        v = self.value(grid.times)
        return float(np.trapezoid(v * v, dx=grid.dt))


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
        return (amp / 4.0) * s ** 3 * (
            4.0 * np.sin(2.0 * q) - 64.0 * np.sin(4.0 * q) - 108.0 * np.sin(6.0 * q)
        )

    return InputPulse(duration=duration, _value=value, _d1=d1, _d2=d2, _d3=d3)


def sampled_packet(times: np.ndarray, values: np.ndarray) -> InputPulse:
    """Build a pulse from samples; renormalizes to unit photon number.

    A not-a-knot cubic spline supplies the envelope and its first two
    derivatives; the third derivative of a cubic spline is piecewise
    constant and is exposed as such (adequate for plotting the drive
    slope, not for convergence studies).  Samples must start at t = 0
    and the envelope must switch on smoothly (zero value at t = 0).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 4:
        raise ValueError("need matching 1-d arrays with at least 4 samples")
    if abs(t[0]) > 1e-12 or np.any(np.diff(t) <= 0.0):
        raise ValueError("times must start at 0 and increase")
    if abs(v[0]) > 1e-9 * max(1.0, float(np.max(np.abs(v)))):
        raise ValueError("envelope must vanish at t = 0")
    norm = math.sqrt(float(np.trapezoid(v * v, t)))
    if norm == 0.0:
        raise ValueError("envelope is identically zero")
    spline = CubicSpline(t, v / norm)
    return InputPulse(
        duration=float(t[-1]),
        _value=spline,
        _d1=spline.derivative(1),
        _d2=spline.derivative(2),
        _d3=spline.derivative(3),
    )


@dataclass(frozen=True)
class SpectralModel:
    """Lorentzian cavity-bath coupling and its time-domain kernels."""

    big_gamma: float
    bandwidth_w: float

    @classmethod
    def from_params(cls, params: PhysicalParams) -> SpectralModel:
        return cls(big_gamma=params.big_gamma, bandwidth_w=params.bandwidth_w)

    def coupling(self, omega) -> np.ndarray:
        """Complex mode coupling kappa(omega)."""
        w = self.bandwidth_w
        return math.sqrt(self.big_gamma / (2.0 * math.pi)) * w / (w - 1j * np.asarray(omega))

    def density(self, omega) -> np.ndarray:
        """Spectral density J(omega) = |kappa(omega)|^2."""
        w = self.bandwidth_w
        om = np.asarray(omega, dtype=float)
        return (self.big_gamma / (2.0 * math.pi)) * w * w / (w * w + om * om)

    def impulse_response(self, t) -> np.ndarray:
        """Causal response h(t) feeding the input field into the cavity."""
        w = self.bandwidth_w
        tt = np.asarray(t, dtype=float)
        decay = np.exp(-w * np.maximum(tt, 0.0))
        out = np.where(tt >= 0.0, w * math.sqrt(self.big_gamma) * decay, 0.0)
        return out if out.ndim else float(out)

    def memory_kernel(self, t) -> np.ndarray:
        """Two-sided kernel f(t) damping the cavity amplitude."""
        w = self.bandwidth_w
        tt = np.abs(np.asarray(t, dtype=float))
        out = 0.5 * w * self.big_gamma * np.exp(-w * tt)
        return out if out.ndim else float(out)


def future_drive(
    pulse: InputPulse,
    model: SpectralModel,
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
    w = model.bandwidth_w
    if phi_half is None:
        phi_half = pulse.value(grid.half_times)
    pump = w * math.sqrt(model.big_gamma) * phi_half
    return _rk4_linear(-w * grid.dt, grid.dt, pump, backward=True)
