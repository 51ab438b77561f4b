"""Inverse design of the storage drive.

Given the input envelope, the chain runs backward from "the photon is
perfectly absorbed" to the classical drive that makes it so: the
cavity amplitude G follows from the input-output relation, the
intermediate-level amplitude x_tilde from the cavity equation of
motion, the excited-state population rho_ee from probability flow, and
finally the drive quadratures from the intermediate-level equation.
Perfect absorption fixes the bath memory in closed form as well: with
phi_out = (2 / sqrt(big_gamma)) Z - phi_in held at zero, Z is
(sqrt(big_gamma) / 2) * phi_in, in either design.  All series live on
a shared uniform grid, and every running integral and the anticipated
input's first-order equation are stepped by RK4, which on an integral
is Simpson's rule on the half lattice: the design converges at fourth
order.  big_gamma's pulse area alone uses Gauss-Legendre panels
(:func:`coupling_from_bandwidth`).

The Markovian (broadband) design is the W -> infinity limit of the same
chain: the anticipated input N becomes sqrt(big_gamma) * phi_in and the
memory Z becomes (big_gamma / 2) * G.  Each design runs in two stages:
:func:`sample_design_pulse` evaluates the envelope, which no parameter
changes, and :func:`memory_chain` or :func:`markovian_chain` computes
everything up to rho_ee and the in-phase drive quadrature p, which
depend on W and big_gamma but on neither detuning.  The detunings enter
a :class:`DesignResult` only through the quadratures and the drive it
forms when they are first read, so ``dataclasses.replace(design,
params=...)`` is the design at other detunings, sharing every
detuning-free series.  A sweep samples the pulse once and runs the
chain once per W.  Its points rotate nothing: the drive is
``(p + i q) e^(-i φ)``, so a point reads max|Ω| from hypot(p, q), which
does not depend on delta1 and on resonance is |p| (:func:`_polar_peak`),
and θ straight from p, q and φ (:func:`_polar_phase`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._integrate import refined_peak, running_integral
from .errors import ConfigError, DegeneratePulse, InfeasibleDesign
from .grid import TimeGrid
from .model import InputPulse, PhysicalParams, future_drive

_RHO_FLOOR = 1e-12
# Gauss-Legendre rule of each panel of big_gamma's weighted pulse area,
# the equal panels of a smooth envelope, and the 1/W steps resolving e^(-W tau)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_SMOOTH_PANELS = 64
_DECAY_PANELS = 40


def coupling_from_bandwidth(pulse: InputPulse, bandwidth_w: float) -> float:
    """Cavity-bath coupling that lets the design start from rest.

    With the cavity, bath and atom initially in equilibrium the drive
    can switch on continuously only if

        big_gamma = phi_in''(0) / (W^2 * integral_0^T e^(-W tau) phi_in(tau) d tau).

    The integral is 8-node Gauss-Legendre on panels cut at the pulse's
    breakpoints (64 equal panels for a smooth envelope) and at steps of
    1/W over the first min(T, 40/W), so its cost is set by the pulse,
    not by its duration.  Raises :class:`DegeneratePulse` unless
    ``phi_in''(0) > 0`` (at zero the envelope switches on too flatly to
    pin the coupling, below zero the coupling would be negative) and the
    weighted area is positive, and :class:`ConfigError` when phi_in''(0)
    over W^2 times that area (which underflows for a tiny W) is not
    finite.
    """
    if not bandwidth_w > 0.0:
        raise ValueError("bandwidth_w must be positive")
    curvature = float(pulse.d2(0.0))
    if not curvature > 0.0:
        raise DegeneratePulse(
            f"phi_in''(0) = {curvature:.6g} cannot pin a positive coupling"
        )
    edges = pulse.breakpoints
    if edges is None:
        edges = np.linspace(0.0, pulse.duration, _SMOOTH_PANELS + 1)
    decay = np.arange(1, _DECAY_PANELS + 1) / bandwidth_w
    # np.union1d's values, without the numpy.ma import its np.unique makes
    edges = np.sort(np.concatenate((edges, decay[decay < pulse.duration])))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    half = 0.5 * np.diff(edges)[:, None]
    tau = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * _GL_NODES
    weighted = half * _GL_WEIGHTS * np.exp(-bandwidth_w * tau) * pulse.value(tau)
    area = float(np.sum(weighted))
    if not area > 0.0:
        raise DegeneratePulse("weighted pulse area is not positive")
    denom = bandwidth_w ** 2 * area
    big_gamma = curvature / denom if denom > 0.0 else math.inf
    if not math.isfinite(big_gamma):
        raise ConfigError.single(
            "value", 0, f"big_gamma = phi_in''(0) / (W^2 * weighted pulse area) = "
            f"{curvature:.6g} / {denom:.3g} is not finite at bandwidth_w = "
            f"{bandwidth_w:g}; raise bandwidth_w or lower the pulse's phi_in''(0)"
        )
    return big_gamma


def excited_population(
    x_tilde: np.ndarray,
    g_series: np.ndarray,
    params: PhysicalParams,
    grid: TimeGrid,
) -> np.ndarray:
    """Excited-state population consistent with probability flow.

    ``rho_ee(t) = rho_offset - x_tilde^2 + integral_0^t (2 g_cav
    x_tilde G - 2 gamma_L x_tilde^2) d tau``.  Raises
    :class:`InfeasibleDesign` if the population falls below the
    positivity floor anywhere on the grid, since the drive divides by
    ``sqrt(rho_ee)``, and names the least seed that would keep it above:
    ``rho_ee - rho_offset`` does not depend on ``rho_offset``, and the
    error carries it as ``least_seed``.  A NaN population counts as
    below the floor, and no seed lifts it.
    """
    flow = 2.0 * params.g_cav * x_tilde * g_series - 2.0 * params.gamma_L * x_tilde ** 2
    acc = running_integral(flow, grid.dt)
    rho = params.rho_offset - x_tilde ** 2 + acc
    below = ~(rho >= _RHO_FLOOR)
    if below.any():
        k = int(np.argmax(below))
        least = float(_RHO_FLOOR - np.min(acc - x_tilde ** 2))
        seed = math.nan
        if not math.isfinite(least):
            fix = "the population is not finite"
        elif (seed := _round_up(least)) < 1.0:
            fix = f"the least rho_offset that stores this pulse is {seed:.3g}"
        else:
            fix = (
                f"no rho_offset < 1 stores this pulse at big_gamma = {params.big_gamma:.6g}; "
                "big_gamma can be set explicitly"
            )
        error = InfeasibleDesign(
            f"rho_ee reaches {rho[k]:.3e} at t = {grid.times[k]:.6g} us; {fix}"
        )
        error.least_seed = seed
        raise error
    return rho


def _round_up(value: float) -> float:
    """``value > 0`` rounded up to three significant digits, so that the
    printed seed is never below the least one."""
    shown = float(f"{value:.3g}")
    if shown < value:
        # add one in the third digit, then round to the nearest
        shown = float(f"{value + 10.0 ** (math.floor(math.log10(value)) - 2):.3g}")
    return shown


@dataclass(frozen=True, eq=False)
class DesignSamples:
    """The envelope on a design grid: its value on the half lattice,
    which the anticipated input is stepped on, and its first three
    derivatives on the grid."""

    pulse: InputPulse
    grid: TimeGrid
    phi_half: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray


def sample_design_pulse(pulse: InputPulse, grid: TimeGrid) -> DesignSamples:
    """Every envelope sample either design takes, for any W and any
    detunings.  The grid must cover the pulse support, and the pulse
    needs its third derivative (:func:`memory_chain` takes it for G'')."""
    grid.require_cover(pulse.duration)
    th = grid.half_times
    # half_times[::2] is bitwise grid.times
    t = th[::2]
    return DesignSamples(pulse, grid, pulse.value(th), pulse.d1(t), pulse.d2(t), pulse.d3(t))


@dataclass(frozen=True, eq=False)
class DesignResult:
    """Drive design on a grid at the detunings of ``params``, with every
    intermediate series.

    Everything from G to ``p``, the drive quadrature in phase with the
    atomic frame, and ``winding``, the running integral of
    ``x_tilde^2 / rho_ee``, depends on W and big_gamma but on neither
    detuning.  The detunings enter through ``q`` and ``frame_phase``,
    and ``alpha`` and ``beta``, the real drive quadratures in the frame
    of the atomic transition, are ``(p + i q)`` turned by
    ``-frame_phase``; each is formed when first read.  ``omega_modulus``
    and the unwrapped ``omega_phase`` describe the same complex drive
    ``alpha + i beta``.  The Markovian design fills ``n_drive`` and
    ``z_mem`` with their W -> infinity limits.
    """

    params: PhysicalParams
    grid: TimeGrid
    g: np.ndarray
    g_dot: np.ndarray
    x_tilde: np.ndarray
    x_tilde_dot: np.ndarray
    n_drive: np.ndarray
    z_mem: np.ndarray
    rho_ee: np.ndarray
    root_rho: np.ndarray
    p: np.ndarray
    winding: np.ndarray

    @cached_property
    def q(self) -> np.ndarray:
        """delta2 x_tilde / sqrt(rho_ee), the drive quadrature that Δ₂
        adds out of phase with ``p``; delta1 does not enter it."""
        return self.params.delta2 * self.x_tilde / self.root_rho

    @cached_property
    def frame_phase(self) -> np.ndarray:
        """φ = -(delta2 - delta1) t + delta2 * winding, the angle by which
        the detunings turn the drive: ``alpha + i beta = (p + i q) e^(-i φ)``."""
        return -self.params.delta * self.grid.times + self.params.delta2 * self.winding

    @cached_property
    def _quadratures(self) -> tuple[np.ndarray, np.ndarray]:
        return _rotate(self.p, self.q, self.frame_phase)

    @property
    def alpha(self) -> np.ndarray:
        return self._quadratures[0]

    @property
    def beta(self) -> np.ndarray:
        return self._quadratures[1]

    @cached_property
    def omega_modulus(self) -> np.ndarray:
        return np.hypot(self.alpha, self.beta)

    @property
    def omega_phase(self) -> np.ndarray:
        """Unwrapped phase of ``alpha + i beta``, computed when read."""
        return _unwrap(np.arctan2(self.beta, self.alpha))

    @property
    def drive(self) -> np.ndarray:
        """Complex drive envelope entering the equations of motion."""
        return self.alpha + 1j * self.beta


def _rotate(
    p: np.ndarray, q: np.ndarray, phase: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta of ``(p + i q) e^(-i phase)``: the one rotation of
    a design, which a sweep point never takes."""
    cos_a, sin_a = np.cos(phase), np.sin(phase)
    return p * cos_a + q * sin_a, q * cos_a - p * sin_a


def _close_chain(
    params: PhysicalParams,
    grid: TimeGrid,
    g: np.ndarray,
    g_dot: np.ndarray,
    x_tilde: np.ndarray,
    x_tilde_dot: np.ndarray,
    n_drive: np.ndarray,
    z_mem: np.ndarray,
) -> DesignResult:
    """rho_ee and the detuning-free drive terms: the part of the tail
    that both designs share."""
    rho = excited_population(x_tilde, g, params, grid)
    root = np.sqrt(rho)
    return DesignResult(
        params=params,
        grid=grid,
        g=g,
        g_dot=g_dot,
        x_tilde=x_tilde,
        x_tilde_dot=x_tilde_dot,
        n_drive=n_drive,
        z_mem=z_mem,
        rho_ee=rho,
        root_rho=root,
        p=(x_tilde_dot - params.g_cav * g + params.gamma_L * x_tilde) / root,
        winding=running_integral(x_tilde ** 2 / rho, grid.dt),
    )


def memory_chain(samples: DesignSamples, params: PhysicalParams) -> DesignResult:
    """Design with the Lorentzian bath at ``params``.

    Inverting the input-output relation for the Lorentzian bath gives
    the perfect-absorption cavity amplitude
    ``G = (phi_in' + W phi_in) / (W sqrt(big_gamma))``, whose
    derivatives follow by differentiating through (``G''`` from the
    envelope's third derivative).  The cavity equation then gives
    ``x_tilde = (-G' + N - Z) / g_cav``, where N is the anticipated
    input (:func:`photon_store.model.future_drive`) and Z the bath
    memory ``integral_0^t f(t - tau) G(tau) d tau``.  Z is not
    stepped: the output field is ``phi_out = (2 / sqrt(big_gamma)) Z -
    phi_in``, so perfect absorption, phi_out = 0, fixes it in closed
    form, ``Z = (sqrt(big_gamma) / 2) phi_in``, and Z' likewise.  This
    is the path of ``Z' = -W Z + (W big_gamma / 2) G`` from Z(0) = 0
    that the exponential kernel gives, with no step error.
    """
    grid = samples.grid
    w = params.bandwidth_w
    root_gamma = math.sqrt(params.big_gamma)
    v0, v1, v2 = samples.phi_half[::2], samples.d1, samples.d2
    scale = 1.0 / (w * root_gamma)
    g = scale * (v1 + w * v0)
    g_dot = scale * (v2 + w * v1)
    g_ddot = scale * (samples.d3 + w * v2)

    n_drive = future_drive(samples.pulse, params, grid, phi_half=samples.phi_half)
    z_mem = 0.5 * root_gamma * v0
    n_dot = w * n_drive - w * root_gamma * v0
    z_dot = 0.5 * root_gamma * v1
    x_tilde = (-g_dot + n_drive - z_mem) / params.g_cav
    x_tilde_dot = (-g_ddot + n_dot - z_dot) / params.g_cav
    # the tail peaks with temporaries of its own, so drop the series it
    # does not take first
    del g_ddot, n_dot, z_dot
    return _close_chain(params, grid, g, g_dot, x_tilde, x_tilde_dot, n_drive, z_mem)


def _markovian_cavity(
    samples: DesignSamples, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """G and x_tilde of the Markovian design."""
    root_gamma = math.sqrt(params.big_gamma)
    v0, v1 = samples.phi_half[::2], samples.d1
    g = v0 / root_gamma
    x_tilde = (-v1 / root_gamma + 0.5 * root_gamma * v0) / params.g_cav
    return g, x_tilde


def markovian_chain(samples: DesignSamples, params: PhysicalParams) -> DesignResult:
    """Same chain with the bath memory collapsed to a rate.

    Here ``G = phi_in / sqrt(big_gamma)`` and the cavity equation
    carries the decay rate big_gamma / 2 instead of the memory and
    anticipation integrals; everything downstream is unchanged.  The
    design holds the W -> infinity limit ``n_drive = sqrt(big_gamma)
    phi_in`` and the memory of perfect absorption, ``z_mem =
    (sqrt(big_gamma) / 2) phi_in`` as in :func:`memory_chain`, which
    keep the cavity equation ``g_cav x_tilde = -G' + N - Z`` of the
    memory design.
    """
    root_gamma = math.sqrt(params.big_gamma)
    v0, v1, v2 = samples.phi_half[::2], samples.d1, samples.d2
    g, x_tilde = _markovian_cavity(samples, params)
    g_dot = v1 / root_gamma
    x_tilde_dot = (-v2 / root_gamma + 0.5 * root_gamma * v1) / params.g_cav
    n_drive = root_gamma * v0
    z_mem = 0.5 * root_gamma * v0
    return _close_chain(
        params, samples.grid, g, g_dot, x_tilde, x_tilde_dot, n_drive, z_mem
    )


def markovian_population(samples: DesignSamples, params: PhysicalParams) -> np.ndarray:
    """rho_ee of the Markovian design alone, without its drive."""
    g, x_tilde = _markovian_cavity(samples, params)
    return excited_population(x_tilde, g, params, samples.grid)


# hypot(p, q) is sqrt(p^2 + q^2) to a few ulps, so no sample below this
# fraction of the largest normal p^2 + q^2 holds the largest hypot
_PEAK_BAND = 1.0 - 1e-13
_TINY = float(np.finfo(float).tiny)


def _polar_peak(design: DesignResult) -> float:
    """max|Ω| of a design, read from ``alpha + i beta = (p + i q)
    e^(-i φ)`` with no cos, sin or rotation.

    It is ``refined_peak(hypot(p, q))`` bit for bit and never reads
    delta1.  On resonance (delta2 = 0) q is ±0 and hypot(p, ±0) = |p|,
    so it is ``refined_peak(|p|)``, and q is not formed.  Otherwise
    hypot is taken only where p^2 + q^2 is within the band of its
    maximum, and at the grid maximum's neighbours, or everywhere when
    that maximum is not finite or not normal.  It differs from
    ``omega_modulus``'s by the rotation's rounding, about 1e-16 relative.
    """
    if design.params.delta2 == 0.0:
        return refined_peak(np.abs(design.p))
    p, q = design.p, design.q
    power = p * p + q * q
    top = float(np.max(power))
    lo, hi = 0, p.shape[0]
    if _TINY <= top < math.inf:
        near = np.flatnonzero(power >= _PEAK_BAND * top)
        k = int(near[np.argmax(np.hypot(p[near], q[near]))])
        # the grid maximum and its neighbours are all refined_peak reads
        lo, hi = max(k - 1, 0), k + 2
    return refined_peak(np.hypot(p[lo:hi], q[lo:hi]))


def _polar_phase(design: DesignResult) -> np.ndarray:
    """θ = unwrap(arctan2(q, p) - φ), the drive phase with no rotation;
    it differs from ``omega_phase`` by the rotation's rounding."""
    return _unwrap(np.arctan2(design.q, design.p) - design.frame_phase)


def _unwrap(phase: np.ndarray) -> np.ndarray:
    """``np.unwrap(phase)`` of a 1-D float series, bit for bit.

    numpy adds to each sample the running sum of its corrections
    ``mod(d + pi, 2 pi) - pi - d`` over the steps d before it, where a
    correction is zeroed unless |d| >= pi (or d is NaN).  This evaluates
    the correction at those steps alone; adding +0 leaves a running sum
    as it is, so the sum over them alone is numpy's at every sample, and
    ``np.repeat`` spreads it to the samples between.
    """
    step = np.diff(phase)
    jumps = np.flatnonzero(~(np.abs(step) < math.pi))
    d = step[jumps]
    wrapped = np.mod(d + math.pi, 2.0 * math.pi) - math.pi
    # a step of exactly +pi keeps its sign, as in numpy
    wrapped[(wrapped == -math.pi) & (d > 0)] = math.pi
    running = np.cumsum(np.concatenate(([0.0], wrapped - d)))
    spans = np.diff(jumps, prepend=0, append=step.size)
    out = phase.copy()
    out[1:] += np.repeat(running, spans)
    return out


def design_drive(
    pulse: InputPulse, params: PhysicalParams, grid: TimeGrid
) -> DesignResult:
    """Drive that stores the input packet, for any pair of detunings:
    :func:`memory_chain` of the pulse's samples."""
    return memory_chain(sample_design_pulse(pulse, grid), params)


def design_drive_markovian(
    pulse: InputPulse, params: PhysicalParams, grid: TimeGrid
) -> DesignResult:
    """The Markovian design (:func:`markovian_chain`) for any pair of
    detunings."""
    return markovian_chain(sample_design_pulse(pulse, grid), params)
