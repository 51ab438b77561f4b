"""Inverse design of the storage drive.

Given the input envelope, the chain runs backward from "the photon is
perfectly absorbed" to the classical drive that makes it so: the
cavity amplitude G follows from the input-output relation, the
intermediate-level amplitude x_tilde from the cavity equation of
motion, the excited-state population rho_ee from probability flow, and
finally the drive quadratures from the intermediate-level equation.
All series live on a shared uniform grid; explicit integrals use the
trapezoid rule and auxiliary first-order equations use RK4.

The Markovian (broadband) design is the W -> infinity limit of the same
chain: the anticipated input N becomes sqrt(big_gamma) * phi_in and the
memory Z becomes (big_gamma / 2) * G.  Both designs return a
:class:`DesignResult` through the same tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import DegeneratePulse, InfeasibleDesign, NonFiniteState
from .grid import TimeGrid
from .model import InputPulse, PhysicalParams, SpectralModel, future_drive

_RHO_FLOOR = 1e-12


def coupling_from_bandwidth(
    pulse: InputPulse, bandwidth_w: float, dt_nominal: float = 1e-5
) -> float:
    """Cavity-bath coupling that lets the design start from rest.

    With the cavity, bath and atom initially in equilibrium the drive
    can switch on continuously only if

        big_gamma = phi_in''(0) / (W^2 * integral_0^T e^(-W tau) phi_in(tau) d tau).

    Raises :class:`DegeneratePulse` when ``phi_in''(0) = 0`` (the
    envelope switches on too flatly to pin the coupling).
    """
    if not bandwidth_w > 0.0:
        raise ValueError("bandwidth_w must be positive")
    curvature = float(pulse.d2(0.0))
    if curvature == 0.0:
        raise DegeneratePulse("phi_in''(0) vanishes; coupling is undetermined")
    grid = TimeGrid.from_span(pulse.duration, dt_nominal)
    t = grid.times
    weighted = np.exp(-bandwidth_w * t) * pulse.value(t)
    denom = bandwidth_w ** 2 * float(np.trapezoid(weighted, dx=grid.dt))
    if denom <= 0.0:
        raise DegeneratePulse("weighted pulse area is not positive")
    return curvature / denom


@dataclass(frozen=True, eq=False)
class CavitySeries:
    """Perfect-absorption cavity amplitude and its two derivatives."""

    g: np.ndarray
    g_dot: np.ndarray
    g_ddot: np.ndarray


def cavity_amplitude(
    pulse: InputPulse, model: SpectralModel, grid: TimeGrid
) -> CavitySeries:
    """Cavity amplitude enforcing zero reflection of the input packet.

    Inverting the input-output relation for the Lorentzian bath gives
    ``G = (phi_in' + W phi_in) / (W sqrt(big_gamma))``;  derivatives
    follow by differentiating through.  When the pulse lacks a third
    derivative, ``g_ddot`` falls back to a finite difference of
    ``g_dot``.
    """
    grid.require_cover(pulse.duration)
    w = model.bandwidth_w
    scale = 1.0 / (w * math.sqrt(model.big_gamma))
    t = grid.times
    v0, v1, v2 = pulse.value(t), pulse.d1(t), pulse.d2(t)
    g = scale * (v1 + w * v0)
    g_dot = scale * (v2 + w * v1)
    if pulse.has_d3:
        g_ddot = scale * (pulse.d3(t) + w * v2)
    else:
        g_ddot = np.gradient(g_dot, grid.dt)
    return CavitySeries(g=g, g_dot=g_dot, g_ddot=g_ddot)


def _memory_series(g_half: np.ndarray, model: SpectralModel, grid: TimeGrid) -> np.ndarray:
    """Memory accumulator Z(t) = integral_0^t f(t - tau) G(tau) d tau.

    The exponential kernel makes Z the solution of
    ``Z' = -W Z + (W big_gamma / 2) G`` from Z(0) = 0.
    """
    w = model.bandwidth_w
    feed = (0.5 * w * model.big_gamma * g_half).tolist()

    # scalar RK4; a one-dimensional real state does not justify the
    # vector integrator's per-stage array traffic
    n = grid.n_steps
    dt = grid.dt
    h = dt / 2.0
    sixth = dt / 6.0
    out = np.empty(n + 1)
    z = 0.0
    out[0] = z
    for k in range(n):
        j = 2 * k
        k1 = -w * z + feed[j]
        k2 = -w * (z + h * k1) + feed[j + 1]
        k3 = -w * (z + h * k2) + feed[j + 1]
        k4 = -w * (z + dt * k3) + feed[j + 2]
        z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if z - z != 0.0:
            raise NonFiniteState((k + 1) * dt)
        out[k + 1] = z
    return out


@dataclass(frozen=True, eq=False)
class IntracavitySeries:
    """Intermediate-level amplitude with the drive-free bath terms, and
    the cavity series it was derived from."""

    x_tilde: np.ndarray
    x_tilde_dot: np.ndarray
    n_drive: np.ndarray
    z_mem: np.ndarray
    cavity: CavitySeries


def intracavity_amplitude(
    pulse: InputPulse, params: PhysicalParams, grid: TimeGrid
) -> IntracavitySeries:
    """Intermediate-level amplitude required by the cavity equation.

    ``x_tilde = (-G' + N - Z) / g_cav`` where N is the anticipated
    input (:func:`photon_store.model.future_drive`) and Z the bath
    memory of the cavity history.
    """
    model = SpectralModel.from_params(params)
    series = cavity_amplitude(pulse, model, grid)
    n_drive = future_drive(pulse, model, grid)
    g_half = _cavity_half(pulse, model, grid)
    z_mem = _memory_series(g_half, model, grid)
    w = model.bandwidth_w
    n_dot = w * n_drive - w * math.sqrt(model.big_gamma) * pulse.value(grid.times)
    z_dot = -w * z_mem + 0.5 * w * model.big_gamma * series.g
    x_tilde = (-series.g_dot + n_drive - z_mem) / params.g_cav
    x_tilde_dot = (-series.g_ddot + n_dot - z_dot) / params.g_cav
    return IntracavitySeries(
        x_tilde=x_tilde,
        x_tilde_dot=x_tilde_dot,
        n_drive=n_drive,
        z_mem=z_mem,
        cavity=series,
    )


def _cavity_half(pulse: InputPulse, model: SpectralModel, grid: TimeGrid) -> np.ndarray:
    """Perfect-absorption G evaluated directly on the half lattice."""
    w = model.bandwidth_w
    th = grid.half_times
    return (pulse.d1(th) + w * pulse.value(th)) / (w * math.sqrt(model.big_gamma))


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
    ``sqrt(rho_ee)``.
    """
    flow = 2.0 * params.g_cav * x_tilde * g_series - 2.0 * params.gamma_L * x_tilde ** 2
    acc = cumulative_trapezoid(flow, dx=grid.dt, initial=0.0)
    rho = params.rho_offset - x_tilde ** 2 + acc
    if np.min(rho) < _RHO_FLOOR:
        k = int(np.argmax(rho < _RHO_FLOOR))
        raise InfeasibleDesign(
            f"rho_ee reaches {rho[k]:.3e} at t = {grid.times[k]:.6g} us; "
            "increase rho_offset"
        )
    return rho


@dataclass(frozen=True, eq=False)
class DesignResult:
    """Drive design on a grid, including every intermediate series.

    ``alpha`` and ``beta`` are the real drive quadratures in the frame
    of the atomic transition; ``omega_modulus`` and the unwrapped
    ``omega_phase`` describe the same complex drive
    ``alpha + i beta``.  ``accumulated_phase`` is the rotating-frame
    angle that the two detunings wind up over time.  The Markovian
    design fills ``n_drive`` and ``z_mem`` with their W -> infinity
    limits.
    """

    grid: TimeGrid
    params: PhysicalParams
    g: np.ndarray
    g_dot: np.ndarray
    x_tilde: np.ndarray
    x_tilde_dot: np.ndarray
    n_drive: np.ndarray
    z_mem: np.ndarray
    rho_ee: np.ndarray
    accumulated_phase: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    omega_modulus: np.ndarray
    omega_phase: np.ndarray

    @property
    def drive(self) -> np.ndarray:
        """Complex drive envelope entering the equations of motion."""
        return self.alpha + 1j * self.beta


def _design_result(
    params: PhysicalParams,
    grid: TimeGrid,
    g: np.ndarray,
    g_dot: np.ndarray,
    x_tilde: np.ndarray,
    x_tilde_dot: np.ndarray,
    n_drive: np.ndarray,
    z_mem: np.ndarray,
) -> DesignResult:
    """rho_ee and the drive quadratures for arbitrary detunings
    (resonance included): the tail shared by both designs."""
    rho = excited_population(x_tilde, g, params, grid)
    root = np.sqrt(rho)
    p = (x_tilde_dot - params.g_cav * g + params.gamma_L * x_tilde) / root
    q = params.delta2 * x_tilde / root
    phase = -params.delta * grid.times + params.delta2 * cumulative_trapezoid(
        x_tilde ** 2 / rho, dx=grid.dt, initial=0.0
    )
    cos_a, sin_a = np.cos(phase), np.sin(phase)
    alpha = p * cos_a + q * sin_a
    beta = q * cos_a - p * sin_a
    return DesignResult(
        grid=grid,
        params=params,
        g=g,
        g_dot=g_dot,
        x_tilde=x_tilde,
        x_tilde_dot=x_tilde_dot,
        n_drive=n_drive,
        z_mem=z_mem,
        rho_ee=rho,
        accumulated_phase=phase,
        alpha=alpha,
        beta=beta,
        omega_modulus=np.hypot(alpha, beta),
        omega_phase=np.unwrap(np.arctan2(beta, alpha)),
    )


def design_drive(
    pulse: InputPulse, params: PhysicalParams, grid: TimeGrid
) -> DesignResult:
    """Drive that stores the input packet, for any pair of detunings."""
    mid = intracavity_amplitude(pulse, params, grid)
    return _design_result(
        params,
        grid,
        mid.cavity.g,
        mid.cavity.g_dot,
        mid.x_tilde,
        mid.x_tilde_dot,
        mid.n_drive,
        mid.z_mem,
    )


def design_drive_markovian(
    pulse: InputPulse, params: PhysicalParams, grid: TimeGrid
) -> DesignResult:
    """Same design chain with the bath memory collapsed to a rate.

    Here ``G = phi_in / sqrt(big_gamma)`` and the cavity equation
    carries the decay rate big_gamma / 2 instead of the memory and
    anticipation integrals; everything downstream is unchanged.  The
    result holds the W -> infinity limits ``n_drive = sqrt(big_gamma)
    phi_in`` and ``z_mem = (big_gamma / 2) G``, which keep the cavity
    equation ``g_cav x_tilde = -G' + N - Z`` of the memory design.
    """
    grid.require_cover(pulse.duration)
    root_gamma = math.sqrt(params.big_gamma)
    t = grid.times
    v0, v1, v2 = pulse.value(t), pulse.d1(t), pulse.d2(t)
    g = v0 / root_gamma
    g_dot = v1 / root_gamma
    x_tilde = (-v1 / root_gamma + 0.5 * root_gamma * v0) / params.g_cav
    x_tilde_dot = (-v2 / root_gamma + 0.5 * root_gamma * v1) / params.g_cav
    n_drive = root_gamma * v0
    z_mem = 0.5 * params.big_gamma * g
    return _design_result(params, grid, g, g_dot, x_tilde, x_tilde_dot, n_drive, z_mem)


def direct_memory_convolution(
    pulse: InputPulse,
    params: PhysicalParams,
    grid: TimeGrid,
    indices: np.ndarray | None = None,
) -> np.ndarray:
    """Direct trapezoid evaluation of the memory integral Z.

    Slow reference route that convolves the exponential kernel against
    the designed cavity amplitude, used to cross-check the RK4 route.
    ``indices`` restricts the evaluation to selected grid points
    (O(n) each); by default every point is evaluated (O(n^2) total).
    """
    model = SpectralModel.from_params(params)
    g = cavity_amplitude(pulse, model, grid).g
    t = grid.times
    if indices is None:
        indices = np.arange(t.size)
    out = np.empty(len(indices), dtype=float)
    for i, k in enumerate(indices):
        if k == 0:
            out[i] = 0.0
            continue
        kern = model.memory_kernel(t[k] - t[: k + 1])
        out[i] = np.trapezoid(kern * g[: k + 1], dx=grid.dt)
    return out
