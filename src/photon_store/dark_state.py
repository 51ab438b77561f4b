"""Dark-state picture of the storage process.

Rotating the cavity and storage amplitudes by the mixing angle
``tan(phi) = g_cav / Omega`` splits them into a dark combination,
decoupled from the lossy intermediate level, and a bright one that
adiabatic elimination removes.  In the adiabatic regime the whole
protocol reduces to one real amplitude d1 driven by the anticipated
input, which both simplifies the physics and provides an independent
cross-check of the exact design: the two population series should
agree wherever g_cav^2 >> gamma_L * big_gamma.

:func:`adiabatic_simulate` takes classical RK4 steps of the two real
amplitudes d1 and the memory Q.  Like the forward solvers in
``dynamics``, it gives only its right-hand side, inputs and bounds to
``_integrate``, which solves them block by block as affine recurrences
in floats and steps its one scalar RK4 loop, the reference, where they
cannot settle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._integrate import _affine_run, _rk4_loop, half_lattice_block, running_integral
from .errors import AngleDomain, NegativeAccumulator, UnsupportedRegime
from .grid import TimeGrid
from .model import InputPulse, PhysicalParams
from .pulse_design import DesignResult, design_drive


@dataclass(frozen=True, eq=False)
class DarkDesign:
    """Adiabatic storage protocol derived from the exact design."""

    design: DesignResult
    d1: np.ndarray
    mixing_angle: np.ndarray
    omega_adiabatic: np.ndarray

    @property
    def grid(self) -> TimeGrid:
        return self.design.grid

    @cached_property
    def cos_mixing(self) -> np.ndarray:
        """cos(phi), evaluated once per design."""
        return np.cos(self.mixing_angle)


def adiabatic_design(
    pulse: InputPulse, params: PhysicalParams, grid: TimeGrid
) -> DarkDesign:
    """Dark-state amplitude and drive implied by perfect absorption.

    With the bright state eliminated, ``d/dt d1^2 = 2 G (N - Z)``, so
    d1 follows from a single accumulated integral and the mixing angle
    from ``cos(phi) = G / d1``.  The t = 0 limit of the angle is taken
    from the slopes (both G and d1 start at zero).

    Raises
    ------
    UnsupportedRegime
        For detuned parameters; the rotation is defined on resonance.
    NegativeAccumulator
        If the population integral dips below zero, i.e. the pulse
        cannot be stored adiabatically at these parameters.
    AngleDomain
        If ``G / d1`` leaves [-1, 1] beyond rounding error.
    """
    if not params.is_resonant:
        raise UnsupportedRegime("adiabatic storage is designed on resonance only")
    base = design_drive(pulse, params, grid)
    m_series = base.g * (base.n_drive - base.z_mem)
    acc = 2.0 * running_integral(m_series, grid.dt)
    if float(np.min(acc)) < -1e-10:
        raise NegativeAccumulator(
            f"dark population integral reaches {np.min(acc):.3e}"
        )
    d1 = np.sqrt(np.maximum(acc, 0.0))

    cos_phi = np.empty_like(d1)
    positive = d1 > 0.0
    cos_phi[positive] = base.g[positive] / d1[positive]
    if base.n_drive[0] > 0.0 and base.g_dot[0] > 0.0:
        start = math.sqrt(base.g_dot[0] / base.n_drive[0])
    else:
        start = 1.0
    cos_phi[~positive] = min(1.0, start)

    overshoot = float(np.max(np.abs(cos_phi))) - 1.0
    if overshoot > 1e-8:
        raise AngleDomain(f"cos(phi) leaves [-1, 1] by {overshoot:.3e}")
    cos_phi = np.clip(cos_phi, -1.0, 1.0)

    sin_phi = np.sqrt(1.0 - cos_phi ** 2)
    with np.errstate(divide="ignore"):
        omega_a = params.g_cav * np.divide(cos_phi, sin_phi)
    return DarkDesign(
        design=base,
        d1=d1,
        mixing_angle=np.arccos(cos_phi),
        omega_adiabatic=omega_a,
    )


@dataclass(frozen=True, eq=False)
class AdiabaticRun:
    """Forward integration of the eliminated (dark-only) dynamics."""

    d1: np.ndarray
    q_mem: np.ndarray
    phi_out: np.ndarray
    flux_cumulative: np.ndarray


def adiabatic_simulate(pulse: InputPulse, dark: DarkDesign) -> AdiabaticRun:
    """Integrate the dark amplitude under the designed mixing angle.

    The effective cavity amplitude is ``u = cos(phi) d1``; it feeds the
    same memory Q as the full model, and the emission accumulator is
    ``(2 / sqrt(big_gamma)) Q``, so the reflected output of a perfect
    adiabatic run vanishes the same way.  ``flux_cumulative`` tracks the
    probability bookkeeping ``integral 2 u (N - Q)``, which the exact
    dynamics would deposit in d1^2.  The run uses the parameters and grid
    of the design.

    d1 and Q are the RK4 path of ``stage`` on the half-lattice cos(phi)
    and N, solved block by block as affine recurrences
    (``_integrate._affine_run``); a path the blocks cannot settle is
    stepped by ``_integrate._rk4_loop`` from the same ``stage``, whose
    raise is the contract.
    """
    params = dark.design.params
    grid = dark.grid
    w = params.bandwidth_w
    mem = 0.5 * w * params.big_gamma
    cos_mixing = dark.cos_mixing
    n_drive = dark.design.n_drive

    def series(k0, k1):
        return (half_lattice_block(cos_mixing, k0, k1),), (half_lattice_block(n_drive, k0, k1),)

    def stage(c, nd, d, q):
        u = c * d
        return c * (nd - q), -w * q + mem * u

    def rates(c, nd):
        return c + abs(w) + abs(mem) * c, c * nd

    n = grid.n_steps
    pd = np.empty(n + 1)
    pq = np.empty(n + 1)
    pd[0], pq[0] = 0.0, 0.0
    if not _affine_run(stage, series, rates, [0.0, 0.0], [pd, pq], grid.dt):
        _rk4_loop(stage, series, [0.0, 0.0], [pd, pq], grid.dt, "dq")

    # h = (2 / sqrt(big_gamma)) f, so y = integral h u is that multiple of Q
    py = (2.0 / math.sqrt(params.big_gamma)) * pq
    u = cos_mixing * pd
    flux = 2.0 * u * (n_drive - pq)
    flux_cum = running_integral(flux, grid.dt)
    return AdiabaticRun(
        d1=pd,
        q_mem=pq,
        phi_out=py - pulse.value(grid.times),
        flux_cumulative=flux_cum,
    )


def conservation_drift(run: AdiabaticRun) -> float:
    """Worst-case gap between d1^2 and its own probability bookkeeping.

    Grid-level diagnostic of integrator consistency: the RK4 evolution
    of d1 and the running integral of the flux, Simpson's rule on the
    half lattice, must tell the same story.  Both are fourth order; on
    the fig7 presets the gap is 7.7e-14 to 7.8e-14 at the default
    dt = 2e-4 and 1.2e-12 at 4e-4, and at dt = 2.5e-5 it is rounding
    accumulated over the steps, 3.3e-13 to 4.0e-13.
    """
    return float(np.max(np.abs(run.d1 ** 2 - run.flux_cumulative)))


def exact_dark_population(design: DesignResult) -> np.ndarray:
    """Dark amplitude of the exact (non-adiabatic) design.

    Rotates the designed cavity amplitude and excited-level root by
    the angle of the exact drive.  Resonant designs only: there the
    drive is the single real quadrature ``alpha``.
    """
    if not design.params.is_resonant:
        raise UnsupportedRegime("exact dark population is defined on resonance")
    phi = np.arctan2(design.params.g_cav, design.alpha)
    return design.g * np.cos(phi) - np.sqrt(design.rho_ee) * np.sin(phi)


@dataclass(frozen=True, eq=False)
class DarkComparison:
    """Adiabatic vs exact dark population on a shared grid."""

    d1_sq: np.ndarray
    d_dark_sq: np.ndarray
    sup_diff: float


def compare_dark(dark: DarkDesign) -> DarkComparison:
    """Sup-norm agreement between the two dark-population routes."""
    exact = exact_dark_population(dark.design)
    d1_sq = dark.d1 ** 2
    d_dark_sq = exact ** 2
    return DarkComparison(
        d1_sq=d1_sq,
        d_dark_sq=d_dark_sq,
        sup_diff=float(np.max(np.abs(d1_sq - d_dark_sq))),
    )


def adiabaticity_margin(params: PhysicalParams) -> float:
    """Dimensionless ratio g_cav^2 / (gamma_L * big_gamma).

    Large values mean the bright state is eliminated cleanly; values
    of order one flag protocols where the adiabatic story breaks.
    Infinite when the intermediate level does not decay.
    """
    if params.gamma_L == 0.0:
        return math.inf
    return params.g_cav ** 2 / (params.gamma_L * params.big_gamma)
