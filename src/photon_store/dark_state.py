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
``dynamics``, it solves them block by block as affine recurrences in
floats, and keeps the scalar loop (:func:`_dark_loop`) as the reference
and as the path for a block the recurrences cannot settle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._integrate import cumulative_trapezoid, half_lattice_block
from .dynamics import _affine_run, _feed
from .errors import (
    AngleDomain,
    NegativeAccumulator,
    NonFiniteState,
    UnsupportedRegime,
)
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
    acc = 2.0 * cumulative_trapezoid(m_series, grid.dt)
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


def _dark_loop(inputs, w: float, mem: float, grid: TimeGrid):
    """d1 and Q on the grid by scalar RK4, fed ``inputs(k0, k1)``, the
    half-lattice cos(phi) and N of steps ``k0 .. k1 - 1``.

    Scalar RK4 in the layout of the forward solvers in ``dynamics``: the
    two real amplitudes step as Python floats, with each stage's
    arithmetic in the order of the vector right-hand side that
    tests/test_dark_state.py checks this loop against bit for bit.
    """
    n = grid.n_steps
    dt = grid.dt
    h = dt / 2.0
    sixth = dt / 6.0
    pd = np.empty(n + 1)
    pq = np.empty(n + 1)
    d, q = 0.0, 0.0
    pd[0], pq[0] = d, q

    for k0, k1, steps in _feed(n, inputs):
        od, oq = [], []
        for c0, c1, c2, n0, n1, n2 in steps:
            u = c0 * d
            a1d = c0 * (n0 - q)
            a1q = -w * q + mem * u

            bd, bq = d + h * a1d, q + h * a1q
            u = c1 * bd
            a2d = c1 * (n1 - bq)
            a2q = -w * bq + mem * u

            bd, bq = d + h * a2d, q + h * a2q
            u = c1 * bd
            a3d = c1 * (n1 - bq)
            a3q = -w * bq + mem * u

            bd, bq = d + dt * a3d, q + dt * a3q
            u = c2 * bd
            a4d = c2 * (n2 - bq)
            a4q = -w * bq + mem * u

            d = d + sixth * (a1d + 2.0 * a2d + 2.0 * a3d + a4d)
            q = q + sixth * (a1q + 2.0 * a2q + 2.0 * a3q + a4q)

            tot = abs(d) + abs(q)
            if tot != tot or tot == math.inf:
                raise NonFiniteState.among((k0 + len(od) + 1) * dt, d=d, q=q)
            od.append(d)
            oq.append(q)
        pd[k0 + 1 : k1 + 1], pq[k0 + 1 : k1 + 1] = od, oq
    return pd, pq


def adiabatic_simulate(pulse: InputPulse, dark: DarkDesign) -> AdiabaticRun:
    """Integrate the dark amplitude under the designed mixing angle.

    The effective cavity amplitude is ``u = cos(phi) d1``; it feeds the
    same memory Q as the full model, and the emission accumulator is
    ``(2 / sqrt(big_gamma)) Q``, so the reflected output of a perfect
    adiabatic run vanishes the same way.  ``flux_cumulative`` tracks the
    probability bookkeeping ``integral 2 u (N - Q)``, which the exact
    dynamics would deposit in d1^2.  The run uses the parameters and grid
    of the design.

    d1 and Q are the RK4 path of :func:`_dark_loop`, solved block by
    block as affine recurrences (``dynamics._affine_run``) from the same
    half-lattice cos(phi) and N; a path the blocks cannot settle is
    stepped by that loop, whose raise is the contract.
    """
    params = dark.design.params
    grid = dark.grid
    w = params.bandwidth_w
    mem = 0.5 * w * params.big_gamma
    cos_mixing = dark.cos_mixing
    n_drive = dark.design.n_drive

    def inputs(k0, k1):
        return (
            half_lattice_block(cos_mixing, k0, k1),
            half_lattice_block(n_drive, k0, k1),
        )

    def series(k0, k1):
        c, nd = inputs(k0, k1)
        return (c,), (nd,)

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
        pd, pq = _dark_loop(inputs, w, mem, grid)

    # h = (2 / sqrt(big_gamma)) f, so y = integral h u is that multiple of Q
    py = (2.0 / math.sqrt(params.big_gamma)) * pq
    u = cos_mixing * pd
    flux = 2.0 * u * (n_drive - pq)
    flux_cum = cumulative_trapezoid(flux, grid.dt)
    return AdiabaticRun(
        d1=pd,
        q_mem=pq,
        phi_out=py - pulse.value(grid.times),
        flux_cumulative=flux_cum,
    )


def conservation_drift(run: AdiabaticRun) -> float:
    """Worst-case gap between d1^2 and its own probability bookkeeping.

    Grid-level diagnostic of integrator consistency: the RK4 evolution
    of d1 and the trapezoid accumulation of the flux must tell the
    same story to a few parts in 1e8.
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
