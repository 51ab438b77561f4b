"""Forward solvers checking a designed drive against the model.

Three routes of increasing independence from the design chain:

* :func:`simulate_nonmarkovian` -- the reduced equations with the
  exponential memory kernel replaced by two auxiliary first-order
  equations (exact for a Lorentzian bath).
* :func:`simulate_markovian` -- the broadband limit, where the bath
  memory collapses to the decay rate ``big_gamma``.
* :func:`simulate_discrete_bath` -- a brute-force oracle: the bath is
  sampled as thousands of explicit harmonic modes and the full linear
  system is integrated with no memory-kernel reduction at all.

All solvers take classical fixed-step RK4 steps and interpolate the
drive onto the half lattice with the same cubic stencil, so cross-route
differences measure modelling error, not integrator drift.  The oracle's
comb is linear with a constant diagonal generator, so
:func:`simulate_discrete_bath` writes its RK4 step out exactly instead
of evaluating four vector stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import half_lattice
from .errors import BandTooNarrow, GridMismatch, NonFiniteState
from .grid import TimeGrid
from .model import InputPulse, PhysicalParams, SpectralModel, future_drive


@dataclass(frozen=True)
class InitialState:
    """Single-excitation amplitudes at t = 0 (norm at most one)."""

    g_amp: complex = 0.0
    e_amp: complex = 0.0
    x_amp: complex = 0.0

    def __post_init__(self) -> None:
        total = abs(self.g_amp) ** 2 + abs(self.e_amp) ** 2 + abs(self.x_amp) ** 2
        if total > 1.0 + 1e-9:
            raise ValueError(f"initial occupation {total:.6g} exceeds one")

    @classmethod
    def vacuum(cls) -> InitialState:
        return cls()

    @classmethod
    def matched(cls, rho_offset: float) -> InitialState:
        """Storage-ready start: seed population in the target level."""
        return cls(e_amp=math.sqrt(rho_offset))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated amplitudes on the grid.

    ``y_out`` is the emission accumulator ``integral h(t-tau) G(tau)``;
    the output envelope is always ``phi_out = y_out - phi_in``.
    ``z_mem`` is the bath-memory accumulator of the reduced equations
    (zero for solvers that do not track it explicitly).
    """

    grid: TimeGrid
    g: np.ndarray
    e: np.ndarray
    x: np.ndarray
    z_mem: np.ndarray
    y_out: np.ndarray
    phi_in: np.ndarray
    phi_out: np.ndarray


def _drive_half(drive: np.ndarray, grid: TimeGrid) -> np.ndarray:
    drive = np.asarray(drive, dtype=complex)
    if drive.shape != (grid.n_steps + 1,):
        raise GridMismatch(
            f"drive has {drive.shape[0]} samples, grid wants {grid.n_steps + 1}"
        )
    return half_lattice(drive)


def _check_grid(pulse: InputPulse, grid: TimeGrid) -> None:
    if not grid.covers(pulse.duration):
        raise GridMismatch(
            f"grid span {grid.span:.6g} us does not cover the pulse "
            f"support {pulse.duration:.6g} us"
        )


def simulate_nonmarkovian(
    pulse: InputPulse,
    drive: np.ndarray,
    params: PhysicalParams,
    init: InitialState,
    grid: TimeGrid,
) -> Trajectory:
    """Integrate the reduced memory-kernel equations of motion.

    The convolution terms are carried by two auxiliary amplitudes: the
    memory Z (kernel against the simulated G) and the emission
    accumulator y.  The anticipated input N is integrated backward
    once before the forward sweep.
    """
    _check_grid(pulse, grid)
    model = SpectralModel.from_params(params)
    w = model.bandwidth_w
    root_gamma = math.sqrt(model.big_gamma)
    g_cav, gamma_l = params.g_cav, params.gamma_L

    th = grid.half_times
    om_h = _drive_half(drive, grid)
    e2m = np.exp(-1j * params.delta2 * th)
    e1m = np.exp(-1j * params.delta1 * th)
    e2p = np.conj(e2m)
    e1p = np.conj(e1m)

    # the stepping loop works on plain scalars: the five coupled
    # amplitudes are too small a state vector to pay per-step array
    # overhead for, and the arithmetic below matches the vector form
    # operation for operation
    cav = (-1j * g_cav * e2m).tolist()          # G <- X coupling
    sto = (-1j * np.conj(om_h) * e1m).tolist()  # E <- X coupling
    rev = (-1j * om_h * e1p).tolist()           # X <- E coupling
    bck = (-1j * g_cav * e2p).tolist()          # X <- G coupling
    n_l = half_lattice(future_drive(pulse, model, grid)).tolist()
    mem = 0.5 * w * model.big_gamma
    pump_y = w * root_gamma

    n = grid.n_steps
    dt = grid.dt
    h = dt / 2.0
    sixth = dt / 6.0
    pg = np.empty(n + 1, dtype=complex)
    pe = np.empty(n + 1, dtype=complex)
    px = np.empty(n + 1, dtype=complex)
    pz = np.empty(n + 1, dtype=complex)
    py = np.empty(n + 1, dtype=complex)
    g, e, x = complex(init.g_amp), complex(init.e_amp), complex(init.x_amp)
    z = 0.0 + 0.0j
    y = 0.0 + 0.0j
    pg[0], pe[0], px[0], pz[0], py[0] = g, e, x, z, y

    for k in range(n):
        j0 = 2 * k
        j1 = j0 + 1
        j2 = j0 + 2

        a1g = cav[j0] * x + n_l[j0] - z
        a1e = sto[j0] * x
        a1x = rev[j0] * e + bck[j0] * g - gamma_l * x
        a1z = -w * z + mem * g
        a1y = -w * y + pump_y * g

        bg, be, bx = g + h * a1g, e + h * a1e, x + h * a1x
        bz, by = z + h * a1z, y + h * a1y
        a2g = cav[j1] * bx + n_l[j1] - bz
        a2e = sto[j1] * bx
        a2x = rev[j1] * be + bck[j1] * bg - gamma_l * bx
        a2z = -w * bz + mem * bg
        a2y = -w * by + pump_y * bg

        bg, be, bx = g + h * a2g, e + h * a2e, x + h * a2x
        bz, by = z + h * a2z, y + h * a2y
        a3g = cav[j1] * bx + n_l[j1] - bz
        a3e = sto[j1] * bx
        a3x = rev[j1] * be + bck[j1] * bg - gamma_l * bx
        a3z = -w * bz + mem * bg
        a3y = -w * by + pump_y * bg

        bg, be, bx = g + dt * a3g, e + dt * a3e, x + dt * a3x
        bz, by = z + dt * a3z, y + dt * a3y
        a4g = cav[j2] * bx + n_l[j2] - bz
        a4e = sto[j2] * bx
        a4x = rev[j2] * be + bck[j2] * bg - gamma_l * bx
        a4z = -w * bz + mem * bg
        a4y = -w * by + pump_y * bg

        g = g + sixth * (a1g + 2.0 * a2g + 2.0 * a3g + a4g)
        e = e + sixth * (a1e + 2.0 * a2e + 2.0 * a3e + a4e)
        x = x + sixth * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
        z = z + sixth * (a1z + 2.0 * a2z + 2.0 * a3z + a4z)
        y = y + sixth * (a1y + 2.0 * a2y + 2.0 * a3y + a4y)

        tot = abs(g) + abs(e) + abs(x) + abs(z) + abs(y)
        if tot != tot or tot == math.inf:
            raise NonFiniteState((k + 1) * dt)
        pg[k + 1], pe[k + 1], px[k + 1] = g, e, x
        pz[k + 1], py[k + 1] = z, y

    phi_in = pulse.value(grid.times)
    return Trajectory(
        grid=grid,
        g=pg,
        e=pe,
        x=px,
        z_mem=pz,
        y_out=py,
        phi_in=phi_in,
        phi_out=py - phi_in,
    )


def simulate_markovian(
    pulse: InputPulse,
    drive: np.ndarray,
    params: PhysicalParams,
    init: InitialState,
    grid: TimeGrid,
) -> Trajectory:
    """Integrate the broadband-limit equations (memoryless cavity)."""
    _check_grid(pulse, grid)
    root_gamma = math.sqrt(params.big_gamma)
    g_cav, gamma_l = params.g_cav, params.gamma_L
    half_rate = 0.5 * params.big_gamma

    th = grid.half_times
    om_h = _drive_half(drive, grid)
    e2m = np.exp(-1j * params.delta2 * th)
    e1m = np.exp(-1j * params.delta1 * th)
    e2p = np.conj(e2m)
    e1p = np.conj(e1m)

    # scalar stepping, same layout as the memory-kernel integrator above
    cav = (-1j * g_cav * e2m).tolist()
    sto = (-1j * np.conj(om_h) * e1m).tolist()
    rev = (-1j * om_h * e1p).tolist()
    bck = (-1j * g_cav * e2p).tolist()
    src = (root_gamma * pulse.value(th)).tolist()

    n = grid.n_steps
    dt = grid.dt
    h = dt / 2.0
    sixth = dt / 6.0
    pg = np.empty(n + 1, dtype=complex)
    pe = np.empty(n + 1, dtype=complex)
    px = np.empty(n + 1, dtype=complex)
    g, e, x = complex(init.g_amp), complex(init.e_amp), complex(init.x_amp)
    pg[0], pe[0], px[0] = g, e, x

    for k in range(n):
        j0 = 2 * k
        j1 = j0 + 1
        j2 = j0 + 2

        a1g = cav[j0] * x + src[j0] - half_rate * g
        a1e = sto[j0] * x
        a1x = rev[j0] * e + bck[j0] * g - gamma_l * x

        bg, be, bx = g + h * a1g, e + h * a1e, x + h * a1x
        a2g = cav[j1] * bx + src[j1] - half_rate * bg
        a2e = sto[j1] * bx
        a2x = rev[j1] * be + bck[j1] * bg - gamma_l * bx

        bg, be, bx = g + h * a2g, e + h * a2e, x + h * a2x
        a3g = cav[j1] * bx + src[j1] - half_rate * bg
        a3e = sto[j1] * bx
        a3x = rev[j1] * be + bck[j1] * bg - gamma_l * bx

        bg, be, bx = g + dt * a3g, e + dt * a3e, x + dt * a3x
        a4g = cav[j2] * bx + src[j2] - half_rate * bg
        a4e = sto[j2] * bx
        a4x = rev[j2] * be + bck[j2] * bg - gamma_l * bx

        g = g + sixth * (a1g + 2.0 * a2g + 2.0 * a3g + a4g)
        e = e + sixth * (a1e + 2.0 * a2e + 2.0 * a3e + a4e)
        x = x + sixth * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)

        tot = abs(g) + abs(e) + abs(x)
        if tot != tot or tot == math.inf:
            raise NonFiniteState((k + 1) * dt)
        pg[k + 1], pe[k + 1], px[k + 1] = g, e, x

    phi_in = pulse.value(grid.times)
    y_out = root_gamma * pg
    return Trajectory(
        grid=grid,
        g=pg,
        e=pe,
        x=px,
        z_mem=np.zeros_like(y_out),
        y_out=y_out,
        phi_in=phi_in,
        phi_out=y_out - phi_in,
    )


@dataclass(frozen=True, eq=False)
class BathDiscretization:
    """Explicit frequency comb standing in for the bath continuum."""

    model: SpectralModel
    frequencies: np.ndarray
    weights: np.ndarray
    band_halfwidth: float

    @property
    def n_modes(self) -> int:
        return self.frequencies.size

    @property
    def mode_spacing(self) -> float:
        return 2.0 * self.band_halfwidth / self.n_modes

    def density_capture(self) -> float:
        """sum |w_j|^2 over the in-band part of the spectral density."""
        w = self.model.bandwidth_w
        band = (
            self.model.big_gamma
            * w
            / math.pi
            * math.atan(self.band_halfwidth / w)
        )
        return float(np.sum(np.abs(self.weights) ** 2)) / band


def discretize_bath(
    model: SpectralModel, n_modes: int, band_halfwidth: float
) -> BathDiscretization:
    """Midpoint sampling of the coupling over [-B, B]."""
    if n_modes < 2 or not band_halfwidth > 0.0:
        raise ValueError("need n_modes >= 2 and a positive band")
    spacing = 2.0 * band_halfwidth / n_modes
    freqs = -band_halfwidth + (np.arange(n_modes) + 0.5) * spacing
    weights = model.coupling(freqs) * math.sqrt(spacing)
    return BathDiscretization(
        model=model,
        frequencies=freqs,
        weights=weights,
        band_halfwidth=band_halfwidth,
    )


def initial_modes(
    pulse: InputPulse,
    bath: BathDiscretization,
    grid: TimeGrid,
    capture_floor: float = 0.999,
) -> tuple[np.ndarray, float]:
    """Mode amplitudes encoding the incoming single photon.

    Projects the input envelope onto the comb via a trapezoid Fourier
    transform, then renormalizes to exactly one photon in band.
    Returns the amplitudes together with the captured fraction before
    renormalization; raises :class:`BandTooNarrow` when that fraction
    falls below ``capture_floor``.

    The grid is uniform, so sample ``n = b*L + r`` carries the phase
    ``exp(i omega b L dt) * exp(i omega r dt)`` with ``L = ceil(sqrt(n))``:
    the sum is one (modes x L) phase block times the (L x B) sample
    matrix, weighted by a (modes x B) phase block -- O(modes * sqrt(n))
    exponentials instead of O(modes * n).
    """
    phi = pulse.value(grid.times)
    weighted = phi * grid.dt
    weighted[0] *= 0.5
    weighted[-1] *= 0.5
    n_samples = weighted.size
    inner = math.isqrt(n_samples - 1) + 1
    outer = -(-n_samples // inner)
    padded = np.zeros(inner * outer, dtype=weighted.dtype)
    padded[:n_samples] = weighted
    om = bath.frequencies[:, None]
    fine = np.exp(1j * (om * (grid.dt * np.arange(inner))))
    coarse = np.exp(1j * (om * (inner * grid.dt * np.arange(outer))))
    ft = np.sum((fine @ padded.reshape(outer, inner).T) * coarse, axis=1)
    c0 = -math.sqrt(bath.mode_spacing / (2.0 * math.pi)) * ft
    capture = float(np.sum(np.abs(c0) ** 2))
    if capture < capture_floor:
        raise BandTooNarrow(
            f"comb captures {capture:.6f} of the photon; "
            f"widen the band beyond +-{bath.band_halfwidth:g} MHz"
        )
    return c0 / math.sqrt(capture), capture


@dataclass(frozen=True, eq=False)
class DiscreteBathRun:
    """Oracle trajectory plus the final bath-mode amplitudes."""

    trajectory: Trajectory
    bath: BathDiscretization
    final_modes: np.ndarray
    capture: float


def simulate_discrete_bath(
    pulse: InputPulse,
    drive: np.ndarray,
    params: PhysicalParams,
    init: InitialState,
    bath: BathDiscretization,
    grid: TimeGrid,
) -> DiscreteBathRun:
    """Integrate the full atom + cavity + comb linear system.

    No memory kernel, no anticipated input: the photon lives in the
    mode amplitudes from the start.  Memory stays bounded by keeping
    only the system amplitudes per step and the mode vector at the end.

    The step is classical RK4 of the whole (4 + N)-dimensional system,
    written out exactly.  The comb obeys ``c' = D c + k G(t)`` with the
    couplings ``k = bath.weights`` and a constant ``D = diag(-i omega_j)``,
    so every RK4 stage state of the comb is a cubic in ``D`` applied to
    ``c`` and to ``k``, and one step is

        c <- R(dt D) c + sum_m beta_m (dt D)^m k,   m = 0..3,

    with ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` and scalars ``beta_m``
    made of the four stage values of G.  The stage dots ``<k, c_stage>``
    that feed G follow from the moments ``mu_m = <k, (dt D)^m c>`` and
    the constants ``nu_m = <k, (dt D)^m k>``.  A step thus costs one
    (4 x N) product for the moments, one elementwise gain and one
    rank-4 update, and the system amplitudes are stepped as scalars
    like :func:`simulate_nonmarkovian`.
    """
    _check_grid(pulse, grid)
    g_cav, gamma_l = params.g_cav, params.gamma_L
    w = params.bandwidth_w
    pump_y = w * math.sqrt(params.big_gamma)

    th = grid.half_times
    om_h = _drive_half(drive, grid)
    e2m = np.exp(-1j * params.delta2 * th)
    e1m = np.exp(-1j * params.delta1 * th)
    e2p = np.conj(e2m)
    e1p = np.conj(e1m)
    cav = (-1j * g_cav * e2m).tolist()          # G <- X coupling
    sto = (-1j * np.conj(om_h) * e1m).tolist()  # E <- X coupling
    rev = (-1j * om_h * e1p).tolist()           # X <- E coupling
    bck = (-1j * g_cav * e2p).tolist()          # X <- G coupling

    c, capture = initial_modes(pulse, bath, grid)

    n = grid.n_steps
    dt = grid.dt
    h = dt / 2.0
    sixth = dt / 6.0
    # powers of the scaled generator dt*D keep the moments O(|c|)
    z = -1j * dt * bath.frequencies
    powers = np.stack([np.ones_like(z), z, z * z, z * z * z])
    lift = powers * bath.weights              # rows (dt D)^m k
    project = powers * np.conj(bath.weights)  # rows conj(k) (dt D)^m
    gain = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    nu0, nu1, nu2 = (lift[:3] @ project[0]).tolist()

    pg = np.empty(n + 1, dtype=complex)
    pe = np.empty(n + 1, dtype=complex)
    px = np.empty(n + 1, dtype=complex)
    py = np.empty(n + 1, dtype=complex)
    g, e, x = complex(init.g_amp), complex(init.e_amp), complex(init.x_amp)
    y = 0.0 + 0.0j
    pg[0], pe[0], px[0], py[0] = g, e, x, y
    mu0, mu1, mu2, mu3 = np.dot(project, c).tolist()
    beta = np.empty(4, dtype=complex)

    for k in range(n):
        j0 = 2 * k
        j1 = j0 + 1
        j2 = j0 + 2

        g1 = g
        a1g = cav[j0] * x - mu0
        a1e = sto[j0] * x
        a1x = rev[j0] * e + bck[j0] * g - gamma_l * x
        a1y = -w * y + pump_y * g

        g2, be, bx, by = g + h * a1g, e + h * a1e, x + h * a1x, y + h * a1y
        dot2 = mu0 + 0.5 * mu1 + h * g1 * nu0
        a2g = cav[j1] * bx - dot2
        a2e = sto[j1] * bx
        a2x = rev[j1] * be + bck[j1] * g2 - gamma_l * bx
        a2y = -w * by + pump_y * g2

        g3, be, bx, by = g + h * a2g, e + h * a2e, x + h * a2x, y + h * a2y
        dot3 = mu0 + 0.5 * mu1 + 0.25 * mu2 + h * g2 * nu0 + 0.5 * h * g1 * nu1
        a3g = cav[j1] * bx - dot3
        a3e = sto[j1] * bx
        a3x = rev[j1] * be + bck[j1] * g3 - gamma_l * bx
        a3y = -w * by + pump_y * g3

        g4, be, bx, by = g + dt * a3g, e + dt * a3e, x + dt * a3x, y + dt * a3y
        dot4 = (
            mu0 + mu1 + 0.5 * mu2 + 0.25 * mu3
            + dt * g3 * nu0 + h * g2 * nu1 + 0.5 * h * g1 * nu2
        )
        a4g = cav[j2] * bx - dot4
        a4e = sto[j2] * bx
        a4x = rev[j2] * be + bck[j2] * g4 - gamma_l * bx
        a4y = -w * by + pump_y * g4

        g = g + sixth * (a1g + 2.0 * a2g + 2.0 * a3g + a4g)
        e = e + sixth * (a1e + 2.0 * a2e + 2.0 * a3e + a4e)
        x = x + sixth * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
        y = y + sixth * (a1y + 2.0 * a2y + 2.0 * a3y + a4y)

        beta[0] = sixth * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        beta[1] = sixth * (g1 + g2 + g3)
        beta[2] = 0.5 * sixth * (g1 + g2)
        beta[3] = 0.25 * sixth * g1
        c *= gain
        c += np.dot(beta, lift)
        mu0, mu1, mu2, mu3 = np.dot(project, c).tolist()

        # a non-finite mode makes mu0 non-finite
        tot = abs(g) + abs(e) + abs(x) + abs(y)
        tot += abs(mu0) + abs(mu1) + abs(mu2) + abs(mu3)
        if tot != tot or tot == math.inf:
            raise NonFiniteState((k + 1) * dt)
        pg[k + 1], pe[k + 1], px[k + 1], py[k + 1] = g, e, x, y

    phi_in = pulse.value(grid.times)
    traj = Trajectory(
        grid=grid,
        g=pg,
        e=pe,
        x=px,
        z_mem=np.zeros_like(py),
        y_out=py,
        phi_in=phi_in,
        phi_out=py - phi_in,
    )
    return DiscreteBathRun(trajectory=traj, bath=bath, final_modes=c, capture=capture)


def reconstruct_output(
    bath: BathDiscretization,
    modes: np.ndarray,
    t_snapshot: float,
    times: np.ndarray,
) -> np.ndarray:
    """Free-evolve a mode snapshot into the emitted envelope.

    After the interaction stops the comb evolves trivially, so the
    outgoing envelope at ``times >= t_snapshot`` is the phased sum of
    the snapshot amplitudes.
    """
    tt = np.asarray(times, dtype=float)[:, None] - t_snapshot
    phases = np.exp(-1j * bath.frequencies[None, :] * tt)
    return (
        math.sqrt(bath.mode_spacing / (2.0 * math.pi))
        * np.sum(phases * modes[None, :], axis=1)
    )


@dataclass(frozen=True)
class StorageMetrics:
    """Scalar figures of merit extracted from one trajectory."""

    reflected: float
    final_excited: float
    final_cavity: float
    peak_intermediate: float

    def as_dict(self) -> dict[str, float]:
        return {
            "reflected": self.reflected,
            "final_excited": self.final_excited,
            "final_cavity": self.final_cavity,
            "peak_intermediate": self.peak_intermediate,
        }


def storage_metrics(traj: Trajectory) -> StorageMetrics:
    """Reflected probability and final-state occupations."""
    out2 = np.abs(traj.phi_out) ** 2
    return StorageMetrics(
        reflected=float(np.trapezoid(out2, dx=traj.grid.dt)),
        final_excited=float(np.abs(traj.e[-1]) ** 2),
        final_cavity=float(np.abs(traj.g[-1]) ** 2),
        peak_intermediate=float(np.max(np.abs(traj.x) ** 2)),
    )
