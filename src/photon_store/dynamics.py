"""Forward solvers checking a designed drive against the model.

Three routes of increasing independence from the design chain:

* :func:`simulate_nonmarkovian` -- the reduced equations with the
  exponential memory kernel replaced by one auxiliary first-order
  equation, the bath pseudomode Z (exact for a Lorentzian bath).
* :func:`simulate_markovian` -- the broadband limit, where the bath
  memory collapses to the decay rate ``big_gamma``; it is the same
  loop with the pseudomode switched off.
* :func:`simulate_discrete_bath` -- a brute-force oracle: the bath is
  sampled as thousands of explicit harmonic modes and the full linear
  system is integrated with no memory-kernel reduction at all; its
  reflection is the comb's final population, with no emission kernel.

All solvers take classical fixed-step RK4 steps and interpolate the
drive onto the half lattice with the same cubic stencil, so cross-route
differences measure modelling error, not integrator drift.  The oracle's
comb is linear with a constant diagonal generator, so
:func:`simulate_discrete_bath` writes its RK4 step out exactly instead
of evaluating four vector stages.

The reduced equations are a linear system of four amplitudes, and an
RK4 step of a linear system is exactly an affine map s -> M_k s + c_k.
:func:`simulate_nonmarkovian` and :func:`simulate_markovian` build those
maps one block of :data:`_BLOCK` steps at a time and solve their
recurrence by a sub-block scan (:func:`_affine_run`), in floats where
the reduced equations are real (:func:`_real_field`, on resonance) and
in complex numbers otherwise; the dark-state route does the same.  The
scalar loop each route stands for (:func:`_reduced_loop`) steps the
amplitudes as Python numbers; it is the bit-for-bit RK4 reference, and
the path of a run whose blocks cannot settle, whose raise is the
:class:`NonFiniteState` contract.  The oracle's comb loop steps its
system amplitudes the same way, and on resonance only the positive half
of its mirrored comb, as floats, with the other half its conjugate.
Every route takes its half-lattice couplings and sources one block at a
time (:func:`_feed` hands them to a loop), so its memory beyond the
output arrays does not grow with the grid.  The oracle's Fourier
projection likewise takes one block of modes at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from ._integrate import _FLOAT_MAX, _affine_scan, _rk4_affine_maps, half_lattice_block
from .errors import BandTooNarrow, GridMismatch, NonFiniteState
from .grid import TimeGrid
from .model import InputPulse, PhysicalParams, future_drive

# least fraction of the photon the comb must capture before renormalizing
_CAPTURE_FLOOR = 0.999
# complex vectors per mode that the oracle holds on the full complex
# comb: frequencies and weights; the step's z, gain, mode vector and
# update; and its lift and project rows (four each).  The real
# half-comb holds these for half the modes, so the count bounds both
_MODE_VECTORS = 14
# bytes of one phase block of the comb's Fourier projection, and how
# many such blocks it holds at once (see initial_modes)
_PHASE_BYTES = 2**18
_PHASE_BLOCKS = 3
# steps per block of the forward routes: a block of affine maps, or of
# the scalar loops' half-lattice feed
_BLOCK = 2048


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
    ``z_mem`` is the bath pseudomode Z of the reduced equations.  The
    memory-kernel solver steps Z and forms y as
    ``(2 / sqrt(big_gamma)) z_mem``.  The broadband solver steps the same
    loop with Z's source and decay at zero, so its ``z_mem`` is exactly
    zero, and forms y as ``sqrt(big_gamma) g``.
    """

    grid: TimeGrid
    g: np.ndarray
    e: np.ndarray
    x: np.ndarray
    z_mem: np.ndarray
    y_out: np.ndarray
    phi_in: np.ndarray
    phi_out: np.ndarray


def _grid_drive(drive: np.ndarray, grid: TimeGrid) -> np.ndarray:
    drive = np.asarray(drive, dtype=complex)
    if drive.shape != (grid.n_steps + 1,):
        raise GridMismatch(
            f"drive has {drive.shape[0]} samples, grid wants {grid.n_steps + 1}"
        )
    return drive


def _real_field(drive: np.ndarray, params: PhysicalParams, init: InitialState) -> bool:
    """Whether the reduced equations are real in g, e, y = Im x and Z.

    On resonance with a real drive the four atom couplings are imaginary,
    so a start with real g and e and imaginary x (both the matched and
    the vacuum start) keeps that structure.  The parts that stay zero
    must start at +0, as the real field writes them: from +0 the complex
    loop keeps them +0, where a -0 part may stay -0.
    """
    g, e, x = complex(init.g_amp), complex(init.e_amp), complex(init.x_amp)
    zero_parts = (g.imag, e.imag, x.real)
    return (
        params.is_resonant
        and all(v == 0.0 and math.copysign(1.0, v) > 0.0 for v in zero_parts)
        and not drive.imag.any()
    )


def _phase(delta: float, th: np.ndarray) -> np.ndarray:
    """``exp(-1j * delta * th)`` at the half-lattice times ``th``, bit for
    bit.  At zero detuning of either sign every sample is the same number
    (the times are finite and not below +0), so one evaluation fills them."""
    if delta == 0.0:
        return np.full(th.shape, np.exp(-1j * delta * th[:1])[0])
    return np.exp(-1j * delta * th)


def _couplings(drive: np.ndarray, params: PhysicalParams, grid: TimeGrid, real=False):
    """Half-lattice couplings of the scalar stepping loops, by block.

    Checks the drive against the grid at once and returns a function of
    a step block ``k0, k1`` that gives the four couplings on the half
    lattice ``2 k0 .. 2 k1`` as arrays.  The loops' arithmetic matches
    the vector form operation for operation.  With ``real`` (see
    :func:`_real_field`) they are the real couplings of g, e, y = Im x
    and Z: -Im cav, -Im sto, Im rev and Im bck, taken from the complex
    ones so that a product with y rounds as the complex product's
    nonzero part does.
    """
    drive = _grid_drive(drive, grid)

    def block(k0: int, k1: int):
        th = grid.half_times_block(k0, k1)
        om_h = half_lattice_block(drive, k0, k1)
        e2m = _phase(params.delta2, th)
        e1m = _phase(params.delta1, th)
        cav = -1j * params.g_cav * e2m           # G <- X coupling
        sto = -1j * np.conj(om_h) * e1m          # E <- X coupling
        rev = -1j * om_h * np.conj(e1m)          # X <- E coupling
        bck = -1j * params.g_cav * np.conj(e2m)  # X <- G coupling
        if real:
            # copies, so that no complex array outlives the block
            return -cav.imag, -sto.imag, rev.imag.copy(), bck.imag.copy()
        return cav, sto, rev, bck

    return block


def _feed(n: int, series):
    """The half-lattice inputs of an ``n``-step scalar RK4 loop, by block.

    ``series(k0, k1)`` gives the inputs of steps ``k0 .. k1 - 1`` as
    arrays on the half lattice ``2 k0 .. 2 k1``.  Yields ``k0``, ``k1``
    and an iterator over those steps: for step k, each array's samples
    at 2k, 2k + 1 and 2k + 2 in turn, as Python numbers.  The four
    coupled amplitudes are too small a state vector to pay per-step
    array overhead for, and a block bounds what the lists hold.
    """
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        cols = []
        for arr in series(k0, k1):
            even = arr[0::2].tolist()
            # step k's 2k + 2 is step k + 1's 2k: one list serves both
            cols += (even, arr[1::2].tolist(), islice(even, 1, None))
        yield k0, k1, zip(*cols)


def _affine_run(stage, series, rates, start, dest, dt: float) -> bool:
    """Step an RK4 route of s' = A(t) s + f(t) block by block as affine
    recurrences (:func:`_rk4_affine_maps`, :func:`_affine_scan`), each
    block from the end state of the one before.

    ``series(k0, k1)`` gives the couplings and the sources of steps
    ``k0 .. k1 - 1`` on the half lattice and ``stage`` the right-hand
    side, as for :func:`_rk4_affine_maps`; ``rates`` maps the block's
    largest input moduli to bounds (a, f) on the summed coefficient
    moduli of any one component's slope and on its source.  Writes the
    states after each step into ``dest[i][1:]``, one array per
    component.  Returns False at the first block it cannot settle: one
    whose path is not finite, or comes near enough to overflow for a
    stage of the scalar loop it stands for to.  With |s| <= sigma (the
    sum of the moduli), every stage state of a step stays below
    grow^3 (sigma + dt f) and every slope term below
    a grow^3 (sigma + dt f) + f, with grow = 1 + dt a.
    """
    n = dest[0].shape[0] - 1
    state = list(start)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, _BLOCK):
            k1 = min(k0 + _BLOCK, n)
            couplings, sources = series(k0, k1)
            path = _affine_scan(_rk4_affine_maps(stage, couplings, sources, len(state), dt), state)
            inputs = (*couplings, *sources)
            a, f = rates(*(float(np.max(np.abs(v))) for v in inputs))
            sigma = max(sum(map(abs, state)), float(np.max(np.sum(np.abs(path), axis=0))))
            grow = 1.0 + dt * a
            # the stage states and the weighted sum of the four slopes
            # stay below this; a quarter of the float maximum leaves a
            # factor 2 for a complex product's two terms and 2 for the
            # loop's rounding apart from the blocks
            if not (6.0 * a + 1.0) * grow * grow * grow * (sigma + dt * f) + 6.0 * f < _FLOAT_MAX / 4.0:
                return False
            for out, p in zip(dest, path):
                out[k0 + 1 : k1 + 1] = p
            state = path[:, -1].tolist()
    return True


def _trajectory(grid, phi_in, g, e, x, z_mem, y_out) -> Trajectory:
    """The input-output relation ``phi_out = y_out - phi_in`` on the grid.

    phi_in is real, so phi_out is y_out with phi_in taken off its real
    part, bit for bit the complex difference, and without the complex
    copy of phi_in that the mixed-type subtraction would buffer.
    """
    phi_out = y_out.copy()
    phi_out.real -= phi_in
    return Trajectory(
        grid=grid,
        g=g,
        e=e,
        x=x,
        z_mem=z_mem,
        y_out=y_out,
        phi_in=phi_in,
        phi_out=phi_out,
    )


def _reduced_loop(couplings, src, rate, w, mem, params, init, grid, real=False):
    """Step g, e, x and the pseudomode Z of the reduced equations

        G' = cav X + src - Z - rate G,   Z' = -w Z + mem G,

    with the atom block of :func:`_couplings`; ``src(k0, k1)`` gives the
    source on the half lattice ``2 k0 .. 2 k1``.  Returns the four
    amplitudes on the grid.

    With ``real`` the same body steps floats: g, e and Z are the real
    parts and y = Im x stands in x's place, with the real couplings and
    a real source (N and sqrt(big_gamma) phi_in are).
    Every complex product then has one exactly zero term, so each
    nonzero part takes the complex loop's operations in its order and
    its bits, and the zero parts, +0 at every step of the complex loop,
    are written as +0.  A float step costs about half a complex one.
    """
    gamma_l = params.gamma_L
    n = grid.n_steps
    dt = grid.dt
    h = dt / 2.0
    sixth = dt / 6.0
    pg = np.empty(n + 1, dtype=complex)
    pe = np.empty(n + 1, dtype=complex)
    px = np.zeros(n + 1, dtype=complex)
    pz = np.empty(n + 1, dtype=complex)
    g, e, x = complex(init.g_amp), complex(init.e_amp), complex(init.x_amp)
    z = 0.0 + 0.0j
    pg[0], pe[0], px[0], pz[0] = g, e, x, z
    xs = px
    if real:
        # y = Im x fills x's imaginary part; its real part stays +0
        g, e, x, z, xs = g.real, e.real, x.imag, 0.0, px.imag

    def inputs(k0, k1):
        return (*couplings(k0, k1), src(k0, k1))

    for k0, k1, steps in _feed(n, inputs):
        og, oe, ox, oz = [], [], [], []
        for (
            cav0, cav1, cav2, sto0, sto1, sto2,
            rev0, rev1, rev2, bck0, bck1, bck2, src0, src1, src2,
        ) in steps:
            a1g = cav0 * x + src0 - z - rate * g
            a1e = sto0 * x
            a1x = rev0 * e + bck0 * g - gamma_l * x
            a1z = -w * z + mem * g

            bg, be, bx, bz = g + h * a1g, e + h * a1e, x + h * a1x, z + h * a1z
            a2g = cav1 * bx + src1 - bz - rate * bg
            a2e = sto1 * bx
            a2x = rev1 * be + bck1 * bg - gamma_l * bx
            a2z = -w * bz + mem * bg

            bg, be, bx, bz = g + h * a2g, e + h * a2e, x + h * a2x, z + h * a2z
            a3g = cav1 * bx + src1 - bz - rate * bg
            a3e = sto1 * bx
            a3x = rev1 * be + bck1 * bg - gamma_l * bx
            a3z = -w * bz + mem * bg

            bg, be, bx, bz = g + dt * a3g, e + dt * a3e, x + dt * a3x, z + dt * a3z
            a4g = cav2 * bx + src2 - bz - rate * bg
            a4e = sto2 * bx
            a4x = rev2 * be + bck2 * bg - gamma_l * bx
            a4z = -w * bz + mem * bg

            g = g + sixth * (a1g + 2.0 * a2g + 2.0 * a3g + a4g)
            e = e + sixth * (a1e + 2.0 * a2e + 2.0 * a3e + a4e)
            x = x + sixth * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
            z = z + sixth * (a1z + 2.0 * a2z + 2.0 * a3z + a4z)

            try:
                tot = abs(g) + abs(e) + abs(x) + abs(z)
            except OverflowError:  # a modulus past the float maximum
                tot = math.inf
            if tot != tot or tot == math.inf:
                t = (k0 + len(og) + 1) * dt
                raise NonFiniteState.among(t, g=g, e=e, x=x, z=z)
            og.append(g)
            oe.append(e)
            ox.append(x)
            oz.append(z)
        pg[k0 + 1 : k1 + 1], pe[k0 + 1 : k1 + 1] = og, oe
        xs[k0 + 1 : k1 + 1], pz[k0 + 1 : k1 + 1] = ox, oz
    return pg, pe, px, pz


def _reduced_run(drive, src, rate, w, mem, params, init, grid):
    """g, e, x and Z on the grid: the path of :func:`_reduced_loop` on the
    couplings of :func:`_couplings` and the source ``src``, solved block
    by block as affine recurrences (:func:`_affine_run`).  Where
    :func:`_real_field` holds, the blocks build float maps from couplings
    taken straight from g_cav and the drive, g_cav as a number: for a
    finite drive they are the values the complex couplings give, and a
    block with a sample that is not finite does not settle.  A path the
    blocks cannot settle is stepped by that loop, whose raise is the
    contract."""
    gamma_l = params.gamma_L
    real = _real_field(drive, params, init)
    couplings = _couplings(drive, params, grid, real)
    map_couplings = couplings
    if real:
        om, g_cav = drive.real, params.g_cav

        def map_couplings(k0, k1):
            om_h = half_lattice_block(om, k0, k1)
            return g_cav, om_h, -om_h, -g_cav

    def stage(cav, sto, rev, bck, src, g, e, x, z):
        dg = cav * x + src - z
        if rate:  # the memory-kernel route has none: spare the product
            dg = dg - rate * g
        return dg, sto * x, rev * e + bck * g - gamma_l * x, -w * z + mem * g

    def rates(cav, sto, rev, bck, src):
        return cav + sto + rev + bck + abs(rate) + abs(gamma_l) + abs(w) + abs(mem) + 1.0, src

    def inputs(k0, k1):
        return map_couplings(k0, k1), (src(k0, k1),)

    n = grid.n_steps
    pg = np.empty(n + 1, dtype=complex)
    pe = np.empty(n + 1, dtype=complex)
    px = np.zeros(n + 1, dtype=complex)
    pz = np.empty(n + 1, dtype=complex)
    start = [complex(init.g_amp), complex(init.e_amp), complex(init.x_amp), 0.0 + 0.0j]
    pg[0], pe[0], px[0], pz[0] = start
    dest = [pg, pe, px, pz]
    if real:
        # y = Im x fills x's imaginary part; its real part stays +0
        start = [start[0].real, start[1].real, start[2].imag, 0.0]
        dest[2] = px.imag
    if _affine_run(stage, inputs, rates, start, dest, grid.dt):
        return pg, pe, px, pz
    return _reduced_loop(couplings, src, rate, w, mem, params, init, grid, real)


def simulate_nonmarkovian(
    pulse: InputPulse,
    drive: np.ndarray,
    params: PhysicalParams,
    init: InitialState,
    grid: TimeGrid,
) -> Trajectory:
    """Integrate the reduced memory-kernel equations of motion.

    The convolution term is carried by one auxiliary amplitude, the
    memory Z (kernel against the simulated G); the emission accumulator
    is its multiple (2 / sqrt(big_gamma)) Z.  The anticipated input N is
    integrated backward once before the forward sweep.

    Beyond the series it returns, the run holds N and one block of
    inputs and affine maps: phi_in is formed before N, and N is freed
    after the run, ahead of y and phi_out.
    """
    grid.require_cover(pulse.duration)
    w = params.bandwidth_w
    drive = _grid_drive(drive, grid)
    phi_in = pulse.value(grid.times)
    src = partial(half_lattice_block, future_drive(pulse, params, grid))
    mem = 0.5 * w * params.big_gamma
    pg, pe, px, pz = _reduced_run(drive, src, 0.0, w, mem, params, init, grid)
    del src
    # h = (2 / sqrt(big_gamma)) f, so y = integral h G is that multiple of Z
    py = (2.0 / math.sqrt(params.big_gamma)) * pz
    return _trajectory(grid, phi_in, pg, pe, px, pz, py)


def simulate_markovian(
    pulse: InputPulse,
    drive: np.ndarray,
    params: PhysicalParams,
    init: InitialState,
    grid: TimeGrid,
) -> Trajectory:
    """Integrate the broadband-limit equations (memoryless cavity).

    This is the memory loop of :func:`simulate_nonmarkovian` in the
    W -> infinity limit, where N -> sqrt(big_gamma) phi_in and
    Z -> (big_gamma / 2) G: the source is the input itself, the memory
    collapses to the decay rate big_gamma / 2, and the pseudomode,
    stepped with no source and no decay, stays exactly zero.
    """
    grid.require_cover(pulse.duration)
    root_gamma = math.sqrt(params.big_gamma)
    drive = _grid_drive(drive, grid)

    def src(k0, k1):
        return root_gamma * pulse.value(grid.half_times_block(k0, k1))

    phi_in = pulse.value(grid.times)
    rate = 0.5 * params.big_gamma
    pg, pe, px, pz = _reduced_run(drive, src, rate, 0.0, 0.0, params, init, grid)
    return _trajectory(grid, phi_in, pg, pe, px, pz, root_gamma * pg)


@dataclass(frozen=True, eq=False)
class BathDiscretization:
    """Explicit frequency comb standing in for the bath continuum."""

    params: PhysicalParams
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
        w = self.params.bandwidth_w
        band = (
            self.params.big_gamma
            * w
            / math.pi
            * math.atan(self.band_halfwidth / w)
        )
        return float(np.sum(np.abs(self.weights) ** 2)) / band


def discretize_bath(
    params: PhysicalParams, n_modes: int, band_halfwidth: float
) -> BathDiscretization:
    """Midpoint sampling of the Lorentzian coupling
    ``kappa(omega) = sqrt(big_gamma / 2 pi) * W / (W - i omega)`` over
    [-B, B].

    The comb is mirrored bit for bit (:func:`_mirrored`): the frequencies
    ``(j - (n - 1) / 2) * spacing`` are exact negatives of each other in
    reverse, and as ``kappa(-omega) = conj(kappa(omega))``, so are the
    weights conjugates."""
    if n_modes < 2 or not band_halfwidth > 0.0:
        raise ValueError("need n_modes >= 2 and a positive band")
    spacing = 2.0 * band_halfwidth / n_modes
    freqs = (np.arange(n_modes) - 0.5 * (n_modes - 1)) * spacing
    w = params.bandwidth_w
    kappa = math.sqrt(params.big_gamma / (2.0 * math.pi)) * w / (w - 1j * freqs)
    weights = kappa * math.sqrt(spacing)
    return BathDiscretization(
        params=params,
        frequencies=freqs,
        weights=weights,
        band_halfwidth=band_halfwidth,
    )


def _conjugate_halves(v: np.ndarray) -> bool:
    """Whether ``v`` reversed equals its conjugate, zero signs aside."""
    return np.array_equal(v[::-1], np.conj(v))


def _mirrored(bath: BathDiscretization) -> bool:
    """Whether the comb pairs each mode with its mirror image bit for
    bit: an even number of modes, ``omega_{-j} = -omega_j`` and
    ``k_{-j} = conj(k_j)``.  :func:`discretize_bath` builds such combs."""
    f = bath.frequencies
    return (
        f.size % 2 == 0
        and np.array_equal(f[::-1], -f)
        and _conjugate_halves(bath.weights)
    )


def _projection_blocks(n_samples: int) -> tuple[int, int]:
    """Sizes L = ceil(sqrt(n)) and B = ceil(n / L) of the projection's
    blocks of ``n_samples`` samples."""
    inner = math.isqrt(n_samples - 1) + 1
    return inner, -(-n_samples // inner)


def comb_bytes(n_modes: int) -> int:
    """Bytes of the mode vectors an oracle run of ``n_modes`` holds, at
    most, on either path: :data:`_MODE_VECTORS` complex vectors per mode
    of the full complex comb (the real half-comb holds about half), and the
    :data:`_PHASE_BLOCKS` phase blocks of :data:`_PHASE_BYTES` that
    :func:`initial_modes` holds at once, whatever the comb, on any grid
    of up to 2**26 samples."""
    return 16 * _MODE_VECTORS * n_modes + _PHASE_BLOCKS * _PHASE_BYTES


def least_comb_modes(band_halfwidth: float, span: float) -> float:
    """Fewest modes of a comb over +-``band_halfwidth`` that resolve a
    grid of ``span``, ``inf`` when band x span overflows.

    A comb of spacing 2B/n repeats the photon every pi n / B (Poisson
    summation); a recurrence within the grid aliases the pulse, so
    ``n_modes >= band_halfwidth * span / pi``, to within the 1e-12 by
    which a grid's span may miss its configured value.
    """
    need = band_halfwidth * span / math.pi * (1.0 - 1e-12)
    return math.ceil(need) if need < math.inf else need


def initial_modes(
    pulse: InputPulse, bath: BathDiscretization, grid: TimeGrid
) -> tuple[np.ndarray, float]:
    """Mode amplitudes encoding the incoming single photon.

    Projects the input envelope onto the comb via a trapezoid Fourier
    transform, then renormalizes to exactly one photon in band.
    Returns the amplitudes together with the captured fraction before
    renormalization.  Raises ValueError for a comb too coarse to
    resolve the grid (:func:`least_comb_modes`), and
    :class:`BandTooNarrow` when the captured fraction falls below 0.999.

    The grid is uniform, so sample ``n = b*L + r`` carries the phase
    ``exp(i omega b L dt) * exp(i omega r dt)`` with ``L = ceil(sqrt(n))``:
    a mode's sum is its row of fine phases times the (L x B) sample
    matrix, weighted by its row of coarse phases -- O(modes * sqrt(n))
    exponentials instead of O(modes * n).  The modes are projected a
    block of rows at a time, each phase block at most
    :data:`_PHASE_BYTES` (on grids of up to 2**26 samples), so the
    projection holds :data:`_PHASE_BLOCKS` such blocks at most, whatever
    the comb.  With a single-threaded BLAS, every amplitude is bit for
    bit the one a single block of all the modes gives.

    A real envelope projects onto mirrored modes as conjugates,
    ``c(-omega) = conj(c(omega))``, so on a :func:`_mirrored` comb only
    the positive half is projected and the other half is its conjugate.
    """
    least = least_comb_modes(bath.band_halfwidth, grid.span)
    if bath.n_modes < least:
        raise ValueError(
            f"n_modes = {bath.n_modes} over +-{bath.band_halfwidth:g} MHz recurs "
            f"within the grid span {grid.span:g} us; it needs n_modes >= {least:.12g}"
        )
    phi = pulse.value(grid.times)
    weighted = phi * grid.dt
    weighted[0] *= 0.5
    weighted[-1] *= 0.5
    n_samples = weighted.size
    inner, outer = _projection_blocks(n_samples)
    padded = np.zeros(inner * outer, dtype=weighted.dtype)
    padded[:n_samples] = weighted
    samples = padded.reshape(outer, inner).T
    fine_t = grid.dt * np.arange(inner)
    coarse_t = inner * grid.dt * np.arange(outer)
    # L >= B, so a fine phase block is the largest; a block leaves room
    # for one more row
    rows = max(1, _PHASE_BYTES // (16 * inner) - 1)
    n = bath.n_modes
    lo = n // 2 if np.isrealobj(phi) and _mirrored(bath) else 0
    # a last block of one row joins the one before it: numpy takes a
    # one-row product through gemv, which sums in another order
    edges = [lo, *range(lo + rows, n - 1, rows), n]
    ft = np.empty(n, dtype=complex)
    for i0, i1 in zip(edges, edges[1:]):
        om = bath.frequencies[i0:i1, None]
        block = np.exp(1j * (om * fine_t)) @ samples
        block *= np.exp(1j * (om * coarse_t))
        ft[i0:i1] = np.sum(block, axis=1)
    ft[:lo] = np.conj(ft[n - lo :][::-1])
    c0 = -math.sqrt(bath.mode_spacing / (2.0 * math.pi)) * ft
    capture = float(np.sum(np.abs(c0) ** 2))
    if capture < _CAPTURE_FLOOR:
        raise BandTooNarrow(
            f"comb captures {capture:.6f} of the photon; "
            f"widen the band beyond +-{bath.band_halfwidth:g} MHz"
        )
    return c0 / math.sqrt(capture), capture


@dataclass(frozen=True, eq=False)
class DiscreteBathRun:
    """Oracle amplitudes g, e, x on the grid and the final mode vector,
    whose population ``sum |final_modes|^2`` is the photon that has left
    the cavity; ``capture`` is the fraction :func:`initial_modes` caught."""

    g: np.ndarray
    e: np.ndarray
    x: np.ndarray
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

    No memory kernel, no anticipated input, no emission accumulator: the
    photon lives in the mode amplitudes from the start, and what leaves
    the cavity is in them at the end.  Memory stays bounded by keeping
    only the system amplitudes per step and the mode vector at the end.

    The step is classical RK4 of the whole (3 + N)-dimensional system,
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

    On resonance with a real drive and a real-structured start
    (:func:`_real_field`), a :func:`_mirrored` comb from a mirrored start
    stays mirrored: ``kappa(-omega) = conj(kappa(omega))``, so G is real
    and ``c_{-j} = conj(c_j)`` at every step.  The same loop body then
    steps g, e and y = Im x as floats and only the positive half of the
    modes, through float views in its three vector lines; each moment is
    2 Re of the half's, so the rows of ``project`` fold to ``2 [Re, -Im]``.
    That halves the vector work and the mode vectors held, and G carries
    no rounding noise in an imaginary part.  Detuned or complex drives,
    complex-structured starts, odd combs (whose omega = 0 mode is its own
    image) and unmirrored combs or starts step the full complex comb.
    ``final_modes`` is the full comb on either path.
    """
    grid.require_cover(pulse.duration)
    gamma_l = params.gamma_L
    drive = _grid_drive(drive, grid)

    c, capture = initial_modes(pulse, bath, grid)
    real = _real_field(drive, params, init) and _mirrored(bath) and _conjugate_halves(c)
    couplings = _couplings(drive, params, grid, real)
    freqs, weights = bath.frequencies, bath.weights
    if real:
        half = bath.n_modes // 2
        freqs, weights, c = freqs[half:], weights[half:], c[half:].copy()

    n = grid.n_steps
    dt = grid.dt
    h = dt / 2.0
    sixth = dt / 6.0
    # powers of the scaled generator dt*D keep the moments O(|c|)
    z = -1j * dt * freqs
    project = np.stack([np.ones_like(z), z, z * z, z * z * z])
    lift = project * weights              # rows (dt D)^m k
    project *= np.conj(weights)           # rows conj(k) (dt D)^m
    gain = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    cv = c
    if real:
        # a mirrored pair's update and moments are conjugates, so the
        # half steps as float views and each moment is 2 Re of the half's:
        # project's rows fold to 2 [Re, -Im]
        cv, lift = c.view(float), lift.view(float)
        project = np.conjugate(project, out=project).view(float)
        project *= 2.0
    nu0, nu1, nu2 = (lift[:3] @ project[0]).tolist()

    pg = np.empty(n + 1, dtype=complex)
    pe = np.empty(n + 1, dtype=complex)
    px = np.zeros(n + 1, dtype=complex)
    g, e, x = complex(init.g_amp), complex(init.e_amp), complex(init.x_amp)
    pg[0], pe[0], px[0] = g, e, x
    xs = px
    if real:
        # y = Im x fills x's imaginary part; its real part stays +0
        g, e, x, xs = g.real, e.real, x.imag, px.imag
    mu0, mu1, mu2, mu3 = np.dot(project, cv).tolist()
    beta = np.empty(4, dtype=float if real else complex)

    for k0, k1, steps in _feed(n, couplings):
        og, oe, ox = [], [], []
        for cav0, cav1, cav2, sto0, sto1, sto2, rev0, rev1, rev2, bck0, bck1, bck2 in steps:
            g1 = g
            a1g = cav0 * x - mu0
            a1e = sto0 * x
            a1x = rev0 * e + bck0 * g - gamma_l * x

            g2, be, bx = g + h * a1g, e + h * a1e, x + h * a1x
            dot2 = mu0 + 0.5 * mu1 + h * g1 * nu0
            a2g = cav1 * bx - dot2
            a2e = sto1 * bx
            a2x = rev1 * be + bck1 * g2 - gamma_l * bx

            g3, be, bx = g + h * a2g, e + h * a2e, x + h * a2x
            dot3 = mu0 + 0.5 * mu1 + 0.25 * mu2 + h * g2 * nu0 + 0.5 * h * g1 * nu1
            a3g = cav1 * bx - dot3
            a3e = sto1 * bx
            a3x = rev1 * be + bck1 * g3 - gamma_l * bx

            g4, be, bx = g + dt * a3g, e + dt * a3e, x + dt * a3x
            dot4 = (
                mu0 + mu1 + 0.5 * mu2 + 0.25 * mu3
                + dt * g3 * nu0 + h * g2 * nu1 + 0.5 * h * g1 * nu2
            )
            a4g = cav2 * bx - dot4
            a4e = sto2 * bx
            a4x = rev2 * be + bck2 * g4 - gamma_l * bx

            g = g + sixth * (a1g + 2.0 * a2g + 2.0 * a3g + a4g)
            e = e + sixth * (a1e + 2.0 * a2e + 2.0 * a3e + a4e)
            x = x + sixth * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)

            beta[0] = sixth * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
            beta[1] = sixth * (g1 + g2 + g3)
            beta[2] = 0.5 * sixth * (g1 + g2)
            beta[3] = 0.25 * sixth * g1
            c *= gain
            cv += np.dot(beta, lift)
            mu0, mu1, mu2, mu3 = np.dot(project, cv).tolist()

            # a non-finite mode makes mu0 non-finite; a modulus past the
            # float maximum counts as an overflowed sum
            try:
                modes = abs(mu0) + abs(mu1) + abs(mu2) + abs(mu3)
            except OverflowError:
                modes = math.inf
            try:
                tot = abs(g) + abs(e) + abs(x) + modes
            except OverflowError:
                tot = math.inf
            if tot != tot or tot == math.inf:
                t = (k0 + len(og) + 1) * dt
                raise NonFiniteState.among(t, g=g, e=e, x=x, modes=modes)
            og.append(g)
            oe.append(e)
            ox.append(x)
        pg[k0 + 1 : k1 + 1], pe[k0 + 1 : k1 + 1], xs[k0 + 1 : k1 + 1] = og, oe, ox

    if real:
        c = np.concatenate([np.conj(c[::-1]), c])
    return DiscreteBathRun(g=pg, e=pe, x=px, final_modes=c, capture=capture)


@dataclass(frozen=True)
class StorageMetrics:
    """Scalar figures of merit extracted from one trajectory."""

    reflected: float
    final_excited: float
    final_cavity: float
    peak_intermediate: float


def storage_metrics(traj: Trajectory) -> StorageMetrics:
    """Reflected probability and final-state occupations."""
    out2 = np.abs(traj.phi_out) ** 2
    return StorageMetrics(
        reflected=float(np.trapezoid(out2, dx=traj.grid.dt)),
        final_excited=float(np.abs(traj.e[-1]) ** 2),
        final_cavity=float(np.abs(traj.g[-1]) ** 2),
        peak_intermediate=float(np.max(np.abs(traj.x) ** 2)),
    )
