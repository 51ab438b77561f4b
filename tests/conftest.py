"""Shared fixtures: one pulse, one lab grid, cached designs, the
generic RK4 that the package's unrolled stepping loops are checked
against, a switch that makes the forward routes step those loops, the
scalar RK4 loops of the two bath terms that the package now solves as
array recurrences, and the direct reference formulas
(kernels, convolutions, rotations) that only the tests use, and the
traced memory peak of a call.

The expensive pieces (equilibrium couplings, full drive designs) are
memoized per session so the suite stays fast even though many tests
revisit the same scenarios.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import photon_store as ps
from photon_store import dark_state, dynamics
from photon_store.errors import NonFiniteState

PI = math.pi


@pytest.fixture(scope="session")
def pulse():
    return ps.builtin_packet()


@pytest.fixture(scope="session")
def grid():
    return ps.TimeGrid.from_span(PI, 1e-4)


@pytest.fixture(scope="session")
def gamma_of(pulse):
    """Equilibrium cavity decay for a given bath bandwidth, memoized."""
    cache: dict[float, float] = {}

    def get(w: float) -> float:
        if w not in cache:
            cache[w] = ps.coupling_from_bandwidth(pulse, w)
        return cache[w]

    return get


@pytest.fixture(scope="session")
def make_params(gamma_of):
    def make(
        w: float,
        rho: float,
        g_cav: float = 30.0 * PI,
        gamma_L: float = 6.0 * PI,
        delta1: float = 0.0,
        delta2: float = 0.0,
        big_gamma: float | None = None,
    ) -> ps.PhysicalParams:
        return ps.PhysicalParams(
            g_cav=g_cav,
            gamma_L=gamma_L,
            delta1=delta1,
            delta2=delta2,
            big_gamma=big_gamma if big_gamma is not None else gamma_of(w),
            bandwidth_w=w,
            rho_offset=rho,
        )

    return make


@pytest.fixture(scope="session")
def design_for(pulse, grid, make_params):
    """(params, design) for a scenario, memoized on the call signature."""
    cache: dict = {}

    def get(w: float, rho: float, **kw):
        key = (w, rho, tuple(sorted(kw.items())))
        if key not in cache:
            params = make_params(w, rho, **kw)
            cache[key] = (params, ps.design_drive(pulse, params, grid))
        return cache[key]

    return get


def _rk4(y0, rhs, dt: float, n_steps: int) -> np.ndarray:
    """Integrate forward from t = 0; returns the (n_steps+1, dim) path.

    ``rhs(j, y)`` receives the half-lattice index of the stage time
    (j = 2k at t_k, j = 2k + 1 at the midpoint).  Raises
    :class:`NonFiniteState` as soon as an amplitude stops being finite.
    """
    y = np.array(y0, dtype=complex)
    path = np.empty((n_steps + 1, y.size), dtype=complex)
    path[0] = y
    h = dt / 2.0
    for k in range(n_steps):
        j = 2 * k
        k1 = rhs(j, y)
        k2 = rhs(j + 1, y + h * k1)
        k3 = rhs(j + 1, y + h * k2)
        k4 = rhs(j + 2, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        finite = np.isfinite(y)
        if not finite.all():
            raise NonFiniteState((k + 1) * dt, f"y[{int(np.argmin(finite))}]")
        path[k + 1] = y
    return path


def _traced_peak(fn):
    """``(peak, result)`` of ``fn()``: the largest memory traced while
    it ran, in bytes, and what it returned."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    return _traced_peak


def _loops_only(patch):
    """Make the reduced and dark-state routes step their scalar RK4
    loops, the reference their block recurrences stand for: every run
    takes the path of a block the recurrences cannot settle."""
    for module in (dynamics, dark_state):
        patch.setattr(module, "_affine_run", lambda *args: False)


def _loop_run(fn, *args):
    """``fn(*args)`` with the forward routes stepped by their scalar loops."""
    with pytest.MonkeyPatch.context() as patch:
        _loops_only(patch)
        return fn(*args)


@pytest.fixture
def scalar_loops(monkeypatch):
    _loops_only(monkeypatch)


@pytest.fixture(scope="session")
def loop_run():
    return _loop_run


@pytest.fixture
def built_map_types(monkeypatch):
    """The dtypes of the affine maps that the forward routes build in
    the test, collected as they are built."""
    seen = set()
    build = dynamics._rk4_affine_maps

    def spy(*args):
        maps = build(*args)
        seen.add(maps.dtype)
        return maps

    monkeypatch.setattr(dynamics, "_rk4_affine_maps", spy)
    return seen


@pytest.fixture(scope="session")
def rk4():
    """Classical RK4 of an explicit vector right-hand side: the
    reference for every hand-written stepping loop in the package."""
    return _rk4


def _future_drive_loop(pulse, params, grid) -> np.ndarray:
    """Anticipated input N by scalar RK4, backward from N(span) = 0."""
    grid.require_cover(pulse.duration)
    w = params.bandwidth_w
    pump = (w * math.sqrt(params.big_gamma) * pulse.value(grid.half_times)).tolist()

    # scalar RK4 run backward from the terminal condition N(span) = 0
    n = grid.n_steps
    dt = grid.dt
    h = -dt / 2.0
    sixth = dt / 6.0
    path = np.empty(n + 1)
    y = 0.0
    path[n] = y
    for k in range(n, 0, -1):
        j = 2 * k
        k1 = w * y - pump[j]
        k2 = w * (y + h * k1) - pump[j - 1]
        k3 = w * (y + h * k2) - pump[j - 1]
        k4 = w * (y - dt * k3) - pump[j - 2]
        y = y - sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if y - y != 0.0:
            raise NonFiniteState((k - 1) * dt, "N")
        path[k - 1] = y
    return path


def _memory_series_loop(g_half, params, grid) -> np.ndarray:
    """Bath memory Z by scalar RK4 of Z' = -W Z + (W big_gamma / 2) G."""
    w = params.bandwidth_w
    feed = (0.5 * w * params.big_gamma * g_half).tolist()

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
            raise NonFiniteState((k + 1) * dt, "Z")
        out[k + 1] = z
    return out


@pytest.fixture(scope="session")
def future_drive_loop():
    """The scalar RK4 loop ``future_drive`` ran before it became an
    array recurrence: the reference for N."""
    return _future_drive_loop


@pytest.fixture(scope="session")
def memory_series_loop():
    """The scalar RK4 loop of the bath memory Z, the reference for
    the memory recurrence inside ``design_drive``."""
    return _memory_series_loop


# ------------------------------------------------------------------------
# Reference routes that only the tests need.  The package computes the
# same quantities through recurrences and closed forms; these are the
# direct formulas those routes are checked against.


def _norm_squared(pulse, dt_nominal: float = 1e-5) -> float:
    """Trapezoid estimate of ``integral |phi_in|^2 dt``."""
    grid = ps.TimeGrid.from_span(pulse.duration, dt_nominal)
    v = pulse.value(grid.times)
    return float(np.trapezoid(v * v, dx=grid.dt))


def _coupling_trapezoid(pulse, w: float, dt_nominal: float = 1e-5) -> float:
    """Equilibrium coupling with the weighted pulse area taken by the
    trapezoid rule on a fine uniform grid."""
    grid = ps.TimeGrid.from_span(pulse.duration, dt_nominal)
    t = grid.times
    area = float(np.trapezoid(np.exp(-w * t) * pulse.value(t), dx=grid.dt))
    return float(pulse.d2(0.0)) / (w * w * area)


def _coupling(params, omega) -> np.ndarray:
    """Complex mode coupling kappa(omega) of the Lorentzian bath."""
    w = params.bandwidth_w
    om = np.asarray(omega, dtype=float)
    return math.sqrt(params.big_gamma / (2.0 * math.pi)) * w / (w - 1j * om)


def _spectral_density(params, omega) -> np.ndarray:
    """Spectral density J(omega) = |kappa(omega)|^2."""
    w = params.bandwidth_w
    om = np.asarray(omega, dtype=float)
    return (params.big_gamma / (2.0 * math.pi)) * w * w / (w * w + om * om)


def _impulse_response(params, t) -> np.ndarray:
    """Causal response h(t) feeding the input field into the cavity."""
    w = params.bandwidth_w
    tt = np.asarray(t, dtype=float)
    decay = np.exp(-w * np.maximum(tt, 0.0))
    out = np.where(tt >= 0.0, w * math.sqrt(params.big_gamma) * decay, 0.0)
    return out if out.ndim else float(out)


def _memory_kernel(params, t) -> np.ndarray:
    """Two-sided kernel f(t) damping the cavity amplitude."""
    w = params.bandwidth_w
    tt = np.abs(np.asarray(t, dtype=float))
    out = 0.5 * w * params.big_gamma * np.exp(-w * tt)
    return out if out.ndim else float(out)


def _direct_memory_convolution(pulse, params, grid, indices=None) -> np.ndarray:
    """Memory integral Z by direct trapezoid convolution of the kernel
    against the perfect-absorption cavity amplitude
    ``G = (phi_in' + W phi_in) / (W sqrt(big_gamma))``: O(n) per
    evaluated index (every grid point by default, O(n^2) in total)."""
    t = grid.times
    w = params.bandwidth_w
    g = (pulse.d1(t) + w * pulse.value(t)) / (w * math.sqrt(params.big_gamma))
    if indices is None:
        indices = np.arange(t.size)
    out = np.empty(len(indices), dtype=float)
    for i, k in enumerate(indices):
        if k == 0:
            out[i] = 0.0
            continue
        kern = _memory_kernel(params, t[k] - t[: k + 1])
        out[i] = np.trapezoid(kern * g[: k + 1], dx=grid.dt)
    return out


def _one_block_projection(pulse, bath, grid) -> tuple[np.ndarray, float]:
    """Mode amplitudes and captured fraction of the trapezoid Fourier
    projection with every mode in one phase block: the (modes x L) fine
    phases times the (L x B) sample matrix, weighted by the (modes x B)
    coarse phases, then renormalized, with no capture floor."""
    weighted = pulse.value(grid.times) * grid.dt
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
    return c0 / math.sqrt(capture), capture


def _reconstruct_output(bath, modes, t_snapshot: float, times) -> np.ndarray:
    """Free-evolve a comb snapshot into the emitted envelope at
    ``times >= t_snapshot``: the phased sum of the mode amplitudes."""
    tt = np.asarray(times, dtype=float)[:, None] - t_snapshot
    phases = np.exp(-1j * bath.frequencies[None, :] * tt)
    return (
        math.sqrt(bath.mode_spacing / (2.0 * math.pi))
        * np.sum(phases * modes[None, :], axis=1)
    )


def _mixing_angle_from_drive(drive, g_cav: float) -> np.ndarray:
    """Angle phi with tan(phi) = g_cav / drive for a real drive,
    continuous through drive zeros (phi = pi/2) and sign changes."""
    return np.arctan2(g_cav, np.asarray(drive, dtype=float))


def _dark_bright_amplitudes(g_amp, e_amp, phi):
    """Rotate (cavity, storage) amplitudes into the (dark, bright) pair:
    ``dark = -cos(phi) g + sin(phi) e``, ``bright = sin(phi) g +
    cos(phi) e``."""
    c, s = np.cos(phi), np.sin(phi)
    return -c * g_amp + s * e_amp, s * g_amp + c * e_amp


@pytest.fixture(scope="session")
def norm_squared():
    return _norm_squared


@pytest.fixture(scope="session")
def coupling_trapezoid():
    """Equilibrium coupling by a fine fixed-grid trapezoid: the
    reference for sampled pulses, which have no closed form."""
    return _coupling_trapezoid


@pytest.fixture(scope="session")
def coupling():
    return _coupling


@pytest.fixture(scope="session")
def spectral_density():
    return _spectral_density


@pytest.fixture(scope="session")
def impulse_response():
    return _impulse_response


@pytest.fixture(scope="session")
def memory_kernel():
    return _memory_kernel


@pytest.fixture(scope="session")
def direct_memory_convolution():
    """The O(n^2) reference for the memory recurrence of the design."""
    return _direct_memory_convolution


@pytest.fixture(scope="session")
def one_block_projection():
    """The comb's Fourier projection as one phase block: the reference
    that ``initial_modes``, which projects a block of modes at a time,
    must match bit for bit."""
    return _one_block_projection


@pytest.fixture(scope="session")
def reconstruct_output():
    return _reconstruct_output


@pytest.fixture(scope="session")
def mixing_angle_from_drive():
    return _mixing_angle_from_drive


@pytest.fixture(scope="session")
def dark_bright_amplitudes():
    return _dark_bright_amplitudes
