"""Shared fixtures: one pulse, one lab grid, cached designs, the
generic RK4 that the package's unrolled stepping loops are checked
against, and the scalar RK4 loops of the two bath terms that the
package now solves as array recurrences.

The expensive pieces (equilibrium couplings, full drive designs) are
memoized per session so the suite stays fast even though many tests
revisit the same scenarios.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import photon_store as ps
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
            pulse_duration=PI,
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
        if not np.all(np.isfinite(y)):
            raise NonFiniteState((k + 1) * dt)
        path[k + 1] = y
    return path


@pytest.fixture(scope="session")
def rk4():
    """Classical RK4 of an explicit vector right-hand side: the
    reference for every hand-written stepping loop in the package."""
    return _rk4


def _future_drive_loop(pulse, model, grid) -> np.ndarray:
    """Anticipated input N by scalar RK4, backward from N(span) = 0."""
    grid.require_cover(pulse.duration)
    w = model.bandwidth_w
    pump = (w * math.sqrt(model.big_gamma) * pulse.value(grid.half_times)).tolist()

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
            raise NonFiniteState((k - 1) * dt)
        path[k - 1] = y
    return path


def _memory_series_loop(g_half, model, grid) -> np.ndarray:
    """Bath memory Z by scalar RK4 of Z' = -W Z + (W big_gamma / 2) G."""
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


@pytest.fixture(scope="session")
def future_drive_loop():
    """The scalar RK4 loop ``future_drive`` ran before it became an
    array recurrence: the reference for N."""
    return _future_drive_loop


@pytest.fixture(scope="session")
def memory_series_loop():
    """The scalar RK4 loop of the bath memory Z, the reference for
    ``pulse_design._memory_series``."""
    return _memory_series_loop
