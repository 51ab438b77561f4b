"""Shared fixtures: one pulse, one lab grid, cached designs, and the
generic RK4 that the package's unrolled stepping loops are checked
against.

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
