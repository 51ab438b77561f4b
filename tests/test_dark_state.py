"""Adiabatic (dark-state) protocol and its agreement with the exact design."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import photon_store as ps
from photon_store import _integrate
from photon_store._integrate import half_lattice
from photon_store.errors import (
    AngleDomain,
    NegativeAccumulator,
    NonFiniteState,
    UnsupportedRegime,
)

PI = math.pi

DARK_RHO = 0.00075


@pytest.fixture(scope="module")
def dark_case(pulse, make_params, grid):
    """Memoized adiabatic designs keyed on (g_cav multiple of pi, W)."""
    cache: dict = {}

    def get(g_over_pi: float, w: float):
        key = (g_over_pi, w)
        if key not in cache:
            params = make_params(w, DARK_RHO, g_cav=g_over_pi * PI)
            cache[key] = (params, ps.adiabatic_design(pulse, params, grid))
        return cache[key]

    return get


# ------------------------------------------------------------- mixing angle


def test_mixing_angle_limits(mixing_angle_from_drive):
    g = 30.0 * PI
    phi = mixing_angle_from_drive(np.array([0.0, g, 1e12]), g)
    assert phi[0] == pytest.approx(PI / 2.0, rel=1e-12)
    assert phi[1] == pytest.approx(PI / 4.0, rel=1e-12)
    assert phi[2] == pytest.approx(0.0, abs=1e-10)


def test_dark_bright_rotation_is_unitary(dark_bright_amplitudes):
    rng = np.random.default_rng(7)
    g_amp = rng.normal(size=16)
    e_amp = rng.normal(size=16)
    phi = rng.uniform(0.0, PI / 2.0, size=16)
    d, b = dark_bright_amplitudes(g_amp, e_amp, phi)
    np.testing.assert_allclose(d * d + b * b, g_amp**2 + e_amp**2, rtol=1e-12)
    # a state along the dark direction maps to pure dark amplitude
    d0, b0 = dark_bright_amplitudes(-np.cos(phi), np.sin(phi), phi)
    np.testing.assert_allclose(d0, np.ones_like(phi), rtol=1e-12)
    np.testing.assert_allclose(b0, np.zeros_like(phi), atol=1e-12)


# ---------------------------------------------------------- protocol design


def test_adiabatic_design_start_limit(dark_case):
    _, dark = dark_case(30.0, 0.5)
    # at equilibrium the 0/0 limit of G/d1 is one: the protocol opens fully
    assert dark.cos_mixing[0] == pytest.approx(1.0, abs=1e-9)
    assert dark.d1[0] == 0.0
    assert math.isinf(dark.omega_adiabatic[0])


def test_adiabatic_design_stores_the_photon(dark_case):
    _, dark = dark_case(30.0, 0.5)
    assert dark.d1[-1] ** 2 == pytest.approx(1.0, abs=1e-6)


def test_adiabatic_design_rejects_detuned_scenarios(pulse, make_params, grid):
    params = make_params(0.5, DARK_RHO, delta2=5.0)
    with pytest.raises(UnsupportedRegime):
        ps.adiabatic_design(pulse, params, grid)


def test_negative_dark_weight_is_reported(make_params, grid):
    # an envelope with a deep negative lobe drives the accumulated dark
    # population below zero, which the protocol cannot represent
    wob = ps.InputPulse(
        duration=PI,
        _value=lambda t: 0.2 * (-0.25 + 0.5 * np.cos(2.0 * t) - 0.25 * np.cos(4.0 * t)),
        _d1=lambda t: 0.2 * (-np.sin(2.0 * t) + np.sin(4.0 * t)),
        _d2=lambda t: 0.2 * (-2.0 * np.cos(2.0 * t) + 4.0 * np.cos(4.0 * t)),
        _d3=lambda t: 0.2 * (4.0 * np.sin(2.0 * t) - 16.0 * np.sin(4.0 * t)),
    )
    params = make_params(
        2.0, 0.9, gamma_L=0.0, big_gamma=16.029934985578567
    )
    with pytest.raises(NegativeAccumulator):
        ps.adiabatic_design(wob, params, grid)


def test_undercoupled_cavity_breaks_the_angle_domain(pulse, make_params, grid):
    # half the equilibrium coupling makes G outgrow d1, so cos(phi) > 1
    params = make_params(
        2.0, 0.2, gamma_L=0.0, big_gamma=16.029934985578567 / 2.0
    )
    with pytest.raises(AngleDomain):
        ps.adiabatic_design(pulse, params, grid)


# ------------------------------------------------------- forward integration


def test_adiabatic_run_is_reflection_free(pulse, dark_case, grid):
    _, dark = dark_case(30.0, 0.5)
    run = ps.adiabatic_simulate(pulse, dark)
    reflected = float(np.trapezoid(np.abs(run.phi_out) ** 2, dx=grid.dt))
    assert reflected < 1e-12
    assert np.max(np.abs(run.d1 - dark.d1)) < 1e-6


def test_adiabatic_bookkeeping_drift(pulse, dark_case):
    _, dark = dark_case(30.0, 0.5)
    run = ps.adiabatic_simulate(pulse, dark)
    assert ps.conservation_drift(run) < 1e-6


def adiabatic_rhs(dark, params):
    """The dark-only equations as an explicit vector right-hand side."""
    w = params.bandwidth_w
    big_gamma = params.big_gamma
    cos_h = half_lattice(dark.cos_mixing)
    n_h = half_lattice(dark.design.n_drive)

    def rhs(j, s):
        d1s, q = s
        u = cos_h[j] * d1s
        return np.array([cos_h[j] * (n_h[j] - q), -w * q + 0.5 * w * big_gamma * u])

    return rhs


def test_adiabatic_run_is_rk4_bit_for_bit(pulse, dark_case, grid, rk4, scalar_loops):
    params, dark = dark_case(30.0, 0.5)
    run = ps.adiabatic_simulate(pulse, dark)
    path = rk4(np.zeros(2), adiabatic_rhs(dark, params), grid.dt, grid.n_steps).real
    assert np.array_equal(run.d1, path[:, 0])
    assert np.array_equal(run.q_mem, path[:, 1])
    y = (2.0 / math.sqrt(params.big_gamma)) * path[:, 1]
    assert np.array_equal(run.phi_out, y - pulse.value(grid.times))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("series", ["angle", "drive"])
def test_adiabatic_run_and_rk4_fail_at_the_same_time(pulse, dark_case, grid, rk4, series):
    params, dark = dark_case(30.0, 0.5)
    if series == "angle":
        angle = dark.mixing_angle.copy()
        angle[1500] = np.nan
        broken = replace(dark, mixing_angle=angle)
    else:
        n_drive = dark.design.n_drive.copy()
        n_drive[1500] = np.nan
        broken = replace(dark, design=replace(dark.design, n_drive=n_drive))
    with pytest.raises(NonFiniteState) as run_err:
        ps.adiabatic_simulate(pulse, broken)
    with pytest.raises(NonFiniteState) as rk4_err:
        rk4(np.zeros(2), adiabatic_rhs(broken, params), grid.dt, grid.n_steps)
    assert run_err.value.t == rk4_err.value.t < grid.span


@pytest.fixture(scope="module")
def block_dark(pulse, make_params):
    """The (30 pi, W = 0.5) design on a grid of three full blocks of the
    loop's input feed and a partial fourth."""
    n = 3 * _integrate._BLOCK + 517
    grid = ps.TimeGrid.from_span(PI, PI / n)
    params = make_params(0.5, DARK_RHO)
    return params, grid, ps.adiabatic_design(pulse, params, grid)


def test_adiabatic_run_is_rk4_bit_for_bit_across_blocks(pulse, block_dark, rk4, scalar_loops):
    params, grid, dark = block_dark
    assert grid.n_steps > 3 * _integrate._BLOCK and grid.n_steps % _integrate._BLOCK
    run = ps.adiabatic_simulate(pulse, dark)
    path = rk4(np.zeros(2), adiabatic_rhs(dark, params), grid.dt, grid.n_steps).real
    assert np.array_equal(run.d1, path[:, 0])
    assert np.array_equal(run.q_mem, path[:, 1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("series", ["angle", "drive"])
def test_adiabatic_run_and_rk4_fail_alike_in_a_later_block(
    pulse, block_dark, rk4, series
):
    params, grid, dark = block_dark
    at = 2 * _integrate._BLOCK + 300
    if series == "angle":
        angle = dark.mixing_angle.copy()
        angle[at] = np.nan
        broken = replace(dark, mixing_angle=angle)
    else:
        n_drive = dark.design.n_drive.copy()
        n_drive[at] = np.nan
        broken = replace(dark, design=replace(dark.design, n_drive=n_drive))
    with pytest.raises(NonFiniteState) as run_err:
        ps.adiabatic_simulate(pulse, broken)
    with pytest.raises(NonFiniteState) as rk4_err:
        rk4(np.zeros(2), adiabatic_rhs(broken, params), grid.dt, grid.n_steps)
    assert run_err.value.t == rk4_err.value.t
    assert 2 * _integrate._BLOCK * grid.dt < run_err.value.t < grid.span
    assert run_err.value.amplitude == "dq"[int(rk4_err.value.amplitude[2:-1])]


def test_cos_mixing_is_evaluated_once_per_design(dark_case):
    _, dark = dark_case(30.0, 0.5)
    assert dark.cos_mixing is dark.cos_mixing
    assert np.array_equal(dark.cos_mixing, np.cos(dark.mixing_angle))
    turned = replace(dark, mixing_angle=dark.mixing_angle[::-1].copy())
    assert np.array_equal(turned.cos_mixing, np.cos(dark.mixing_angle[::-1]))


# the largest gap of the block recurrences from the loop, relative to a
# series' largest modulus, over the dark presets' parameters and the
# resonant random draws at dt = 1e-4 and 1e-3: 3.8e-14
DARK_REL = 1e-12


@pytest.mark.parametrize("g_over_pi,w", [(30.0, 0.5), (30.0, 25.0), (14.0, 25.0)])
def test_adiabatic_run_tracks_the_scalar_loop(pulse, dark_case, loop_run, g_over_pi, w):
    _, dark = dark_case(g_over_pi, w)
    run = ps.adiabatic_simulate(pulse, dark)
    ref = loop_run(ps.adiabatic_simulate, pulse, dark)
    for name in ("d1", "q_mem", "flux_cumulative"):
        got, want = getattr(run, name), getattr(ref, name)
        assert np.max(np.abs(got - want)) <= DARK_REL * np.max(np.abs(want)), name
    assert np.max(np.abs(run.phi_out - ref.phi_out)) <= DARK_REL


def test_adiabatic_run_tracks_the_scalar_loop_across_blocks(pulse, block_dark, loop_run):
    _, _, dark = block_dark
    run = ps.adiabatic_simulate(pulse, dark)
    ref = loop_run(ps.adiabatic_simulate, pulse, dark)
    for name in ("d1", "q_mem"):
        got, want = getattr(run, name), getattr(ref, name)
        assert np.max(np.abs(got - want)) <= DARK_REL * np.max(np.abs(want)), name


def test_adiabatic_run_builds_float_maps(pulse, dark_case, built_map_types):
    _, dark = dark_case(30.0, 0.5)
    ps.adiabatic_simulate(pulse, dark)
    assert built_map_types == {np.dtype(float)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cause", ["nan_angle", "nan_drive", "huge_drive"])
def test_a_later_dark_block_that_blows_up_raises_as_the_loop(
    pulse, block_dark, loop_runs, loop_run, cause
):
    _, grid, dark = block_dark
    at = 2 * _integrate._BLOCK + 300
    if cause == "nan_angle":
        angle = dark.mixing_angle.copy()
        angle[at] = np.nan
        broken = replace(dark, mixing_angle=angle)
    else:
        n_drive = dark.design.n_drive.copy()
        if cause == "nan_drive":
            n_drive[at] = np.nan
        else:
            n_drive[at:] = 1e308
        broken = replace(dark, design=replace(dark.design, n_drive=n_drive))
    with pytest.raises(NonFiniteState) as run_err:
        ps.adiabatic_simulate(pulse, broken)
    assert len(loop_runs) == 1
    with pytest.raises(NonFiniteState) as loop_err:
        loop_run(ps.adiabatic_simulate, pulse, broken)
    run, loop = run_err.value, loop_err.value
    assert (run.t, run.amplitude, str(run)) == (loop.t, loop.amplitude, str(loop))
    assert 2 * _integrate._BLOCK * grid.dt < run.t < grid.span


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_dark_block_near_overflow_is_stepped_by_the_loop(
    pulse, block_dark, loop_runs, loop_run
):
    # N scaled to 1e305 drives d1 to 1e305: near enough to the float
    # maximum for the blocks not to settle, yet no stage of the scalar
    # loop overflows
    _, _, dark = block_dark
    huge = replace(dark, design=replace(dark.design, n_drive=1e305 * dark.design.n_drive))
    run = ps.adiabatic_simulate(pulse, huge)
    assert len(loop_runs) == 1
    ref = loop_run(ps.adiabatic_simulate, pulse, huge)
    for name in ("d1", "q_mem"):
        series = getattr(run, name)
        assert np.isfinite(series).all(), name
        assert np.array_equal(series, getattr(ref, name)), name
    assert np.max(run.d1) > 1e304


# ------------------------------------------------------ dual-route population


def test_exact_dark_population_starts_at_the_seed(dark_case):
    params, dark = dark_case(30.0, 0.5)
    exact = ps.exact_dark_population(dark.design)
    # the drive is silent at t = 0, so the dark state is all seed
    assert exact[0] == pytest.approx(-math.sqrt(params.rho_offset), rel=1e-9)


@pytest.mark.parametrize(
    "g_over_pi,w,expected",
    [
        (30.0, 0.5, 0.018392),
        (30.0, 25.0, 0.026950),
        (20.0, 25.0, 0.061575),
        (14.0, 25.0, 0.126447),
    ],
)
def test_dark_population_agreement_frozen_values(dark_case, g_over_pi, w, expected):
    _, dark = dark_case(g_over_pi, w)
    assert ps.compare_dark(dark).sup_diff == pytest.approx(expected, rel=1e-3)


def test_agreement_improves_with_coupling(dark_case):
    sups = [ps.compare_dark(dark_case(g, 25.0)[1]).sup_diff for g in (14.0, 20.0, 30.0)]
    assert sups[0] > sups[1] > sups[2]


def test_adiabatic_drive_gap_peaks_early(dark_case, grid):
    _, dark = dark_case(30.0, 0.5)
    gap = np.abs(dark.omega_adiabatic - dark.design.drive.real)
    ok = np.isfinite(gap)
    t_star = grid.times[ok][np.argmax(gap[ok])]
    assert 0.0 <= t_star <= 0.5


# -------------------------------------------------------------- margin score


def test_adiabaticity_margin_formula(make_params):
    params = make_params(0.5, DARK_RHO)
    expected = params.g_cav**2 / (params.gamma_L * params.big_gamma)
    assert ps.adiabaticity_margin(params) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(5.894, rel=1e-3)


@pytest.mark.parametrize(
    "g_over_pi,w,expected",
    [(30.0, 25.0, 18.044), (14.0, 25.0, 3.930)],
)
def test_adiabaticity_margin_frozen_values(make_params, g_over_pi, w, expected):
    params = make_params(w, DARK_RHO, g_cav=g_over_pi * PI)
    assert ps.adiabaticity_margin(params) == pytest.approx(expected, rel=1e-3)


def test_margin_is_infinite_without_loss(make_params):
    params = make_params(0.5, DARK_RHO, gamma_L=0.0)
    assert math.isinf(ps.adiabaticity_margin(params))
