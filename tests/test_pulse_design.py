"""Inverse design chain: coupling choice, amplitudes, drive quadratures."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photon_store as ps
from photon_store import pulse_design as pd
from photon_store._integrate import _rk4_linear
from photon_store.errors import (
    DegeneratePulse,
    GridMismatch,
    InfeasibleDesign,
    NonFiniteState,
)

PI = math.pi


def closed_form_coupling(w: float) -> float:
    """Equilibrium coupling for the built-in T = pi envelope."""
    num = (w**2 + 4.0) * (w**2 + 16.0) * (w**2 + 36.0)
    den = w * (w**4 + 28.0 * w**2 + 72.0) * (1.0 - math.exp(-PI * w))
    return num / den


# ------------------------------------------------- coupling_from_bandwidth


@pytest.mark.parametrize(
    "w,expected",
    [
        (0.5, 79.9500147136),
        (1.0, 32.5450113205),
        (2.0, 16.029934985578567),
        (5.0, 10.3835377137),
        (25.0, 26.1156185861),
        (1.6716, 18.84938861181803),
    ],
)
def test_equilibrium_coupling_frozen_values(gamma_of, w, expected):
    assert gamma_of(w) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("w", [0.5, 1.0, 1.6716, 2.0, 5.0, 17.238, 25.0])
def test_equilibrium_coupling_matches_closed_form(gamma_of, w):
    assert gamma_of(w) == pytest.approx(closed_form_coupling(w), rel=1e-6)


def test_equilibrium_coupling_hand_value(gamma_of):
    assert gamma_of(2.0) == pytest.approx(
        6400.0 / (400.0 * (1.0 - math.exp(-2.0 * PI))), rel=1e-6
    )


def test_equilibrium_coupling_broadband_asymptote(gamma_of):
    # for W far above the pulse bandwidth the constraint gives Gamma -> W
    assert 0.98 < gamma_of(100.0) / 100.0 < 1.02


def test_flat_start_envelope_is_degenerate():
    flat = ps.InputPulse(
        duration=PI,
        _value=lambda t: np.sin(t) ** 4,
        _d1=lambda t: 4.0 * np.sin(t) ** 3 * np.cos(t),
        _d2=lambda t: 2.0 * np.cos(2.0 * t) - 2.0 * np.cos(4.0 * t),
    )
    with pytest.raises(DegeneratePulse):
        ps.coupling_from_bandwidth(flat, 2.0)


def test_negative_weighted_area_is_degenerate():
    # curvature at zero is fine but the decay-weighted area is negative
    wob = ps.InputPulse(
        duration=PI,
        _value=lambda t: -0.25 + 0.5 * np.cos(2.0 * t) - 0.25 * np.cos(4.0 * t),
        _d1=lambda t: -np.sin(2.0 * t) + np.sin(4.0 * t),
        _d2=lambda t: -2.0 * np.cos(2.0 * t) + 4.0 * np.cos(4.0 * t),
    )
    with pytest.raises(DegeneratePulse):
        ps.coupling_from_bandwidth(wob, 2.0)


# -------------------------------------------------------- cavity amplitude


def test_cavity_amplitude_zero_crossing(pulse, gamma_of, grid):
    # at W = 2 the combination d1 + W * value vanishes at t = pi/4
    model = ps.SpectralModel(big_gamma=gamma_of(2.0), bandwidth_w=2.0)
    cav = ps.cavity_amplitude(pulse, model, grid)
    k = round((PI / 4.0) / grid.dt)
    assert abs(cav.g[k]) < 1e-12


def test_cavity_amplitude_matches_definition(pulse, gamma_of, grid):
    w = 2.0
    gam = gamma_of(w)
    model = ps.SpectralModel(big_gamma=gam, bandwidth_w=w)
    cav = ps.cavity_amplitude(pulse, model, grid)
    t = grid.times
    expected = (pulse.d1(t) + w * pulse.value(t)) / (w * math.sqrt(gam))
    np.testing.assert_allclose(cav.g, expected, rtol=0, atol=1e-14)
    assert cav.g[0] == pytest.approx(0.0, abs=1e-14)
    assert cav.g_dot[0] == pytest.approx(
        (64.0 / math.sqrt(7.0 * PI)) / (w * math.sqrt(gam)), rel=1e-12
    )


def test_cavity_amplitude_rejects_short_grid(pulse, gamma_of):
    short = ps.TimeGrid.from_span(1.0, 1e-4)
    model = ps.SpectralModel(big_gamma=gamma_of(2.0), bandwidth_w=2.0)
    with pytest.raises(GridMismatch):
        ps.cavity_amplitude(pulse, model, short)


def test_missing_third_derivative_falls_back_to_differences(pulse, design_for, grid):
    params, ref = design_for(2.0, 0.002)
    nod3 = ps.InputPulse(
        duration=PI, _value=pulse._value, _d1=pulse._d1, _d2=pulse._d2
    )
    alt = ps.design_drive(nod3, params, grid)
    assert np.max(np.abs(alt.x_tilde_dot - ref.x_tilde_dot)) < 1e-4
    assert np.max(np.abs(alt.drive - ref.drive)) < 2e-3


# --------------------------------------------------- intermediate amplitude


def test_intracavity_memory_term_matches_direct_convolution(
    pulse, make_params, grid
):
    params = make_params(2.0, 0.002)
    series = ps.intracavity_amplitude(pulse, params, grid)
    k = round(0.8 / grid.dt)
    z = pd.direct_memory_convolution(pulse, params, grid, indices=[k])[0]
    model = ps.SpectralModel.from_params(params)
    cav = ps.cavity_amplitude(pulse, model, grid)
    n = ps.future_drive(pulse, model, grid)
    direct = (-cav.g_dot[k] + n[k] - z) / params.g_cav
    assert abs(series.x_tilde[k] - direct) < 1e-8


def test_intracavity_matches_convolution_on_refined_grid(pulse, make_params):
    # the auxiliary-variable route and the O(n^2) kernel quadrature agree
    fine = ps.TimeGrid.from_span(PI, 1e-5)
    params = make_params(2.0, 0.002)
    series = ps.intracavity_amplitude(pulse, params, fine)
    k = round(0.8 / fine.dt)
    z = pd.direct_memory_convolution(pulse, params, fine, indices=[k])[0]
    model = ps.SpectralModel.from_params(params)
    cav = ps.cavity_amplitude(pulse, model, fine)
    n = ps.future_drive(pulse, model, fine)
    direct = (-cav.g_dot[k] + n[k] - z) / params.g_cav
    assert abs(series.x_tilde[k] - direct) < 1e-6


def test_direct_convolution_index_subset_is_consistent(pulse, make_params, grid):
    coarse = ps.TimeGrid.from_span(PI, 1e-3)
    params = make_params(2.0, 0.002)
    full = pd.direct_memory_convolution(pulse, params, coarse)
    some = pd.direct_memory_convolution(pulse, params, coarse, indices=[0, 100, 1000])
    np.testing.assert_allclose(
        some, full[[0, 100, 1000]], rtol=1e-12, atol=1e-15
    )


# ------------------------------------------- bath-term recurrences N and Z


def _g_half(pulse, model, grid):
    """Perfect-absorption G on the half lattice: the memory's source."""
    w = model.bandwidth_w
    th = grid.half_times
    return (pulse.d1(th) + w * pulse.value(th)) / (w * math.sqrt(model.big_gamma))


def _rel(values, ref):
    return np.max(np.abs(values - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize(
    "w,dt",
    [(0.5, 1e-4), (1.6716, 1e-4), (25.0, 1e-4), (400.0, 1e-4), (1.6716, 5e-5)],
)
def test_bath_terms_match_the_scalar_loops(
    pulse, make_params, future_drive_loop, memory_series_loop, w, dt
):
    grid = ps.TimeGrid.from_span(PI, dt)
    params = make_params(w, 0.002)
    model = ps.SpectralModel.from_params(params)
    mid = ps.intracavity_amplitude(pulse, params, grid)
    n_ref = future_drive_loop(pulse, model, grid)
    assert _rel(ps.future_drive(pulse, model, grid), n_ref) <= 1e-13
    assert _rel(mid.n_drive, n_ref) <= 1e-13
    z_ref = memory_series_loop(_g_half(pulse, model, grid), model, grid)
    assert _rel(mid.z_mem, z_ref) <= 1e-13


def test_anticipated_input_keeps_the_equilibrium_digits(pulse, gamma_of, grid):
    # criterion 03's 1e-8 cannot see a bias in the recurrence's powers:
    # forming them as r**k puts N(0) 3e-13 off G'(0) at W = 0.5
    model = ps.SpectralModel(big_gamma=gamma_of(0.5), bandwidth_w=0.5)
    g_dot0 = ps.cavity_amplitude(pulse, model, grid).g_dot[0]
    n0 = ps.future_drive(pulse, model, grid)[0]
    assert abs(g_dot0 - n0) / abs(g_dot0) <= 1e-14


def _nan_near(pulse, t0):
    """``pulse`` with its envelope replaced by NaN around t0."""

    def value(t):
        return np.where(np.abs(t - t0) < 3e-4, np.nan, pulse.value(t))

    return ps.InputPulse(pulse.duration, value, pulse.d1, pulse.d2, pulse.d3)


@pytest.mark.parametrize(
    "w,dt,nan_at",
    [(5000.0, 1e-2, None), (5000.0, 1e-3, None), (2.0, 1e-4, 1.2345)],
    ids=["overflow", "stage_overflow", "nan"],
)
def test_bath_terms_fail_where_the_scalar_loops_do(
    pulse, make_params, future_drive_loop, memory_series_loop, w, dt, nan_at
):
    # at W dt >= 5, R(z) > 1 and both recurrences overflow.  At dt = 1e-3
    # an RK4 stage of the loop overflows three steps before the path does
    src = pulse if nan_at is None else _nan_near(pulse, nan_at)
    grid = ps.TimeGrid.from_span(PI, dt)
    params = make_params(w, 0.002)
    model = ps.SpectralModel.from_params(params)
    g_half = _g_half(src, model, grid)
    with pytest.raises(NonFiniteState) as n_ref:
        future_drive_loop(src, model, grid)
    with pytest.raises(NonFiniteState) as z_ref:
        memory_series_loop(g_half, model, grid)
    calls = [
        (lambda: ps.future_drive(src, model, grid), n_ref),
        (lambda: ps.design_drive(src, params, grid), n_ref),
        (lambda: pd._memory_series(g_half, model, grid), z_ref),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, ref in calls:
            with pytest.raises(NonFiniteState) as got:
                call()
            assert got.value.t == ref.value.t


_STEPS = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.integers(2, 40).map(lambda k: k * k),
    st.integers(2, 40).map(lambda k: k * k + k),
)


@settings(max_examples=60, deadline=None)
@given(
    n=_STEPS,
    w_dt=st.floats(1e-6, 2.5),
    dt=st.floats(1e-5, 0.1),
    seed=st.integers(0, 2**32 - 1),
    backward=st.booleans(),
)
def test_linear_rk4_equals_a_stepping_loop(rk4, n, w_dt, dt, seed, backward):
    f = np.random.default_rng(seed).standard_normal(2 * n + 1)
    lam = -w_dt / dt
    f_step = f[::-1] if backward else f
    ref = rk4([0.0], lambda j, y: lam * y + f_step[j], dt, n)[:, 0].real
    if backward:
        ref = ref[::-1]
    got = _rk4_linear(-w_dt, dt, f, backward=backward)
    assert _rel(got, ref) <= 1e-12


# -------------------------------------------------------- excited population


def test_excited_population_identical_across_detunings(
    pulse, make_params, grid
):
    variants = []
    for d1, d2 in [(0.0, 0.0), (20.0, 5.0), (0.0, 5.0)]:
        params = make_params(2.0, 0.002, delta1=d1, delta2=d2)
        variants.append(ps.design_drive(pulse, params, grid).rho_ee)
    assert np.array_equal(variants[0], variants[1])
    assert np.array_equal(variants[0], variants[2])


def test_design_reports_infeasible_offset(pulse, make_params, grid):
    params = make_params(2.0, 1e-15)
    with pytest.raises(InfeasibleDesign):
        ps.design_drive(pulse, params, grid)


# ------------------------------------------------------------- drive design


def test_design_equilibrium_residual(design_for):
    _, des = design_for(2.0, 0.002)
    assert abs(des.g_dot[0] - des.n_drive[0]) / abs(des.g_dot[0]) < 1e-8


def test_drive_quadratures_assemble_the_complex_drive(design_for):
    _, des = design_for(2.0, 0.002, delta1=20.0, delta2=5.0)
    np.testing.assert_allclose(des.drive, des.alpha + 1j * des.beta, rtol=0)
    np.testing.assert_allclose(
        des.omega_modulus, np.hypot(des.alpha, des.beta), rtol=0
    )
    assert des.omega_phase[0] == pytest.approx(
        math.atan2(des.beta[0], des.alpha[0]), abs=1e-12
    )
    # unwrapped phase has no 2 pi jumps
    assert np.max(np.abs(np.diff(des.omega_phase))) < PI


def test_symmetric_pulse_starts_with_silent_drive(design_for):
    _, des = design_for(2.0, 0.002)
    assert abs(des.drive[0]) < 1e-9


def test_drive_modulus_invariant_in_drive_detuning(design_for):
    # |Omega| depends on the cavity detuning only; shifting the drive
    # detuning re-phases the quadratures without changing the envelope
    _, still = design_for(2.0, 0.002, delta1=0.0, delta2=5.0)
    _, shifted = design_for(2.0, 0.002, delta1=20.0, delta2=5.0)
    assert np.max(np.abs(still.omega_modulus - shifted.omega_modulus)) < 1e-9


def test_phase_odd_under_cavity_detuning_flip(design_for):
    _, plus = design_for(2.0, 0.002, delta2=5.0)
    _, minus = design_for(2.0, 0.002, delta2=-5.0)
    assert np.max(np.abs(plus.omega_phase + minus.omega_phase)) < 1e-6


def test_asymmetric_pulse_drive_starts_at_slew_over_root_offset(grid):
    # a t^2 (T-t)^2 envelope starts smoothly but with nonzero drive
    c = math.sqrt(630.0 / PI**9)
    ap = ps.InputPulse(
        duration=PI,
        _value=lambda t: c * t**2 * (PI - t) ** 2,
        _d1=lambda t: c * (2.0 * t * (PI - t) ** 2 - 2.0 * t**2 * (PI - t)),
        _d2=lambda t: c * (2.0 * (PI - t) ** 2 - 8.0 * t * (PI - t) + 2.0 * t**2),
        _d3=lambda t: c * (-12.0 * (PI - t) + 12.0 * t),
    )
    assert ap.norm_squared(1e-4) == pytest.approx(1.0, abs=1e-9)
    gam = ps.coupling_from_bandwidth(ap, 2.0)
    assert gam == pytest.approx(5.800202646652384, rel=1e-9)
    params = ps.PhysicalParams(
        g_cav=30.0 * PI,
        gamma_L=6.0 * PI,
        delta1=0.0,
        delta2=0.0,
        big_gamma=gam,
        bandwidth_w=2.0,
        rho_offset=0.02,
        pulse_duration=PI,
    )
    des = ps.design_drive(ap, params, grid)
    series = ps.intracavity_amplitude(ap, params, grid)
    expected = series.x_tilde_dot[0] / math.sqrt(params.rho_offset)
    assert abs(des.drive[0]) > 0.05
    assert des.drive[0].real == pytest.approx(expected, rel=1e-9)
    assert des.drive[0].imag == 0.0


# --------------------------------------------------------- broadband design


def test_markovian_design_series_follow_closed_forms(
    pulse, make_params, design_for, grid
):
    params = make_params(400.0, 0.0075)
    des = ps.design_drive_markovian(pulse, params, grid)
    t = grid.times
    root = math.sqrt(params.big_gamma)
    np.testing.assert_array_equal(des.g, pulse.value(t) / root)
    np.testing.assert_allclose(
        des.x_tilde,
        (-pulse.d1(t) / root + 0.5 * root * pulse.value(t)) / params.g_cav,
        rtol=0,
    )
    # the W -> infinity limits of the anticipated input and the memory
    np.testing.assert_array_equal(des.n_drive, root * pulse.value(t))
    np.testing.assert_array_equal(des.z_mem, 0.5 * params.big_gamma * des.g)
    # both designs satisfy the cavity equation g_cav x_tilde = -G' + N - Z
    for d in (des, design_for(400.0, 0.0075)[1]):
        lhs = params.g_cav * d.x_tilde
        rhs = -d.g_dot + d.n_drive - d.z_mem
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_broadband_limit_closes_design_gap(pulse, make_params, grid):
    # at W = 400 the memory design and the rate design nearly coincide
    params = make_params(400.0, 0.0075)
    full = ps.design_drive(pulse, params, grid)
    rate = ps.design_drive_markovian(pulse, params, grid)
    assert np.max(np.abs(full.rho_ee - rate.rho_ee)) < 0.02
    assert params.big_gamma == pytest.approx(400.07, rel=1e-3)
