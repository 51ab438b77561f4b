"""Inverse design chain: coupling choice, amplitudes, drive quadratures."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photon_store as ps
from photon_store import pulse_design
from photon_store._integrate import _rk4_linear
from photon_store.errors import (
    DegeneratePulse,
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


def builtin_coupling(w: float, duration: float) -> float:
    """Equilibrium coupling of the built-in packet of any duration T,
    with s = pi / T; no term cancels, so it holds to rounding up to the
    largest W the config admits."""
    s2 = (PI / duration) ** 2
    bracket = 1.0 / (w * (w * w + 16.0 * s2)) + w / (
        (w * w + 4.0 * s2) * (w * w + 36.0 * s2)
    )
    return 2.0 / (w * w * -math.expm1(-w * duration) * bracket)


def benchmark_spline(stretch: float = 1.0) -> ps.InputPulse:
    """The benchmark's sampled pulse: the built-in packet at 2001
    samples, its time axis stretched by ``stretch``."""
    t = np.linspace(0.0, PI, 2001)
    return ps.sampled_packet(stretch * t, ps.builtin_packet().value(t))


@pytest.mark.parametrize("duration", [PI, 1.3, 7.0])
@pytest.mark.parametrize("w", [0.5, 1.6716, 25.0, 1e3, 1e4, 1e6])
def test_equilibrium_coupling_matches_closed_form_to_rounding(w, duration):
    gamma = ps.coupling_from_bandwidth(ps.builtin_packet(duration), w)
    assert gamma == pytest.approx(builtin_coupling(w, duration), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("w", [0.5, 1.0, 1.6716, 2.0, 5.0, 25.0])
def test_sampled_coupling_matches_fine_trapezoid(coupling_trapezoid, w):
    spline = benchmark_spline()
    expected = coupling_trapezoid(spline, w)
    assert ps.coupling_from_bandwidth(spline, w) == pytest.approx(
        expected, rel=1e-13, abs=0.0
    )


@pytest.mark.parametrize("w", [1e-3, 1.0])
def test_coupling_cost_is_set_by_the_pulse(w):
    # 2001 knots over pi * 1e5 us: 8 samples per knot interval and per
    # 1/W step, whatever the span
    stretch = 1e5
    spline = benchmark_spline(stretch)
    evaluated = []

    def counted(t):
        evaluated.append(np.size(t))
        return spline._value(t)

    pulse = replace(spline, _value=counted)
    gamma = ps.coupling_from_bandwidth(pulse, w)
    assert sum(evaluated) <= 8 * (spline.breakpoints.size + 40)
    # stretching time by a divides W and big_gamma by a
    unstretched = ps.coupling_from_bandwidth(benchmark_spline(), stretch * w)
    assert math.isfinite(gamma)
    assert gamma == pytest.approx(unstretched / stretch, rel=1e-12)


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


def test_downward_start_is_degenerate():
    # phi = sin(t) exp(-t) curves down at t = 0: the coupling would be negative
    down = ps.InputPulse(
        duration=PI,
        _value=lambda t: np.sin(t) * np.exp(-t),
        _d1=lambda t: (np.cos(t) - np.sin(t)) * np.exp(-t),
        _d2=lambda t: -2.0 * np.cos(t) * np.exp(-t),
    )
    with pytest.raises(DegeneratePulse, match="positive coupling"):
        ps.coupling_from_bandwidth(down, 2.0)


# -------------------------------------------------------- cavity amplitude


def test_cavity_amplitude_zero_crossing(design_for, grid):
    # at W = 2 the combination d1 + W * value vanishes at t = pi/4
    _, des = design_for(2.0, 0.002)
    k = round((PI / 4.0) / grid.dt)
    assert abs(des.g[k]) < 1e-12


def test_cavity_amplitude_matches_definition(pulse, design_for, grid):
    w = 2.0
    params, des = design_for(w, 0.002)
    gam = params.big_gamma
    t = grid.times
    expected = (pulse.d1(t) + w * pulse.value(t)) / (w * math.sqrt(gam))
    np.testing.assert_allclose(des.g, expected, rtol=0, atol=1e-14)
    assert des.g[0] == pytest.approx(0.0, abs=1e-14)
    assert des.g_dot[0] == pytest.approx(
        (64.0 / math.sqrt(7.0 * PI)) / (w * math.sqrt(gam)), rel=1e-12
    )


def test_design_needs_the_third_derivative(pulse, make_params, grid):
    # G'' enters the drive: a pulse without phi_in''' can be simulated, not designed
    nod3 = ps.InputPulse(
        duration=PI, _value=pulse._value, _d1=pulse._d1, _d2=pulse._d2
    )
    with pytest.raises(ValueError, match="drive design needs phi_in"):
        ps.design_drive(nod3, make_params(2.0, 0.002), grid)


# --------------------------------------------------- intermediate amplitude


def test_intracavity_memory_term_matches_direct_convolution(
    pulse, make_params, grid, direct_memory_convolution
):
    params = make_params(2.0, 0.002)
    des = ps.design_drive(pulse, params, grid)
    k = round(0.8 / grid.dt)
    z = direct_memory_convolution(pulse, params, grid, indices=[k])[0]
    n = ps.future_drive(pulse, params, grid)
    direct = (-des.g_dot[k] + n[k] - z) / params.g_cav
    assert abs(des.x_tilde[k] - direct) < 1e-8


def test_intracavity_matches_convolution_on_refined_grid(
    pulse, make_params, direct_memory_convolution
):
    # the auxiliary-variable route and the O(n^2) kernel quadrature agree
    fine = ps.TimeGrid.from_span(PI, 1e-5)
    params = make_params(2.0, 0.002)
    des = ps.design_drive(pulse, params, fine)
    k = round(0.8 / fine.dt)
    z = direct_memory_convolution(pulse, params, fine, indices=[k])[0]
    n = ps.future_drive(pulse, params, fine)
    direct = (-des.g_dot[k] + n[k] - z) / params.g_cav
    assert abs(des.x_tilde[k] - direct) < 1e-6


def test_direct_convolution_index_subset_is_consistent(
    pulse, make_params, grid, direct_memory_convolution
):
    coarse = ps.TimeGrid.from_span(PI, 1e-3)
    params = make_params(2.0, 0.002)
    full = direct_memory_convolution(pulse, params, coarse)
    some = direct_memory_convolution(pulse, params, coarse, indices=[0, 100, 1000])
    np.testing.assert_allclose(
        some, full[[0, 100, 1000]], rtol=1e-12, atol=1e-15
    )


# ------------------------------------------- bath-term recurrences N and Z


def _g_half(pulse, params, grid):
    """Perfect-absorption G on the half lattice: the memory's source."""
    w = params.bandwidth_w
    th = grid.half_times
    return (pulse.d1(th) + w * pulse.value(th)) / (w * math.sqrt(params.big_gamma))


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
    des = ps.design_drive(pulse, params, grid)
    n_ref = future_drive_loop(pulse, params, grid)
    assert _rel(ps.future_drive(pulse, params, grid), n_ref) <= 1e-13
    assert _rel(des.n_drive, n_ref) <= 1e-13
    z_ref = memory_series_loop(_g_half(pulse, params, grid), params, grid)
    assert _rel(des.z_mem, z_ref) <= 1e-13


def test_anticipated_input_keeps_the_equilibrium_digits(pulse, design_for, grid):
    # criterion 03's 1e-8 cannot see a bias in the recurrence's powers:
    # forming them as r**k puts N(0) 3e-13 off G'(0) at W = 0.5
    params, des = design_for(0.5, 0.002)
    g_dot0 = des.g_dot[0]
    n0 = ps.future_drive(pulse, params, grid)[0]
    assert abs(g_dot0 - n0) / abs(g_dot0) <= 1e-14


def _nan_near(pulse, t0):
    """``pulse`` with its envelope replaced by NaN around t0."""

    def value(t):
        return np.where(np.abs(t - t0) < 3e-4, np.nan, pulse.value(t))

    return ps.InputPulse(pulse.duration, value, pulse.d1, pulse.d2, pulse.d3)


@pytest.mark.parametrize(
    "w,dt,nan_at",
    [
        (5000.0, 1e-2, None),
        (5000.0, 1e-3, None),
        (2.0, 1e-4, 1.2345),
        (2.0, 1e-4, 0.01),
        (2.0, 1e-4, PI - 0.01),
    ],
    ids=["overflow", "stage_overflow", "nan", "nan_early", "nan_late"],
)
def test_bath_terms_fail_where_the_scalar_loops_do(
    pulse, make_params, future_drive_loop, memory_series_loop, w, dt, nan_at
):
    # at W dt >= 5, R(z) > 1 and both recurrences overflow.  At dt = 1e-3
    # an RK4 stage of the loop overflows three steps before the path does
    src = pulse if nan_at is None else _nan_near(pulse, nan_at)
    grid = ps.TimeGrid.from_span(PI, dt)
    params = make_params(w, 0.002)
    g_half = _g_half(src, params, grid)
    # the design's memory recurrence, fed as in ``design_drive``
    feed = 0.5 * w * params.big_gamma * g_half
    with pytest.raises(NonFiniteState) as n_ref:
        future_drive_loop(src, params, grid)
    with pytest.raises(NonFiniteState) as z_ref:
        memory_series_loop(g_half, params, grid)
    calls = [
        (lambda: ps.future_drive(src, params, grid), n_ref),
        (lambda: ps.design_drive(src, params, grid), n_ref),
        (lambda: _rk4_linear(-w * grid.dt, grid.dt, feed, amplitude="Z"), z_ref),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, ref in calls:
            with pytest.raises(NonFiniteState) as got:
                call()
            assert got.value.t == ref.value.t
            assert got.value.amplitude == ref.value.amplitude


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
    got = _rk4_linear(-w_dt, dt, f, backward=backward, amplitude="y")
    assert _rel(got, ref) <= 1e-12


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("z", [0.0, -1e-4])
def test_linear_rk4_keeps_a_finite_path_near_the_stage_bound(z, backward):
    # y reaches about 2^1023 here, past the size below which no RK4 stage can
    # overflow, yet every stage of the loop stays finite: the path must
    # come back, and it is the block solve's, since scaling f by a power
    # of two scales every operation of it exactly
    scale = 2.0**1021
    f = np.ones(2 * 4000 + 1)
    ref = _rk4_linear(z, 1e-3, f, backward=backward, amplitude="y")
    got = _rk4_linear(z, 1e-3, scale * f, backward=backward, amplitude="y")
    assert np.array_equal(got, scale * ref)


@pytest.mark.parametrize("backward", [False, True])
def test_linear_rk4_raises_where_only_a_stage_overflows(rk4, backward):
    # R(-5) > 1, so the path grows; scaled to end near 1e305 it stays
    # finite, but the last step's k4 = lam (y + dt k3) overflows, and a
    # stepping loop stops there: at t = 0 when it runs backward
    z, dt, n = -5.0, 1e-3, 40
    unit = _rk4_linear(z, dt, np.ones(2 * n + 1), backward=backward, amplitude="y")
    scale = 2.0 ** math.floor(math.log2(1e305 / np.max(np.abs(unit))))
    assert np.isfinite(scale * unit).all()
    f = np.full(2 * n + 1, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState) as ref:
            rk4([0.0], lambda j, y: (z / dt) * y + f[j], dt, n)
    with pytest.raises(NonFiniteState) as got:
        _rk4_linear(z, dt, f, backward=backward, amplitude="y")
    assert ref.value.t == n * dt
    assert got.value.t == (0.0 if backward else n * dt)
    assert got.value.amplitude == "y"


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize(
    "z,n,scale",
    [(-2.5, 4000, 2.0**1000), (0.0, 4000, 1.0), (0.5, 400, 2.0**731)],
    ids=["decaying_huge_samples", "r_equals_one", "growing_at_the_width_cap"],
)
def test_linear_rk4_edges_equal_a_stepping_loop(rk4, z, n, scale, backward):
    # decaying: the path stays ~2^16 below the stage bound, yet
    # r^(-62) max|b| overflows a running sum scaled over isqrt(n) = 63
    # steps.  r = 1: every power is exactly 1.  growing: the stage bound
    # caps the block width at 15 of isqrt(n) = 20 steps, and the path
    # ends within a factor of 6 of that bound
    dt = 1e-3
    f = scale * np.sin(0.37 * np.arange(2 * n + 1))
    f_step = f[::-1] if backward else f
    ref = rk4([0.0], lambda j, y: (z / dt) * y + f_step[j], dt, n)[:, 0].real
    if backward:
        ref = ref[::-1]
    got = _rk4_linear(z, dt, f, backward=backward, amplitude="y")
    assert np.isfinite(got).all()
    assert _rel(got, ref) <= 1e-12
    # the blocks settled it, not the scalar loop: their path scales by a
    # power of two exactly, from that of f / scale
    unit = _rk4_linear(z, dt, f / scale, backward=backward, amplitude="y")
    assert np.array_equal(got, scale * unit)


@pytest.mark.parametrize("backward", [False, True])
def test_linear_rk4_returns_the_loop_path_where_only_the_blocks_overflow(rk4, backward):
    # the path settles near 5.6e307, above the stage bound, so the scalar
    # loop steps it and gets through; the blocks' running sums, scaled by
    # up to r^(-3) ~ 4.5, overflow there, and the loop's path is returned
    z, dt, n = -0.5, 1.0, 400
    f = np.full(2 * n + 1, 1.25 * 2.0**1021)
    ref = rk4([0.0], lambda j, y: (z / dt) * y + f[j], dt, n)[:, 0].real
    if backward:
        ref = ref[::-1]
    got = _rk4_linear(z, dt, f, backward=backward, amplitude="y")
    assert np.isfinite(got).all()
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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    w=st.floats(math.log(0.5), math.log(25.0)).map(math.exp),
    d1=st.floats(-12.0, 12.0),
    d2=st.floats(-12.0, 12.0),
    dt=st.sampled_from([1e-2, 1e-3, 1e-4]),
)
def test_detuning_invariances_hold_across_the_bandwidth_range(
    pulse, make_params, w, d1, d2, dt
):
    # criterion 08's invariances and tolerances, drawn over the W range
    # of the bandwidth figures: rho_ee ignores both detunings, |Omega|
    # ignores the drive detuning, theta is odd under flipping both
    grid = ps.TimeGrid.from_span(PI, dt)

    def design(delta1, delta2):
        params = make_params(w, 0.0075, delta1=delta1, delta2=delta2)
        return ps.design_drive(pulse, params, grid)

    des = design(d1, d2)
    assert np.array_equal(des.rho_ee, design(0.0, 0.0).rho_ee)
    assert np.max(np.abs(des.omega_modulus - design(0.0, d2).omega_modulus)) <= 1e-9
    theta_sum = des.omega_phase + design(-d1, -d2).omega_phase
    if d1 == 0.0 and d2 == 0.0:
        # on resonance the drive is real and theta is +-pi on its
        # negative lobes, the sign set by the sign of a zero beta: only
        # theta mod 2 pi is defined there
        theta_sum = np.angle(np.exp(1j * theta_sum))
    assert np.max(np.abs(theta_sum)) <= 1e-6


_RESULT_ARRAYS = (
    "g", "g_dot", "x_tilde", "x_tilde_dot", "n_drive", "z_mem", "rho_ee",
    "alpha", "beta", "omega_modulus", "omega_phase",
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    w=st.floats(math.log(0.5), math.log(25.0)).map(math.exp),
    d1=st.floats(-12.0, 12.0),
    d2=st.floats(-12.0, 12.0),
)
def test_rotating_a_shared_chain_is_the_design(pulse, make_params, w, d1, d2):
    # a sweep computes the chain once at zero detuning and only rotates
    # it per point; that must be bit for bit the design of the point
    grid = ps.TimeGrid.from_span(PI, 1e-2)
    samples = pulse_design.sample_design_pulse(pulse, grid)
    chain = pulse_design.memory_chain(samples, make_params(w, 0.0075))
    params = make_params(w, 0.0075, delta1=d1, delta2=d2)
    got = pulse_design.rotate_drive(chain, params)
    want = ps.design_drive(pulse, params, grid)
    for name in _RESULT_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # the Markovian comparison of a bandwidth sweep takes rho_ee alone
    flat = ps.design_drive_markovian(pulse, params, grid)
    assert np.array_equal(pulse_design.markovian_population(samples, params), flat.rho_ee)


@pytest.mark.parametrize("dt", [1e-2, 1e-3, 1e-4])
def test_even_half_lattice_samples_are_the_grid_samples(pulse, dt):
    # both designs and the runner read the envelope on the grid as the
    # even samples of its half-lattice evaluation
    t = np.linspace(0.0, PI, 2001)
    for src in (pulse, ps.sampled_packet(t, pulse.value(t))):
        grid = ps.TimeGrid.from_span(PI, dt)
        samples = pulse_design.sample_design_pulse(src, grid)
        assert np.array_equal(samples.phi_half[::2], src.value(grid.times))
        assert np.array_equal(samples.d1_half[::2], src.d1(grid.times))


def test_design_reports_infeasible_offset(pulse, make_params, grid):
    params = make_params(2.0, 1e-15)
    with pytest.raises(InfeasibleDesign):
        ps.design_drive(pulse, params, grid)


def test_nan_population_is_infeasible(grid):
    # x_tilde^2 overflows at some samples, so rho_ee holds NaN there;
    # the floor check must not read NaN as feasible
    params = ps.PhysicalParams(
        g_cav=1.0,
        gamma_L=0.0,
        delta1=0.0,
        delta2=0.0,
        big_gamma=1.0,
        bandwidth_w=1.0,
        rho_offset=0.5,
    )
    x_tilde = np.zeros(grid.n_steps + 1)
    x_tilde[-3:] = [np.inf, np.nan, 0.0]
    with np.errstate(invalid="ignore"), pytest.raises(InfeasibleDesign, match="not finite$"):
        ps.excited_population(x_tilde, np.zeros_like(x_tilde), params, grid)


@given(st.floats(1e-12, 1.0))
@example(0.4994)
@example(math.nextafter(0.499, 1.0))
def test_named_seed_is_rounded_up(value):
    # the printed seed must store the pulse when entered as printed
    printed = float(f"{pulse_design._round_up(value):.3g}")
    assert value <= printed <= value * 1.01


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


# ------------------------------------------------------------ exact unwrap

UNWRAP_EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, PI, -PI, 2 * PI, -2 * PI, 3.5]


def numpy_unwrap_bits(series) -> tuple[bytes, bytes]:
    """The bytes of ``_unwrap`` and of ``np.unwrap`` of one series."""
    x = np.asarray(series, dtype=float)
    with np.errstate(all="ignore"):
        return pulse_design._unwrap(x).tobytes(), np.unwrap(x).tobytes()


@pytest.mark.parametrize(
    "series",
    [
        [0.25],  # length 1
        [0.0, -0.0],  # length 2, and a sum of +0 turns -0 into +0
        [-0.0, 0.0, -0.0, -0.0],
        [0.0, PI],  # steps of exactly +pi and -pi
        [0.0, -PI],
        [PI, 0.0, PI, 2 * PI, 0.0, -2 * PI],  # and of 2 pi
        [1.0, PI + 1.0, 1.0],
        [0.0, math.nan, 1.0, 5.0],
        [0.0, math.inf, 0.0, -4.0],
        [-math.inf, 0.0, 7.0],
        [math.nan, math.nan],
        np.linspace(0.0, 40.0, 1001),  # steps of 0.04: no jump
        np.linspace(0.0, -400.0, 101),  # every step a jump
    ],
)
def test_unwrap_is_numpys_bit_for_bit_at_the_edges(series):
    mine, numpys = numpy_unwrap_bits(series)
    assert mine == numpys


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(
        st.one_of(st.floats(width=64), st.sampled_from(UNWRAP_EDGES)), min_size=1, max_size=40
    )
)
def test_unwrap_is_numpys_bit_for_bit(values):
    mine, numpys = numpy_unwrap_bits(values)
    assert mine == numpys


def test_unwrap_is_numpys_bit_for_bit_on_random_phases():
    # random walks with steps of every size, raw and wrapped to
    # (-pi, pi] as arctan2 returns them
    rng = np.random.default_rng(29)
    for scale in (0.1, 1.0, 3.0, 10.0):
        for size in (2, 3, 17, 1000, 31_417):
            walk = np.cumsum(rng.normal(0.0, scale, size))
            for series in (walk, np.arctan2(np.sin(walk), np.cos(walk))):
                mine, numpys = numpy_unwrap_bits(series)
                assert mine == numpys


@pytest.mark.parametrize("detunings", [{}, {"delta1": 20.0, "delta2": 5.0}])
def test_design_phase_is_numpys_unwrap(design_for, detunings):
    # fig2a's parameters on resonance, and a detuned design
    _, des = design_for(1.6716, 0.002, **detunings)
    expected = np.unwrap(np.arctan2(des.beta, des.alpha))
    assert des.omega_phase.tobytes() == expected.tobytes()


def test_polar_drive_reads_the_rotated_design(design_for):
    # max|Ω| and θ of the polar form are the rotated design's up to the
    # rotation's rounding, and max|Ω| does not read delta1
    params, des = design_for(2.0, 0.002, delta1=20.0, delta2=5.0)
    peak, theta = pulse_design._polar_drive(des, params, phase=True)
    assert peak == pytest.approx(float(np.max(des.omega_modulus)), rel=1e-15, abs=0)
    np.testing.assert_allclose(theta, des.omega_phase, rtol=0, atol=1e-12)
    for delta1 in (0.0, -3.0):
        shifted = replace(params, delta1=delta1)
        assert pulse_design._polar_drive(des, shifted, phase=False) == (peak, None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_polar_drive_peak_is_the_full_hypot_when_the_power_is_not_finite(design_for, bad):
    params, des = design_for(2.0, 0.002, delta1=20.0, delta2=5.0)
    p = des.p.copy()
    p[100] = bad
    chain = replace(des, p=p)
    q = pulse_design._quadrature(chain, params)
    with np.errstate(all="ignore"):
        peak, _ = pulse_design._polar_drive(chain, params, phase=False)
        full = float(np.max(np.hypot(p, q)))
    assert np.array_equal(peak, full, equal_nan=True)


def test_polar_drive_peak_is_the_full_hypot_below_the_normal_range(design_for):
    # a subnormal p^2 + q^2 keeps few digits: with r = 2^-537, p = q =
    # sqrt(10.4) r squares to 20 ulps of 2^-1074 and p = sqrt(20.6) r to
    # 21, though the first hypot is the larger, so every sample's hypot
    # is taken
    params, des = design_for(2.0, 0.002, delta1=20.0, delta2=5.0)
    r = 2.0 ** -537
    tiny = replace(
        des,
        p=np.array([math.sqrt(10.4), math.sqrt(20.6)]) * r,
        x_tilde=np.array([math.sqrt(10.4) * r, 0.0]),
        root_rho=np.ones(2),
    )
    scaled = replace(des, p=des.p * 1e-160, x_tilde=des.x_tilde * 1e-160)
    for chain, at in ((tiny, replace(params, delta2=1.0)), (scaled, params)):
        q = pulse_design._quadrature(chain, at)
        peak, _ = pulse_design._polar_drive(chain, at, phase=False)
        assert 0.0 < peak == float(np.max(np.hypot(chain.p, q)))


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


def test_asymmetric_pulse_drive_starts_at_slew_over_root_offset(grid, norm_squared):
    # a t^2 (T-t)^2 envelope starts smoothly but with nonzero drive
    c = math.sqrt(630.0 / PI**9)
    ap = ps.InputPulse(
        duration=PI,
        _value=lambda t: c * t**2 * (PI - t) ** 2,
        _d1=lambda t: c * (2.0 * t * (PI - t) ** 2 - 2.0 * t**2 * (PI - t)),
        _d2=lambda t: c * (2.0 * (PI - t) ** 2 - 8.0 * t * (PI - t) + 2.0 * t**2),
        _d3=lambda t: c * (-12.0 * (PI - t) + 12.0 * t),
    )
    assert norm_squared(ap, 1e-4) == pytest.approx(1.0, abs=1e-9)
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
    )
    des = ps.design_drive(ap, params, grid)
    expected = des.x_tilde_dot[0] / math.sqrt(params.rho_offset)
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
