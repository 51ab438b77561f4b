"""Grids, parameter validation, pulse envelopes, and the bath model."""

from __future__ import annotations

import math

import numpy as np
import pytest

import photon_store as ps
from photon_store import model
from photon_store._integrate import cubic_midpoints, half_lattice, half_lattice_block
from photon_store.errors import GridMismatch

PI = math.pi


# ---------------------------------------------------------------- TimeGrid


def test_grid_rounds_to_cover_span_exactly():
    g = ps.TimeGrid.from_span(1.0, 0.3)
    assert g.n_steps == 3
    assert g.dt == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert g.span == pytest.approx(1.0, rel=1e-15)


def test_grid_lab_resolution(grid):
    assert grid.n_steps == 31416
    assert grid.times[0] == 0.0
    assert grid.times[-1] == pytest.approx(PI, abs=1e-12)
    assert grid.half_times.size == 2 * grid.n_steps + 1
    assert grid.covers(PI)
    assert not grid.covers(PI + 1e-3)


def test_half_lattice_holds_the_grid_bitwise():
    # the design samples the pulse once on the half lattice and reads
    # its grid values from the even samples
    for span in (PI, 1.0, 2.5, 7.3, 0.123):
        for dt in (1e-4, 5e-5, 3e-3, 1e-2, 0.03):
            g = ps.TimeGrid.from_span(span, dt)
            assert g.half_times[::2].tobytes() == g.times.tobytes()


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 9, 4100])
def test_blocks_of_the_half_lattice_are_its_slices_bitwise(n_steps):
    # the scalar loops read their inputs block by block: every block,
    # down to one step at either end, must be the slice of the whole
    grid = ps.TimeGrid.from_span(2.7, 2.7 / n_steps)
    y = np.exp(1.3j * grid.times) * np.cos(3.1 * grid.times)
    whole_y = half_lattice(y)
    whole_t = np.linspace(0.0, grid.span, 2 * n_steps + 1)
    assert grid.half_times.tobytes() == whole_t.tobytes()
    ends = sorted({0, 1, 2, 3, n_steps // 2, n_steps - 3, n_steps - 2, n_steps - 1, n_steps})
    ends = [k for k in ends if 0 <= k <= n_steps]
    for k0 in ends:
        for k1 in ends:
            if k1 < k0:
                continue
            block = slice(2 * k0, 2 * k1 + 1)
            assert half_lattice_block(y, k0, k1).tobytes() == whole_y[block].tobytes()
            assert grid.half_times_block(k0, k1).tobytes() == whole_t[block].tobytes()


def test_cubic_midpoints_of_two_and_three_samples():
    # too few samples for the 4-point stencil: the midpoint of a line
    # and the two midpoints of a parabola are still exact
    line = cubic_midpoints(np.array([1.0, 3.0]))
    np.testing.assert_array_equal(line, [2.0])
    parabola = cubic_midpoints(np.array([0.0, 1.0, 4.0]))
    np.testing.assert_array_equal(parabola, [0.25, 2.25])
    with pytest.raises(ValueError, match="at least two samples"):
        cubic_midpoints(np.array([1.0]))


@pytest.mark.parametrize("span,dt", [(-1.0, 0.1), (1.0, -0.1), (1.0, 0.0)])
def test_grid_rejects_nonpositive_inputs(span, dt):
    with pytest.raises(ValueError):
        ps.TimeGrid.from_span(span, dt)


# ---------------------------------------------------------- PhysicalParams


def test_params_detuning_helpers(make_params):
    p = make_params(2.0, 0.002, delta1=20.0, delta2=5.0)
    assert p.delta == pytest.approx(-15.0)
    assert not p.is_resonant
    assert make_params(2.0, 0.002).is_resonant


@pytest.mark.parametrize(
    "kw",
    [
        {"g_cav": 0.0},
        {"g_cav": -1.0},
        {"gamma_L": -0.1},
        {"big_gamma": 0.0},
        {"bandwidth_w": 0.0},
        {"rho_offset": -1e-6},
        {"rho_offset": 1.0},
    ],
)
def test_params_reject_bad_values(kw):
    good = dict(
        g_cav=30.0 * PI,
        gamma_L=6.0 * PI,
        delta1=0.0,
        delta2=0.0,
        big_gamma=16.03,
        bandwidth_w=2.0,
        rho_offset=0.002,
    )
    with pytest.raises(ValueError):
        ps.PhysicalParams(**{**good, **kw})


# ------------------------------------------------------------ input pulse


def test_builtin_packet_is_normalized(pulse, norm_squared):
    assert norm_squared(pulse, 1e-4) == pytest.approx(1.0, abs=1e-9)


def test_builtin_packet_normalized_for_any_duration(norm_squared):
    assert norm_squared(ps.builtin_packet(2.0 * PI), 1e-4) == pytest.approx(
        1.0, abs=1e-9
    )


def test_builtin_packet_boundary_derivatives(pulse):
    # smooth start: value and slope vanish, curvature is 64/sqrt(7 pi)
    assert pulse.value(0.0) == pytest.approx(0.0, abs=1e-14)
    assert pulse.d1(0.0) == pytest.approx(0.0, abs=1e-14)
    assert pulse.d2(0.0) == pytest.approx(64.0 / math.sqrt(7.0 * PI), rel=1e-12)
    assert pulse.value(PI) == pytest.approx(0.0, abs=1e-12)
    assert pulse.value(PI / 2.0) == pytest.approx(0.0, abs=1e-12)


def test_builtin_packet_curvature_scales_with_duration():
    # T = 2 pi halves the rate s, so the start curvature is 16/sqrt(14 pi)
    p = ps.builtin_packet(2.0 * PI)
    assert p.d2(0.0) == pytest.approx(16.0 / math.sqrt(14.0 * PI), rel=1e-12)


def test_builtin_packet_symmetric(pulse):
    t = np.linspace(0.0, PI, 2001)
    np.testing.assert_allclose(pulse.value(t), pulse.value(PI - t), atol=1e-12)


def test_pulse_vanishes_outside_support(pulse):
    for t in (-0.1, PI + 0.1, 100.0):
        assert pulse.value(t) == 0.0
        assert pulse.d1(t) == 0.0
        assert pulse.d2(t) == 0.0
    t = np.array([-1.0, 1.0, 4.0])
    v = pulse.value(t)
    assert v[0] == 0.0 and v[2] == 0.0 and v[1] > 0.0


def test_sampled_packet_recovers_closed_forms(pulse, grid, norm_squared):
    ts = np.linspace(0.0, PI, 501)
    sp = ps.sampled_packet(ts, pulse.value(ts))
    t = grid.times
    assert np.max(np.abs(sp.value(t) - pulse.value(t))) < 1e-7
    assert np.max(np.abs(sp.d1(t) - pulse.d1(t))) < 1e-4
    assert np.max(np.abs(sp.d2(t) - pulse.d2(t))) < 5e-2
    assert norm_squared(sp) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "times,values",
    [
        (np.array([0.0, 1.0, 0.5, 2.0]), np.array([0.0, 1.0, 1.0, 0.0])),
        (np.array([0.1, 0.5, 1.0, 2.0]), np.array([0.0, 1.0, 1.0, 0.0])),
        (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0])),
        (np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.5, 1.0, 1.0, 0.0])),
        # the squared samples overflow, so the norm is infinite
        (np.linspace(0.0, PI, 201), 1e300 * np.sin(np.linspace(0.0, PI, 201)) ** 2),
    ],
)
def test_sampled_packet_rejects_bad_tables(times, values):
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        ps.sampled_packet(times, values)


# ------------------------------------------------ not-a-knot spline vs scipy


def _knot_families():
    """Knot sets that stress the elimination: uniform, jittered,
    exponential, geometric and log-uniform spacings."""
    rng = np.random.default_rng(12)
    for n in (4, 5, 2001):
        yield f"uniform{n}", np.linspace(0.0, PI, n)
    x = np.linspace(0.0, 1.0, 300)
    x[1:-1] += rng.uniform(-0.4, 0.4, 298) / 299
    yield "jittered", x
    for k in range(20):
        n = int(rng.integers(4, 401))
        steps = rng.exponential(1.0, n - 1)
        yield f"exponential{k}", np.concatenate(([0.0], np.cumsum(steps)))
    yield "geometric", np.concatenate(([0.0], np.cumsum(1.3 ** np.arange(60))))
    steps = 10.0 ** rng.uniform(-3.0, 3.0, 200)
    yield "log_uniform", np.concatenate(([0.0], np.cumsum(steps)))
    # not-a-knot row 0 leaves d[1] = 2 * (1 + 1) - 2 = 2 against dl[1] = 8,
    # so the elimination swaps rows 1 and 2
    yield "interchange", np.array([0.0, 1.0, 2.0, 10.0, 11.0])


KNOT_FAMILIES = list(_knot_families())


@pytest.mark.parametrize("x", [x for _, x in KNOT_FAMILIES], ids=[n for n, _ in KNOT_FAMILIES])
def test_spline_matches_scipy_bit_for_bit(x):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(x.size)
    y = np.sin(3.0 * x / x[-1]) * x / x[-1] + 0.1 * rng.standard_normal(x.size)
    reference = interpolate.CubicSpline(x, y)
    c = model._not_a_knot(x, y)
    assert c.tobytes() == reference.c.tobytes()
    # sorted (the merge lookup), shuffled and reversed (the search) and
    # 0-d queries, the knots themselves and a point past the last knot
    q = np.sort(np.concatenate([np.linspace(0.0, x[-1], 3001), x, [x[-1] * (1 + 1e-12)]]))
    queries = [q, rng.permutation(q), q[::-1].copy(), np.array(0.3 * x[-1])]
    for k in range(4):
        ours = model._piecewise_cubic(x, c if k == 0 else c[:-k] * model._FALLING[k])
        theirs = reference if k == 0 else reference.derivative(k)
        for t in queries:
            assert ours(t).tobytes() == theirs(t).tobytes(), k


def test_sampled_packet_wires_the_spline_like_scipy(grid):
    interpolate = pytest.importorskip("scipy.interpolate")
    ts = np.linspace(0.0, PI, 2001)
    values = np.sin(ts) ** 2 * np.exp(-ts)
    sp = ps.sampled_packet(ts, values)
    reference = interpolate.CubicSpline(ts, values / math.sqrt(np.trapezoid(values**2, ts)))
    t = grid.half_times
    assert sp.breakpoints.tobytes() == reference.x.tobytes()
    for k, ours in enumerate((sp.value, sp.d1, sp.d2, sp.d3)):
        theirs = reference if k == 0 else reference.derivative(k)
        assert ours(t).tobytes() == theirs(t).tobytes(), k


@pytest.mark.parametrize(
    "dl,d",
    [
        ([0.0, 1.0], [0.0, 1.0, 1.0]),  # the first pivot is zero
        ([1.0, 0.0], [1.0, 1.0, 1.0]),  # elimination zeroes the second pivot
        ([0.0, 0.0], [1.0, 1.0, 0.0]),  # the last pivot is zero
    ],
)
def test_spline_zero_pivot_raises_value_error(dl, d):
    with pytest.raises(ValueError, match="singular"):
        model._solve_tridiagonal(dl, d, [1.0, 1.0], [1.0, 1.0, 1.0])


# ----------------------------------------------------------- bath model


def test_spectral_model_shapes(
    make_params, spectral_density, impulse_response, memory_kernel
):
    p = make_params(2.0, 0.002)
    w, gam = p.bandwidth_w, p.big_gamma

    # an 11-mode comb over [-55, 55] samples kappa at -50, -40, ..., 50
    bath = ps.discretize_bath(p, n_modes=11, band_halfwidth=55.0)
    om = bath.frequencies
    np.testing.assert_array_equal(om, np.linspace(-50.0, 50.0, 11))
    kappa = bath.weights / math.sqrt(bath.mode_spacing)
    assert abs(kappa[5]) == pytest.approx(math.sqrt(gam / (2.0 * PI)), rel=1e-12)
    np.testing.assert_allclose(
        spectral_density(p, om), np.abs(kappa) ** 2, rtol=1e-12
    )
    np.testing.assert_allclose(
        spectral_density(p, om), gam / (2.0 * PI) * w**2 / (w**2 + om**2), rtol=1e-12
    )

    # exponential emission response, with the step convention h(0) = W sqrt(Gamma)
    assert impulse_response(p, 0.0) == pytest.approx(w * math.sqrt(gam), rel=1e-12)
    assert impulse_response(p, -0.5) == 0.0
    assert impulse_response(p, 1.0) == pytest.approx(
        w * math.sqrt(gam) * math.exp(-w), rel=1e-12
    )

    # symmetric memory kernel whose peak equals the full spectral weight
    assert memory_kernel(p, 0.0) == pytest.approx(w * gam / 2.0, rel=1e-12)
    assert memory_kernel(p, -0.3) == pytest.approx(memory_kernel(p, 0.3), rel=1e-12)
    om = np.linspace(-4000.0, 4000.0, 400001)
    area = np.trapezoid(spectral_density(p, om), om)
    assert area == pytest.approx(w * gam / 2.0, rel=1e-3)


def test_future_drive_terminal_condition(pulse, make_params, grid):
    p = make_params(2.0, 0.002)
    n = ps.future_drive(pulse, p, grid)
    assert n[-1] == 0.0
    # anticipation decays once the remaining pulse is exhausted
    assert abs(n[0]) > abs(n[-2])


def test_future_drive_satisfies_backward_equation(pulse, make_params, grid):
    p = make_params(2.0, 0.002)
    n = ps.future_drive(pulse, p, grid)
    t = grid.times
    w, gam = p.bandwidth_w, p.big_gamma
    lhs = np.gradient(n, grid.dt)
    rhs = w * n - w * math.sqrt(gam) * pulse.value(t)
    assert np.max(np.abs(lhs - rhs)[2:-2]) < 1e-4


def test_future_drive_rejects_short_grid(pulse, make_params):
    short = ps.TimeGrid.from_span(1.0, 1e-4)
    p = make_params(2.0, 0.002)
    with pytest.raises(GridMismatch):
        ps.future_drive(pulse, p, short)
