"""Grids, parameter validation, pulse envelopes, and the bath model."""

from __future__ import annotations

import math

import numpy as np
import pytest

import photon_store as ps
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
        {"pulse_duration": 0.0},
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
        pulse_duration=PI,
    )
    with pytest.raises(ValueError):
        ps.PhysicalParams(**{**good, **kw})


# ------------------------------------------------------------ input pulse


def test_builtin_packet_is_normalized(pulse):
    assert pulse.norm_squared(1e-4) == pytest.approx(1.0, abs=1e-9)


def test_builtin_packet_normalized_for_any_duration():
    assert ps.builtin_packet(2.0 * PI).norm_squared(1e-4) == pytest.approx(
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


def test_sampled_packet_recovers_closed_forms(pulse, grid):
    ts = np.linspace(0.0, PI, 501)
    sp = ps.sampled_packet(ts, pulse.value(ts))
    t = grid.times
    assert np.max(np.abs(sp.value(t) - pulse.value(t))) < 1e-7
    assert np.max(np.abs(sp.d1(t) - pulse.d1(t))) < 1e-4
    assert np.max(np.abs(sp.d2(t) - pulse.d2(t))) < 5e-2
    assert sp.norm_squared() == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "times,values",
    [
        (np.array([0.0, 1.0, 0.5, 2.0]), np.array([0.0, 1.0, 1.0, 0.0])),
        (np.array([0.1, 0.5, 1.0, 2.0]), np.array([0.0, 1.0, 1.0, 0.0])),
        (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0])),
        (np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.5, 1.0, 1.0, 0.0])),
    ],
)
def test_sampled_packet_rejects_bad_tables(times, values):
    with pytest.raises(ValueError):
        ps.sampled_packet(times, values)


# ----------------------------------------------------------- bath model


def test_spectral_model_shapes(make_params):
    p = make_params(2.0, 0.002)
    m = ps.SpectralModel.from_params(p)
    w, gam = p.bandwidth_w, p.big_gamma

    assert abs(m.coupling(0.0)) == pytest.approx(math.sqrt(gam / (2.0 * PI)), rel=1e-12)
    om = np.linspace(-50.0, 50.0, 11)
    np.testing.assert_allclose(m.density(om), np.abs(m.coupling(om)) ** 2, rtol=1e-12)
    np.testing.assert_allclose(
        m.density(om), gam / (2.0 * PI) * w**2 / (w**2 + om**2), rtol=1e-12
    )

    # exponential emission response, with the step convention h(0) = W sqrt(Gamma)
    assert m.impulse_response(0.0) == pytest.approx(w * math.sqrt(gam), rel=1e-12)
    assert m.impulse_response(-0.5) == 0.0
    assert m.impulse_response(1.0) == pytest.approx(
        w * math.sqrt(gam) * math.exp(-w), rel=1e-12
    )

    # symmetric memory kernel whose peak equals the full spectral weight
    assert m.memory_kernel(0.0) == pytest.approx(w * gam / 2.0, rel=1e-12)
    assert m.memory_kernel(-0.3) == pytest.approx(m.memory_kernel(0.3), rel=1e-12)
    om = np.linspace(-4000.0, 4000.0, 400001)
    assert np.trapezoid(m.density(om), om) == pytest.approx(w * gam / 2.0, rel=1e-3)


def test_future_drive_terminal_condition(pulse, make_params, grid):
    p = make_params(2.0, 0.002)
    n = ps.future_drive(pulse, ps.SpectralModel.from_params(p), grid)
    assert n[-1] == 0.0
    # anticipation decays once the remaining pulse is exhausted
    assert abs(n[0]) > abs(n[-2])


def test_future_drive_satisfies_backward_equation(pulse, make_params, grid):
    p = make_params(2.0, 0.002)
    m = ps.SpectralModel.from_params(p)
    n = ps.future_drive(pulse, m, grid)
    t = grid.times
    w, gam = p.bandwidth_w, p.big_gamma
    lhs = np.gradient(n, grid.dt)
    rhs = w * n - w * math.sqrt(gam) * pulse.value(t)
    assert np.max(np.abs(lhs - rhs)[2:-2]) < 1e-4


def test_future_drive_rejects_short_grid(pulse, make_params):
    short = ps.TimeGrid.from_span(1.0, 1e-4)
    p = make_params(2.0, 0.002)
    with pytest.raises(GridMismatch):
        ps.future_drive(pulse, ps.SpectralModel.from_params(p), short)
