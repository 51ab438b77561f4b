"""Forward solvers: memory-kernel, broadband limit, discrete-bath oracle."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import photon_store as ps
from photon_store import dynamics
from photon_store._integrate import half_lattice
from photon_store.errors import BandTooNarrow, GridMismatch, NonFiniteState

PI = math.pi


# ------------------------------------------------------------ grid coverage

SHORT_GRID_CALLS = {
    "future_drive": ps.future_drive,
    "design_drive": ps.design_drive,
    "design_drive_markovian": ps.design_drive_markovian,
    "simulate_nonmarkovian": lambda pulse, params, grid: ps.simulate_nonmarkovian(
        pulse, np.zeros(grid.n_steps + 1), params, ps.InitialState.vacuum(), grid
    ),
    "simulate_markovian": lambda pulse, params, grid: ps.simulate_markovian(
        pulse, np.zeros(grid.n_steps + 1), params, ps.InitialState.vacuum(), grid
    ),
    "simulate_discrete_bath": lambda pulse, params, grid: ps.simulate_discrete_bath(
        pulse,
        np.zeros(grid.n_steps + 1),
        params,
        ps.InitialState.vacuum(),
        ps.discretize_bath(params, 8, 40.0),
        grid,
    ),
}


@pytest.mark.parametrize("entry", sorted(SHORT_GRID_CALLS))
def test_every_entry_point_rejects_a_short_grid(pulse, make_params, entry):
    short = ps.TimeGrid.from_span(1.0, 1e-2)
    with pytest.raises(GridMismatch) as err:
        SHORT_GRID_CALLS[entry](pulse, make_params(2.0, 0.002), short)
    assert str(err.value) == "grid span 1 us does not cover the pulse support 3.14159 us"


# ------------------------------------------------------------ InitialState


def test_initial_state_constructors():
    vac = ps.InitialState.vacuum()
    assert vac.g_amp == 0.0 and vac.e_amp == 0.0 and vac.x_amp == 0.0
    seeded = ps.InitialState.matched(0.002)
    assert abs(seeded.e_amp) == pytest.approx(math.sqrt(0.002), rel=1e-12)


def test_initial_state_rejects_superunit_norm():
    with pytest.raises(ValueError):
        ps.InitialState(g_amp=1.0, e_amp=1.0, x_amp=0.0)


# ----------------------------------------------------- memory-kernel solver


def test_matched_storage_reflects_nothing(pulse, design_for, grid):
    params, des = design_for(1.6716, 0.002)
    traj = ps.simulate_nonmarkovian(
        pulse, des.drive, params, ps.InitialState.matched(params.rho_offset), grid
    )
    assert ps.storage_metrics(traj).reflected < 1e-12


def test_unseeded_atom_reflects_part_of_the_photon(pulse, design_for, grid):
    # same drive, but the atom starts in the ground state
    params, des = design_for(1.6716, 0.002)
    traj = ps.simulate_nonmarkovian(
        pulse, des.drive, params, ps.InitialState.vacuum(), grid
    )
    assert ps.storage_metrics(traj).reflected == pytest.approx(
        0.0014690441284026714, rel=1e-6
    )


def test_simulator_rejects_mismatched_drive(pulse, design_for, grid):
    params, des = design_for(1.6716, 0.002)
    with pytest.raises(GridMismatch):
        ps.simulate_nonmarkovian(
            pulse, des.drive[:-5], params, ps.InitialState.vacuum(), grid
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_runaway_state_raises_with_timestamp(pulse, make_params, grid):
    params = make_params(2.0, 0.002)
    wild = np.full(grid.times.size, 1e200 + 0j)
    with pytest.raises(NonFiniteState) as err:
        ps.simulate_nonmarkovian(
            pulse, wild, params, ps.InitialState.vacuum(), grid
        )
    assert "t =" in str(err.value)
    assert err.value.amplitude in ("g", "e", "x", "z", "y")
    assert f"amplitude {err.value.amplitude} " in str(err.value)


def test_zero_input_stays_in_vacuum(make_params, grid):
    params = make_params(2.0, 0.002)
    silent = ps.InputPulse(
        duration=PI,
        _value=lambda t: 0.0 * t,
        _d1=lambda t: 0.0 * t,
        _d2=lambda t: 0.0 * t,
    )
    traj = ps.simulate_nonmarkovian(
        silent,
        np.zeros(grid.times.size, complex),
        params,
        ps.InitialState.vacuum(),
        grid,
    )
    assert np.max(np.abs(traj.g)) == 0.0
    assert np.max(np.abs(traj.phi_out)) == 0.0


def test_emission_accumulator_matches_impulse_convolution(
    pulse, design_for, grid, impulse_response
):
    params, des = design_for(2.0, 0.002)
    traj = ps.simulate_nonmarkovian(
        pulse, des.drive, params, ps.InitialState.matched(params.rho_offset), grid
    )
    k = round(1.2 / grid.dt)
    t = grid.times
    direct = np.trapezoid(
        impulse_response(params, t[k] - t[: k + 1]) * traj.g[: k + 1], dx=grid.dt
    )
    assert abs(traj.y_out[k] - direct) < 1e-7


def test_design_and_simulation_agree_on_final_excited_population(
    pulse, design_for, grid
):
    # lossless run: the quadrature route and the solver route for the
    # stored population close to within solver error
    params, des = design_for(2.0, 0.002, gamma_L=0.0)
    traj = ps.simulate_nonmarkovian(
        pulse, des.drive, params, ps.InitialState.matched(params.rho_offset), grid
    )
    assert abs(des.rho_ee[-1] - abs(traj.e[-1]) ** 2) < 1e-6


# -------------------------------------------------------- broadband solver


def test_broadband_round_trip_stores_perfectly(pulse, make_params, grid):
    params = make_params(25.0, 0.0075)
    des = ps.design_drive_markovian(pulse, params, grid)
    traj = ps.simulate_markovian(
        pulse, des.drive, params, ps.InitialState.matched(params.rho_offset), grid
    )
    assert ps.storage_metrics(traj).reflected < 1e-12
    # the broadband solver emits at the rate the cavity holds
    np.testing.assert_array_equal(
        traj.y_out, math.sqrt(params.big_gamma) * traj.g
    )


def test_broadband_limit_closes_simulation_gap(pulse, design_for, grid):
    # with a very wide bath both solvers agree on the cavity history
    params, des = design_for(400.0, 0.0075)
    seed = ps.InitialState.matched(params.rho_offset)
    full = ps.simulate_nonmarkovian(pulse, des.drive, params, seed, grid)
    rate = ps.simulate_markovian(pulse, des.drive, params, seed, grid)
    assert np.max(np.abs(full.g - rate.g)) < 0.02


# ------------------------------------------------ reduced solvers against rk4


def explicit_reduced_rhs(pulse, drive, params, grid, memory):
    """Right-hand side of the memory-kernel (g, e, x, Z) or the broadband
    (g, e, x) equations as one vector function.

    The couplings are formed as arrays, as the solvers form them: numpy
    may fuse an array product's multiply and add where a scalar product
    rounds twice, so only the stepping is compared bit for bit.
    """
    th = grid.half_times
    om_h = dynamics._drive_half(drive, grid)
    e2m = np.exp(-1j * params.delta2 * th)
    e1m = np.exp(-1j * params.delta1 * th)
    w, big_gamma = params.bandwidth_w, params.big_gamma
    gamma_l = params.gamma_L
    cav = -1j * params.g_cav * e2m
    sto = -1j * np.conj(om_h) * e1m
    rev = -1j * om_h * np.conj(e1m)
    bck = -1j * params.g_cav * np.conj(e2m)
    if memory:
        feed = half_lattice(ps.future_drive(pulse, params, grid))
    else:
        feed = math.sqrt(big_gamma) * pulse.value(th)

    def rhs(j, s):
        g, e, x = s[0], s[1], s[2]
        ds = np.empty_like(s)
        ds[0] = cav[j] * x + feed[j]
        ds[1] = sto[j] * x
        ds[2] = rev[j] * e + bck[j] * g - gamma_l * x
        if memory:
            ds[0] -= s[3]
            ds[3] = -w * s[3] + 0.5 * w * big_gamma * g
        else:
            ds[0] -= 0.5 * big_gamma * g
        return ds

    return rhs


@pytest.fixture(scope="module")
def detuned_case(make_params):
    """A detuned scenario, an arbitrary drive and a start with every
    amplitude occupied, on a 2000-step grid."""
    params = make_params(2.0, 0.002, delta1=0.7, delta2=-1.3)
    grid = ps.TimeGrid.from_span(PI, PI / 2000)
    t = grid.times
    drive = 40.0 * np.sin(t) * np.exp(0.3j * t)
    init = ps.InitialState(g_amp=0.1j, e_amp=0.2, x_amp=-0.05)
    return params, grid, drive, init


@pytest.mark.parametrize("memory", [True, False], ids=["nonmarkovian", "markovian"])
def test_reduced_solver_is_rk4_bit_for_bit(pulse, detuned_case, rk4, memory):
    params, grid, drive, init = detuned_case
    solve = ps.simulate_nonmarkovian if memory else ps.simulate_markovian
    traj = solve(pulse, drive, params, init, grid)
    y0 = [init.g_amp, init.e_amp, init.x_amp] + ([0.0] if memory else [])
    rhs = explicit_reduced_rhs(pulse, drive, params, grid, memory)
    path = rk4(y0, rhs, grid.dt, grid.n_steps)
    for col, amp in enumerate((traj.g, traj.e, traj.x)):
        assert np.array_equal(amp, path[:, col])
    if memory:
        assert np.array_equal(traj.z_mem, path[:, 3])
        # y obeys Z's equation with its source scaled by 2 / sqrt(big_gamma)
        y = (2.0 / math.sqrt(params.big_gamma)) * traj.z_mem
        assert np.array_equal(traj.y_out, y)
    assert np.array_equal(traj.phi_out, traj.y_out - pulse.value(grid.times))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_memory_solver_and_rk4_fail_at_the_same_time(pulse, detuned_case, rk4):
    params, grid, drive, init = detuned_case
    drive = drive.copy()
    drive[1200] = np.nan
    with pytest.raises(NonFiniteState) as run_err:
        ps.simulate_nonmarkovian(pulse, drive, params, init, grid)
    y0 = [init.g_amp, init.e_amp, init.x_amp, 0.0]
    rhs = explicit_reduced_rhs(pulse, drive, params, grid, memory=True)
    with pytest.raises(NonFiniteState) as rk4_err:
        rk4(y0, rhs, grid.dt, grid.n_steps)
    assert run_err.value.t == rk4_err.value.t < grid.span


# ------------------------------------------------------ discrete-bath oracle


def test_bath_comb_geometry(make_params, coupling):
    params = make_params(2.0, 0.002)
    bath = ps.discretize_bath(params, n_modes=500, band_halfwidth=40.0)
    assert bath.n_modes == 500
    assert bath.mode_spacing == pytest.approx(2.0 * 40.0 / 500, rel=1e-12)
    f = bath.frequencies
    assert f[0] == pytest.approx(-40.0 + 0.5 * bath.mode_spacing, rel=1e-12)
    np.testing.assert_allclose(f, -f[::-1], atol=1e-12)
    np.testing.assert_allclose(
        bath.weights,
        coupling(params, f) * math.sqrt(bath.mode_spacing),
        rtol=1e-12,
    )
    # comb quadrature reproduces the band-limited spectral weight
    assert bath.density_capture() == pytest.approx(1.0, rel=1e-6)


def test_narrow_band_is_rejected(pulse, make_params, grid):
    params = make_params(2.0, 0.002)
    bath = ps.discretize_bath(params, n_modes=100, band_halfwidth=1.0)
    with pytest.raises(BandTooNarrow):
        ps.initial_modes(pulse, bath, grid)


def test_initial_modes_are_normalized(pulse, make_params, grid):
    params = make_params(2.0, 0.002)
    bath = ps.discretize_bath(params, n_modes=500, band_halfwidth=40.0)
    modes, capture = ps.initial_modes(pulse, bath, grid)
    assert float(np.sum(np.abs(modes) ** 2)) == pytest.approx(1.0, rel=1e-12)
    assert 0.999 < capture <= 1.0


def direct_projection(pulse, bath, grid, indices):
    """Dense trapezoid Fourier sum of the envelope at selected comb modes.

    Slow reference for :func:`initial_modes`, before renormalization:
    one full row of phases per mode.
    """
    t = grid.times
    phi = pulse.value(t)
    out = np.empty(len(indices), dtype=complex)
    for i, j in enumerate(indices):
        ft = np.trapezoid(phi * np.exp(1j * bath.frequencies[j] * t), dx=grid.dt)
        out[i] = -math.sqrt(bath.mode_spacing / (2.0 * math.pi)) * ft
    return out


@pytest.mark.parametrize(
    "n_modes,half_band,n_picked", [(500, 40.0, 500), (4000, 160.0, 41)]
)
def test_initial_modes_match_direct_fourier_sum(
    pulse, make_params, grid, n_modes, half_band, n_picked
):
    params = make_params(2.0, 0.002)
    bath = ps.discretize_bath(params, n_modes=n_modes, band_halfwidth=half_band)
    modes, capture = ps.initial_modes(pulse, bath, grid)
    picked = np.linspace(0, n_modes - 1, n_picked).round().astype(int)
    direct = direct_projection(pulse, bath, grid, picked)
    err = np.max(np.abs(modes[picked] * math.sqrt(capture) - direct))
    assert err <= 1e-13 * np.max(np.abs(direct))


def explicit_comb_rhs(drive, params, bath, grid):
    """Right-hand side of the whole (4 + N)-dimensional oracle system."""
    th = grid.half_times
    om_h = dynamics._drive_half(drive, grid)
    e2m = np.exp(-1j * params.delta2 * th)
    e1m = np.exp(-1j * params.delta1 * th)
    w, root_gamma = params.bandwidth_w, math.sqrt(params.big_gamma)
    g_cav, gamma_l = params.g_cav, params.gamma_L

    def rhs(j, s):
        g, e, x, y, modes = s[0], s[1], s[2], s[3], s[4:]
        ds = np.empty_like(s)
        ds[0] = -1j * g_cav * e2m[j] * x - np.dot(np.conj(bath.weights), modes)
        ds[1] = -1j * np.conj(om_h[j]) * e1m[j] * x
        ds[2] = -1j * om_h[j] * np.conj(e1m[j]) * e - 1j * g_cav * np.conj(e2m[j]) * g
        ds[2] -= gamma_l * x
        ds[3] = -w * y + w * root_gamma * g
        ds[4:] = -1j * bath.frequencies * modes + bath.weights * g
        return ds

    return rhs


@pytest.fixture
def tiny_comb(make_params, coupling, monkeypatch):
    """A 6-mode comb on a 200-step grid with a detuned, arbitrary drive.

    Six modes cannot hold the photon, so the projection is replaced by
    fixed mode amplitudes: the test is about the stepping.  The comb is
    shifted off resonance, because on a symmetric comb the odd moments
    sum |k_j|^2 omega_j^m vanish and would hide errors in their terms,
    and its dt * omega reaches 0.6, where every power of the comb
    generator in the step matters.
    """
    params = make_params(2.0, 0.002, delta1=0.7, delta2=-1.3)
    comb = ps.discretize_bath(params, n_modes=6, band_halfwidth=40.0)
    freqs = comb.frequencies + 5.0
    bath = ps.BathDiscretization(
        params=params,
        frequencies=freqs,
        weights=coupling(params, freqs) * math.sqrt(comb.mode_spacing),
        band_halfwidth=comb.band_halfwidth,
    )
    grid = ps.TimeGrid.from_span(PI, PI / 200)
    c0 = np.exp(1j * np.arange(6)) * np.linspace(0.2, 0.5, 6)
    monkeypatch.setattr(dynamics, "initial_modes", lambda *args: (c0.copy(), 1.0))
    t = grid.times
    drive = 40.0 * np.sin(t) * np.exp(0.3j * t)
    return params, bath, grid, c0, drive


def test_comb_step_is_rk4_of_the_full_system(pulse, tiny_comb, rk4):
    params, bath, grid, c0, drive = tiny_comb
    init = ps.InitialState(g_amp=0.1j, e_amp=0.2, x_amp=-0.05)
    run = ps.simulate_discrete_bath(pulse, drive, params, init, bath, grid)
    y0 = np.concatenate([[init.g_amp, init.e_amp, init.x_amp, 0.0], c0])
    path = rk4(y0, explicit_comb_rhs(drive, params, bath, grid), grid.dt, grid.n_steps)
    tr = run.trajectory
    for col, amp in enumerate((tr.g, tr.e, tr.x, tr.y_out)):
        assert np.max(np.abs(amp - path[:, col])) <= 1e-13
    assert np.max(np.abs(run.final_modes - path[-1, 4:])) <= 1e-13


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_comb_step_and_rk4_fail_at_the_same_time(pulse, tiny_comb, rk4):
    params, bath, grid, c0, drive = tiny_comb
    drive = drive.copy()
    drive[120] = np.nan
    init = ps.InitialState.matched(params.rho_offset)
    with pytest.raises(NonFiniteState) as oracle_err:
        ps.simulate_discrete_bath(pulse, drive, params, init, bath, grid)
    y0 = np.concatenate([[init.g_amp, init.e_amp, init.x_amp, 0.0], c0])
    with pytest.raises(NonFiniteState) as rk4_err:
        rk4(y0, explicit_comb_rhs(drive, params, bath, grid), grid.dt, grid.n_steps)
    assert oracle_err.value.t == rk4_err.value.t < grid.span


def test_package_exports_resolve():
    missing = [name for name in ps.__all__ if not hasattr(ps, name)]
    assert missing == []


def test_package_import_leaves_scipy_signal_out():
    # scipy.signal costs about half a second of import time on its own
    src = str(Path(ps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, photon_store; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_package_import_leaves_scipy_out(tmp_path, pulse):
    # numpy alone, for the built-in packet and for a pulse file's spline
    src = str(Path(ps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, photon_store; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"

    t = np.linspace(0.0, np.pi, 201)
    np.savetxt(tmp_path / "pulse.txt", np.column_stack([t, pulse.value(t)]))
    (tmp_path / "c.cfg").write_text(
        "g_cav = 30pi\ngamma_L = 6pi\nbandwidth_w = 2\nrho_offset = 0.002\n"
        f"grid.dt = 1e-2\npulse = {tmp_path / 'pulse.txt'}\n"
    )
    argv = ["design", "--config", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]
    probe = (
        "import sys; from photon_store import cli; code = cli.main(sys.argv[1:]); "
        "print(code, 'scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "0 False"


def test_oracle_matches_reduced_solver(pulse, design_for, grid):
    params, des = design_for(2.0, 0.002)
    seed = ps.InitialState.matched(params.rho_offset)
    reduced = ps.simulate_nonmarkovian(pulse, des.drive, params, seed, grid)
    bath = ps.discretize_bath(params, n_modes=500, band_halfwidth=40.0)
    run = ps.simulate_discrete_bath(pulse, des.drive, params, seed, bath, grid)
    assert np.max(np.abs(run.trajectory.g - reduced.g)) < 1e-4


def test_comb_bytes_bounds_what_a_mode_costs(pulse, make_params):
    # the runner's mode ceiling rests on comb_bytes: it must bound the
    # traced peak each extra mode adds to discretize_bath and the run,
    # and not by a wide margin
    grid = ps.TimeGrid.from_span(PI, 2e-3)
    params = make_params(2.0, 0.002)
    des = ps.design_drive(pulse, params, grid)
    seed = ps.InitialState.matched(params.rho_offset)

    def peak(n_modes):
        tracemalloc.start()
        try:
            bath = ps.discretize_bath(params, n_modes=n_modes, band_halfwidth=40.0)
            ps.simulate_discrete_bath(pulse, des.drive, params, seed, bath, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_mode = (peak(1000) - peak(500)) / 500
    estimate = dynamics.comb_bytes(1, grid.n_steps)
    assert 0.8 * estimate <= per_mode <= estimate


def test_oracle_conserves_probability_without_loss(pulse, design_for, grid):
    params, des = design_for(2.0, 0.002, gamma_L=0.0)
    seed = ps.InitialState.matched(params.rho_offset)
    bath = ps.discretize_bath(params, n_modes=500, band_halfwidth=40.0)
    run = ps.simulate_discrete_bath(pulse, des.drive, params, seed, bath, grid)
    tr = run.trajectory
    total = (
        abs(tr.g[-1]) ** 2
        + abs(tr.e[-1]) ** 2
        + abs(tr.x[-1]) ** 2
        + float(np.sum(np.abs(run.final_modes) ** 2))
    )
    assert total == pytest.approx(1.0 + params.rho_offset, abs=1e-8)


def test_oracle_accounts_for_the_whole_excitation(pulse, design_for, grid):
    # design-route stored population plus simulated residuals add up to
    # the photon plus the initial seed
    params, des = design_for(2.0, 0.002, gamma_L=0.0)
    seed = ps.InitialState.matched(params.rho_offset)
    bath = ps.discretize_bath(params, n_modes=500, band_halfwidth=40.0)
    run = ps.simulate_discrete_bath(pulse, des.drive, params, seed, bath, grid)
    tr = run.trajectory
    total = (
        des.rho_ee[-1]
        + abs(tr.g[-1]) ** 2
        + abs(tr.x[-1]) ** 2
        + float(np.sum(np.abs(run.final_modes) ** 2))
    )
    assert total == pytest.approx(1.0 + params.rho_offset, abs=1e-4)


def test_reconstructed_output_tracks_the_reduced_envelope(
    pulse, design_for, grid, reconstruct_output
):
    # use the unseeded run so the output envelope is visibly nonzero
    params, des = design_for(2.0, 0.002)
    seed = ps.InitialState.vacuum()
    reduced = ps.simulate_nonmarkovian(pulse, des.drive, params, seed, grid)
    bath = ps.discretize_bath(params, n_modes=500, band_halfwidth=40.0)
    run = ps.simulate_discrete_bath(pulse, des.drive, params, seed, bath, grid)
    rebuilt = reconstruct_output(
        bath, run.final_modes, grid.span, np.array([grid.span])
    )[0]
    reference = reduced.phi_out[-1]
    assert np.sign(rebuilt.real) == np.sign(reference.real)
    assert abs(rebuilt - reference) < 0.05 * abs(reference)


# ------------------------------------------------------------ summary stats


def test_storage_metrics_fields(pulse, design_for, grid):
    params, des = design_for(1.6716, 0.002)
    traj = ps.simulate_nonmarkovian(
        pulse, des.drive, params, ps.InitialState.matched(params.rho_offset), grid
    )
    m = ps.storage_metrics(traj)
    assert m.reflected == pytest.approx(
        float(np.trapezoid(np.abs(traj.phi_out) ** 2, dx=grid.dt)), rel=1e-12
    )
    assert m.final_excited == pytest.approx(abs(traj.e[-1]) ** 2, rel=1e-12)
    assert m.final_cavity == pytest.approx(abs(traj.g[-1]) ** 2, rel=1e-12)
    assert m.peak_intermediate == pytest.approx(
        float(np.max(np.abs(traj.x) ** 2)), rel=1e-12
    )
    assert set(dataclasses.asdict(m)) == {
        "reflected",
        "final_excited",
        "final_cavity",
        "peak_intermediate",
    }
    # most of the photon ends up stored
    assert m.final_excited > 0.9
