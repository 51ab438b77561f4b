"""Forward solvers: memory-kernel, broadband limit, discrete-bath oracle."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photon_store as ps
from photon_store import _integrate, config, dynamics, runner
from photon_store._integrate import half_lattice
from photon_store.errors import BandTooNarrow, GridMismatch, InfeasibleDesign, NonFiniteState

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


@pytest.mark.parametrize(
    "entry", ["simulate_nonmarkovian", "simulate_markovian", "simulate_discrete_bath"]
)
def test_a_short_drive_is_rejected_before_any_series_is_computed(
    pulse, design_for, grid, monkeypatch, entry
):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a series was computed before the drive was checked")

    monkeypatch.setattr(dynamics, "future_drive", unbuilt)
    monkeypatch.setattr(dynamics, "initial_modes", unbuilt)
    for module in (_integrate, dynamics):
        monkeypatch.setattr(module, "_feed", unbuilt)
    params, des = design_for(1.6716, 0.002)
    args = [pulse, des.drive[:-5], params, ps.InitialState.vacuum()]
    if entry == "simulate_discrete_bath":
        args.append(ps.discretize_bath(params, 8, 40.0))
    with pytest.raises(GridMismatch, match="grid wants 31417"):
        getattr(ps, entry)(*args, grid)


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
    # its pseudomode has no source and no decay, so it never leaves zero
    assert not np.any(traj.z_mem)


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
    om_h = half_lattice(drive)
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
def test_reduced_solver_is_rk4_bit_for_bit(pulse, detuned_case, rk4, scalar_loops, memory):
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
@pytest.mark.parametrize("memory", [True, False], ids=["nonmarkovian", "markovian"])
def test_memory_solver_and_rk4_fail_at_the_same_time(pulse, detuned_case, rk4, memory):
    params, grid, drive, init = detuned_case
    drive = drive.copy()
    drive[1200] = np.nan
    solve = ps.simulate_nonmarkovian if memory else ps.simulate_markovian
    with pytest.raises(NonFiniteState) as run_err:
        solve(pulse, drive, params, init, grid)
    y0 = [init.g_amp, init.e_amp, init.x_amp] + ([0.0] if memory else [])
    rhs = explicit_reduced_rhs(pulse, drive, params, grid, memory)
    with pytest.raises(NonFiniteState) as rk4_err:
        rk4(y0, rhs, grid.dt, grid.n_steps)
    assert run_err.value.t == rk4_err.value.t < grid.span


def block_grid():
    """Three full blocks of the loops' input feed and a partial fourth."""
    n = 3 * _integrate._BLOCK + 517
    return ps.TimeGrid.from_span(PI, PI / n)


def named_as_the_loop_names(err, names):
    """The loop's name for the rk4 reference's ``y[i]`` amplitude."""
    index = int(err.amplitude[2:-1])
    return names[min(index, len(names) - 1)]


@pytest.fixture(scope="module")
def detuned_blocks(detuned_case):
    """``detuned_case`` on :func:`block_grid`."""
    params, _, _, init = detuned_case
    grid = block_grid()
    t = grid.times
    return params, grid, 40.0 * np.sin(t) * np.exp(0.3j * t), init


@pytest.mark.parametrize("memory", [True, False], ids=["nonmarkovian", "markovian"])
def test_reduced_solver_is_rk4_bit_for_bit_across_blocks(
    pulse, detuned_blocks, rk4, scalar_loops, memory
):
    params, grid, drive, init = detuned_blocks
    assert grid.n_steps > 3 * _integrate._BLOCK and grid.n_steps % _integrate._BLOCK
    solve = ps.simulate_nonmarkovian if memory else ps.simulate_markovian
    traj = solve(pulse, drive, params, init, grid)
    y0 = [init.g_amp, init.e_amp, init.x_amp] + ([0.0] if memory else [])
    rhs = explicit_reduced_rhs(pulse, drive, params, grid, memory)
    path = rk4(y0, rhs, grid.dt, grid.n_steps)
    for col, amp in enumerate((traj.g, traj.e, traj.x, traj.z_mem)[: len(y0)]):
        assert np.array_equal(amp, path[:, col])
    if not memory:
        assert not np.any(traj.z_mem)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("memory", [True, False], ids=["nonmarkovian", "markovian"])
def test_reduced_solver_and_rk4_fail_alike_in_a_later_block(
    pulse, detuned_blocks, rk4, memory
):
    params, grid, drive, init = detuned_blocks
    drive = drive.copy()
    drive[2 * _integrate._BLOCK + 300] = np.nan
    solve = ps.simulate_nonmarkovian if memory else ps.simulate_markovian
    with pytest.raises(NonFiniteState) as run_err:
        solve(pulse, drive, params, init, grid)
    y0 = [init.g_amp, init.e_amp, init.x_amp] + ([0.0] if memory else [])
    rhs = explicit_reduced_rhs(pulse, drive, params, grid, memory)
    with pytest.raises(NonFiniteState) as rk4_err:
        rk4(y0, rhs, grid.dt, grid.n_steps)
    assert run_err.value.t == rk4_err.value.t
    assert 2 * _integrate._BLOCK * grid.dt < run_err.value.t < grid.span
    assert run_err.value.amplitude == named_as_the_loop_names(rk4_err.value, "gexz")


def test_reduced_loop_ends_an_overflowing_modulus_in_nonfinite_state(
    monkeypatch, scalar_loops
):
    # g = 1.5e308 (1 + 1j) after the one step: both parts are finite,
    # but abs(g) would raise OverflowError.  The loop steps the reduced
    # stage with zero couplings; of the parameters it reads gamma_L, and
    # the detuning makes the field complex
    grid = ps.TimeGrid.from_span(6.0, 6.0)
    params = ps.PhysicalParams(
        g_cav=1.0, gamma_L=0.0, delta1=0.7, delta2=0.0,
        big_gamma=1.0, bandwidth_w=1.0, rho_offset=0.0,
    )

    def zero_couplings(k0, k1):
        return (np.zeros(2 * (k1 - k0) + 1, dtype=complex),) * 4

    def src(k0, k1):
        return np.full(2 * (k1 - k0) + 1, 0.25e308 * (1 + 1j))

    monkeypatch.setattr(dynamics, "_couplings", lambda *args: zero_couplings)
    with pytest.raises(NonFiniteState) as err:
        dynamics._reduced_run(
            np.zeros(2), src, 0.0, 0.0, 0.0, params, ps.InitialState(), grid
        )
    assert err.value.t == 6.0 and err.value.amplitude == "g"


@pytest.mark.parametrize("largest", ["g", "e"])
def test_among_names_the_largest_of_moduli_past_the_float_maximum(largest):
    sizes = {"g": 1.2e308, "e": 1.3e308}
    if largest == "g":
        sizes = {"g": 1.3e308, "e": 1.2e308}
    amplitudes = {name: size * (1 + 1j) for name, size in sizes.items()}
    err = NonFiniteState.among(1.0, x=0.0, **amplitudes)
    assert err.amplitude == largest
    assert NonFiniteState.among(1.0, g=1e308j, e=complex(math.inf, 0.0)).amplitude == "e"


# ------------------------------------------------ the real field on resonance

SOLVERS = {"nonmarkovian": ps.simulate_nonmarkovian, "markovian": ps.simulate_markovian}
REAL_STARTS = {
    "matched": ps.InitialState.matched(0.002),
    "vacuum": ps.InitialState.vacuum(),
    "imaginary_x": ps.InitialState(g_amp=0.1, e_amp=0.2, x_amp=0.05j),
}


def bits(a):
    """The bit patterns of a complex array, the sign of each zero included."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture(scope="module")
def resonant_blocks(pulse, make_params):
    """Resonant runs on :func:`block_grid` of the built-in pulse and of a
    spline through its samples, each with its designed drive, that drive
    conjugated (the sign of every zero imaginary part flipped) and a real
    drive that is exactly zero on a third of the grid."""
    params = make_params(2.0, 0.002)
    grid = block_grid()
    knots = np.linspace(0.0, PI, 201)
    pulses = {"builtin": pulse, "sampled": ps.sampled_packet(knots, pulse.value(knots))}
    drives = {}
    for kind, shape in pulses.items():
        designed = ps.design_drive(shape, params, grid).drive
        drives[kind, "designed"] = designed
        drives[kind, "conjugate"] = np.conj(designed)
        drives[kind, "zero_samples"] = 40.0 * np.maximum(np.sin(3.0 * grid.times), 0.0)
    return params, grid, pulses, drives


def complex_field(monkeypatch):
    """Make every reduced run step complex amplitudes: the reference the
    real field must match."""
    monkeypatch.setattr(dynamics, "_real_field", lambda *args: False)


@pytest.mark.parametrize("drive_kind", ["designed", "conjugate", "zero_samples"])
@pytest.mark.parametrize("pulse_kind", ["builtin", "sampled"])
@pytest.mark.parametrize("start", REAL_STARTS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_resonant_real_field_is_the_complex_loop_bit_for_bit(
    resonant_blocks, monkeypatch, scalar_loops, solver, start, pulse_kind, drive_kind
):
    params, grid, pulses, drives = resonant_blocks
    drive, init = drives[pulse_kind, drive_kind], REAL_STARTS[start]
    assert dynamics._real_field(np.asarray(drive, complex), params, init)
    args = (pulses[pulse_kind], drive, params, init, grid)
    real = SOLVERS[solver](*args)
    with monkeypatch.context() as m:
        complex_field(m)
        full = SOLVERS[solver](*args)
    for name in ("g", "e", "x", "z_mem", "y_out", "phi_out"):
        assert np.array_equal(bits(getattr(real, name)), bits(getattr(full, name))), name


@pytest.mark.parametrize("pulse_kind", ["builtin", "sampled"])
@pytest.mark.parametrize("start", REAL_STARTS)
@pytest.mark.parametrize("memory", [True, False], ids=["nonmarkovian", "markovian"])
def test_resonant_real_field_is_rk4_bit_for_bit(
    resonant_blocks, rk4, scalar_loops, memory, start, pulse_kind
):
    params, grid, pulses, drives = resonant_blocks
    pulse = pulses[pulse_kind]
    drive, init = drives[pulse_kind, "zero_samples"], REAL_STARTS[start]
    solve = ps.simulate_nonmarkovian if memory else ps.simulate_markovian
    traj = solve(pulse, drive, params, init, grid)
    y0 = [init.g_amp, init.e_amp, init.x_amp] + ([0.0] if memory else [])
    rhs = explicit_reduced_rhs(pulse, np.asarray(drive, complex), params, grid, memory)
    path = rk4(y0, rhs, grid.dt, grid.n_steps)
    for col, amp in enumerate((traj.g, traj.e, traj.x, traj.z_mem)[: len(y0)]):
        assert np.array_equal(bits(amp), bits(path[:, col]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "cause", ["nan_sample", "inf_sample", "minus_inf_sample", "huge_drive", "unstable_drive"]
)
@pytest.mark.parametrize("start", REAL_STARTS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_resonant_real_field_blows_up_as_the_complex_loop(
    pulse, resonant_blocks, monkeypatch, solver, start, cause
):
    # a NaN or infinite sample in the third block, which the real
    # couplings carry as it is and the complex ones partly as NaN; a
    # drive whose first stages overflow; and one past RK4's stability
    # bound (|dt * 1e4| = 4.7), which grows about 16-fold a step until
    # it overflows
    params, grid, _, drives = resonant_blocks
    drive = drives["builtin", "designed"].copy()
    samples = {"nan_sample": np.nan, "inf_sample": np.inf, "minus_inf_sample": -np.inf}
    if cause in samples:
        drive[2 * _integrate._BLOCK + 300] = samples[cause]
    else:
        drive[:] = 1e200 if cause == "huge_drive" else 1e4
    init = REAL_STARTS[start]
    assert dynamics._real_field(drive, params, init)
    args = (pulse, drive, params, init, grid)
    with pytest.raises(NonFiniteState) as real_err:
        SOLVERS[solver](*args)
    with monkeypatch.context() as m:
        complex_field(m)
        with pytest.raises(NonFiniteState) as full_err:
            SOLVERS[solver](*args)
    real, full = real_err.value, full_err.value
    assert (real.t, real.amplitude, str(real)) == (full.t, full.amplitude, str(full))
    assert real.t < grid.span


def stepped_types(monkeypatch):
    """The types of the numbers the scalar loops step through, collected
    from the first step of each block as the loops run."""
    seen = set()
    feed = _integrate._feed

    def spy(n, series):
        for k0, k1, steps in feed(n, series):
            first = next(steps)
            seen.update(type(v) for v in first)
            yield k0, k1, itertools.chain([first], steps)

    for module in (_integrate, dynamics):
        monkeypatch.setattr(module, "_feed", spy)
    return seen


@pytest.mark.parametrize(
    "case",
    [
        "resonant", "delta1", "delta2", "complex_drive",
        "imaginary_g", "real_x", "x_real_part_minus_zero",
    ],
)
@pytest.mark.parametrize("solver", SOLVERS)
def test_only_resonant_real_runs_step_floats(
    pulse, resonant_blocks, make_params, monkeypatch, scalar_loops, solver, case
):
    # the couplings are complex in every run but the first; the sources
    # N and sqrt(big_gamma) phi_in are real in all of them
    params, grid, _, drives = resonant_blocks
    drive, init = drives["builtin", "designed"], REAL_STARTS["matched"]
    if case in ("delta1", "delta2"):
        params = make_params(2.0, 0.002, **{case: 0.7})
    elif case == "complex_drive":
        drive = drive.copy()
        drive[100] += 1e-12j
    elif case == "imaginary_g":
        init = ps.InitialState(g_amp=0.1j)
    elif case == "real_x":
        init = ps.InitialState(x_amp=0.05)
    elif case == "x_real_part_minus_zero":
        init = ps.InitialState(x_amp=-0.05j)
    seen = stepped_types(monkeypatch)
    SOLVERS[solver](pulse, drive, params, init, grid)
    assert seen == ({float} if case == "resonant" else {complex, float})


def test_a_start_whose_minus_zero_part_persists_steps_complex(
    pulse, make_params, monkeypatch, scalar_loops
):
    # without loss, under a constant drive, Im e = -0 at a start with
    # x = 0 - 0j stays -0 for the first steps of the complex loop; a real
    # field writes +0 there
    params = make_params(2.0, 0.002, gamma_L=0.0)
    grid = ps.TimeGrid.from_span(PI, PI / 400)
    drive = np.full(grid.n_steps + 1, 40.0)
    init = ps.InitialState(e_amp=complex(0.2, -0.0), x_amp=complex(0.0, -0.0))
    seen = stepped_types(monkeypatch)
    traj = ps.simulate_nonmarkovian(pulse, drive, params, init, grid)
    assert complex in seen
    later = traj.e.imag[1:]
    assert np.any(np.signbit(later) & (later == 0.0))


# ------------------------------------- block recurrences against the loops

# the block recurrences sum each step's RK4 stages in another order than
# the scalar loops; over the presets' parameters and 36 random draws at
# dt = 1e-4 and 1e-3 the largest gap, relative to a series' largest
# modulus, was 3.6e-13 (x of the memory-kernel route at W = 1)
SCAN_REL = 1e-12


def rel_gap(a, b):
    """``max |a - b|`` relative to the largest modulus of ``b``."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def assert_tracks_the_loop(traj, ref):
    for name in ("g", "e", "x", "z_mem", "y_out"):
        if np.any(getattr(ref, name)):
            assert rel_gap(getattr(traj, name), getattr(ref, name)) <= SCAN_REL, name
        else:
            assert not np.any(getattr(traj, name)), name
    scale = np.max(np.abs(ref.phi_in))
    assert np.max(np.abs(traj.phi_out - ref.phi_out)) <= SCAN_REL * scale


@pytest.mark.parametrize("dt", [1e-4, 1e-3])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("start", ["matched", "vacuum"])
@pytest.mark.parametrize("solver", SOLVERS)
def test_block_recurrences_track_the_scalar_loops(
    pulse, make_params, loop_run, solver, start, field, dt
):
    # a resonant run steps floats, a detuned one complex values; both
    # grids hold several blocks, the last one partial
    detuning = {} if field == "real" else {"delta1": 0.7, "delta2": -1.3}
    params = make_params(1.6716, 0.002, **detuning)
    grid = ps.TimeGrid.from_span(PI, dt)
    assert grid.n_steps > _integrate._BLOCK and grid.n_steps % _integrate._BLOCK
    drive = ps.design_drive(pulse, params, grid).drive
    init = REAL_STARTS[start]
    assert dynamics._real_field(drive, params, init) == (field == "real")
    args = (pulse, drive, params, init, grid)
    traj = SOLVERS[solver](*args)
    assert_tracks_the_loop(traj, loop_run(SOLVERS[solver], *args))
    if field == "real":
        # the floats are written into the complex series: the zero
        # parts are +0, as the real loop writes them
        for part in (traj.g.imag, traj.e.imag, traj.x.real, traj.z_mem.imag):
            assert not np.any(part) and not np.any(np.signbit(part))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    w=st.floats(math.log(0.5), math.log(25.0)).map(math.exp),
    rho=st.floats(0.001, 0.01),
    g_over_pi=st.floats(14.0, 30.0),
    detuned=st.booleans(),
    d1=st.floats(-10.0, 10.0),
    d2=st.floats(-10.0, 10.0),
)
def test_block_recurrences_track_the_scalar_loops_over_draws(
    pulse, make_params, loop_run, w, rho, g_over_pi, detuned, d1, d2
):
    detuning = {"delta1": d1, "delta2": d2} if detuned else {}
    params = make_params(w, rho, g_cav=g_over_pi * PI, **detuning)
    grid = ps.TimeGrid.from_span(PI, 1e-3)
    try:
        drive = ps.design_drive(pulse, params, grid).drive
    except InfeasibleDesign:
        return
    for solve in SOLVERS.values():
        for init in (ps.InitialState.matched(rho), ps.InitialState.vacuum()):
            args = (pulse, drive, params, init, grid)
            assert_tracks_the_loop(solve(*args), loop_run(solve, *args))


@pytest.mark.parametrize("case", ["resonant", "delta1", "complex_drive", "imaginary_g"])
@pytest.mark.parametrize("solver", SOLVERS)
def test_only_resonant_real_runs_build_float_maps(
    pulse, resonant_blocks, make_params, built_map_types, solver, case
):
    params, grid, _, drives = resonant_blocks
    drive, init = drives["builtin", "designed"], REAL_STARTS["matched"]
    if case == "delta1":
        params = make_params(2.0, 0.002, delta1=0.7)
    elif case == "complex_drive":
        drive = drive.copy()
        drive[100] += 1e-12j
    elif case == "imaginary_g":
        init = ps.InitialState(g_amp=0.1j)
    SOLVERS[solver](pulse, drive, params, init, grid)
    assert built_map_types == {np.dtype(float if case == "resonant" else complex)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cause", ["nan_sample", "huge_drive", "unstable_drive"])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("solver", SOLVERS)
def test_a_later_block_that_blows_up_raises_as_the_loop(
    pulse, resonant_blocks, make_params, loop_runs, loop_run, solver, field, cause
):
    # from the third block on: a NaN sample, a drive whose stages
    # overflow at once, and one past RK4's stability bound, which grows
    # about 16-fold a step until it overflows
    params, grid, _, drives = resonant_blocks
    if field == "complex":
        params = make_params(2.0, 0.002, delta2=0.7)
    drive = drives["builtin", "designed"].copy()
    at = 2 * _integrate._BLOCK + 300
    if cause == "nan_sample":
        drive[at] = np.nan
    else:
        drive[at:] = 1e200 if cause == "huge_drive" else 1e4
    args = (pulse, drive, params, REAL_STARTS["matched"], grid)
    with pytest.raises(NonFiniteState) as run_err:
        SOLVERS[solver](*args)
    assert len(loop_runs) == 1
    with pytest.raises(NonFiniteState) as loop_err:
        loop_run(SOLVERS[solver], *args)
    run, loop = run_err.value, loop_err.value
    assert (run.t, run.amplitude, str(run)) == (loop.t, loop.amplitude, str(loop))
    assert 2 * _integrate._BLOCK * grid.dt < run.t < grid.span


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solver", SOLVERS)
def test_a_block_near_overflow_is_stepped_by_the_loop(
    pulse, make_params, loop_runs, loop_run, solver
):
    # a photon of amplitude 1e306 under a silent drive: the cavity
    # reaches ~1e304, near enough to the float maximum for the blocks
    # not to settle, yet no stage of the scalar loop overflows
    params = make_params(2.0, 0.002)
    grid = block_grid()
    huge = ps.InputPulse(
        duration=PI,
        _value=lambda t: 1e306 * pulse.value(t),
        _d1=lambda t: 1e306 * pulse.d1(t),
        _d2=lambda t: 1e306 * pulse.d2(t),
    )
    args = (huge, np.zeros(grid.n_steps + 1), params, ps.InitialState.vacuum(), grid)
    traj = SOLVERS[solver](*args)
    assert len(loop_runs) == 1
    ref = loop_run(SOLVERS[solver], *args)
    for name in ("g", "e", "x", "z_mem", "y_out", "phi_out"):
        series = getattr(traj, name)
        assert np.isfinite(series).all(), name
        assert np.array_equal(bits(series), bits(getattr(ref, name))), name
    assert np.max(np.abs(traj.g)) > 1e303


PAPER_RUNS = {
    "fig2c": ("simulate", "preset = fig2c\n"),
    "fig7a": ("dark", "preset = fig7a\n"),
    "fig7c": ("dark", "preset = fig7c\n"),
    "fig7e": ("dark", "preset = fig7e\n"),
    "oracle_500": (
        "oracle",
        "g_cav = 30pi\ngamma_L = 6pi\nbandwidth_w = 2.0\nrho_offset = 0.002\n"
        "n_modes = 500\nband_halfwidth = 40.0\ngrid.dt = 5e-4\n",
    ),
}


def coupling_types(monkeypatch):
    """For each run of the reduced routes and the comb, the dtypes of the
    coupling blocks it takes from ``dynamics._couplings``, collected as
    the blocks are formed."""
    runs = []
    couplings = dynamics._couplings

    def spy(*args):
        block = couplings(*args)
        seen = set()
        runs.append(seen)

        def spied(k0, k1):
            out = block(k0, k1)
            seen.update(np.result_type(c) for c in out)
            return out

        return spied

    monkeypatch.setattr(dynamics, "_couplings", spy)
    return runs


@pytest.mark.parametrize("run", PAPER_RUNS)
def test_the_paper_runs_never_step_the_scalar_loop(tmp_path, monkeypatch, loop_runs, run):
    # fig2c steps its matched and its vacuum start, the oracle mode its
    # reduced route: the blocks settle every one of them.  Both and the
    # oracle's comb are resonant and real, so they form no complex
    # coupling block either
    mode, text = PAPER_RUNS[run]
    formed = coupling_types(monkeypatch)
    assert runner.run_scenario(config.parse_config(text, mode), tmp_path) == 0
    assert loop_runs == []
    assert formed == ([] if mode == "dark" else [{np.dtype(float)}] * 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("deltas", [(0.0, 0.0), (-0.0, -0.0), (0.7, -1.3)])
def test_couplings_keep_their_bits_with_non_finite_drive_samples(make_params, deltas):
    params = make_params(2.0, 0.002, delta1=deltas[0], delta2=deltas[1])
    grid = ps.TimeGrid.from_span(PI, PI / 40)
    drive = 40.0 * np.sin(grid.times) + 0j
    drive[[3, 9, 17]] = np.nan, np.inf, -np.inf
    th = grid.half_times_block(2, 30)
    om_h = half_lattice(drive)[4:61]
    e2m = np.exp(-1j * params.delta2 * th)
    e1m = np.exp(-1j * params.delta1 * th)
    cav = -1j * params.g_cav * e2m
    sto = -1j * np.conj(om_h) * e1m
    rev = -1j * om_h * np.conj(e1m)
    bck = -1j * params.g_cav * np.conj(e2m)
    got = dynamics._couplings(drive, params, grid)(2, 30)
    for a, b in zip(got, (cav, sto, rev, bck)):
        assert np.array_equal(bits(a), bits(b))


def test_output_envelope_is_the_complex_difference_bit_for_bit():
    # y - phi_in for a real phi_in, the signs of zero parts included
    grid = ps.TimeGrid.from_span(1.0, 0.25)
    y = np.array([1 + 0j, complex(2.0, -0.0), complex(-0.0, 3.0), complex(0.5, -0.0), 1j])
    phi_in = np.array([1.0, -0.0, 0.0, 0.5, 2.0])
    traj = dynamics._trajectory(grid, phi_in, y, y, y, y, y)
    assert np.array_equal(bits(traj.phi_out), bits(y - phi_in))


def test_forward_run_memory_beyond_its_output_does_not_grow_with_the_grid(
    pulse, make_params, monkeypatch, traced_peak
):
    # the loop's inputs reach it one block at a time.  Tracing costs
    # about 0.5 ms a step of the loop, so short grids of 64-step blocks
    # stand in for long grids of full blocks
    monkeypatch.setattr(_integrate, "_BLOCK", 64)
    params = make_params(2.0, 0.002)

    def excess(n_steps):
        grid = ps.TimeGrid(dt=PI / n_steps, n_steps=n_steps)
        drive = ps.design_drive(pulse, params, grid).drive
        seed = ps.InitialState.matched(params.rho_offset)
        peak, traj = traced_peak(
            lambda: ps.simulate_nonmarkovian(pulse, drive, params, seed, grid)
        )
        series = (traj.g, traj.e, traj.x, traj.z_mem, traj.y_out, traj.phi_in, traj.phi_out)
        return peak - sum(a.nbytes for a in series)

    # a first traced run fills one-time caches, which the longer run
    # would otherwise read as growth per step
    excess(1000)
    # measured -7.2 to -6.6 B a step after the warm-up; one whole half
    # lattice as a list of floats adds 64, and the whole-grid lists of
    # the coupling feed added 424
    assert (excess(4000) - excess(1000)) / 3000 < 12.0


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


@pytest.mark.parametrize("n_modes", [6, 7, 500, 501, 4000])
def test_bath_comb_is_mirrored_bit_for_bit(make_params, n_modes):
    # omega_{-j} = -omega_j and k_{-j} = conj(k_j) in every bit; an odd
    # comb's middle mode sits at omega = 0 with a real weight
    bath = ps.discretize_bath(make_params(2.0, 0.002), n_modes, 160.0)
    f, k = bath.frequencies, bath.weights
    mid = n_modes // 2
    np.testing.assert_array_equal(bits(f[::-1][:mid]), bits(-f[:mid]))
    np.testing.assert_array_equal(bits(k[::-1][:mid]), bits(np.conj(k[:mid])))
    if n_modes % 2:
        assert f[mid] == 0.0 and k[mid].imag == 0.0
    assert dynamics._mirrored(bath) == (n_modes % 2 == 0)


@pytest.mark.parametrize("n_modes,half_band", [(500, 40.0), (4000, 160.0)])
def test_initial_modes_of_a_mirrored_comb_are_conjugate_halves(
    pulse, make_params, n_modes, half_band
):
    # equal in value; a zero part may differ in sign, as at omega = +-2
    # on this grid, where the projection's imaginary part is exactly 0
    grid = ps.TimeGrid.from_span(PI, 5e-4)
    bath = ps.discretize_bath(make_params(2.0, 0.002), n_modes, half_band)
    modes, _ = ps.initial_modes(pulse, bath, grid)
    np.testing.assert_array_equal(modes[::-1], np.conj(modes))


def test_narrow_band_is_rejected(pulse, make_params, grid):
    params = make_params(2.0, 0.002)
    bath = ps.discretize_bath(params, n_modes=100, band_halfwidth=1.0)
    with pytest.raises(BandTooNarrow):
        ps.initial_modes(pulse, bath, grid)


@pytest.mark.parametrize("n_modes", [3, 10, 30, 40])
def test_initial_modes_rejects_a_comb_too_coarse_for_the_grid(
    pulse, make_params, n_modes
):
    # 40 modes over +-40 MHz recur after pi us, the span; coarser combs
    # alias the photon (3 and 10 modes captured 7.62 and 1.14 photons,
    # 30 modes raised BandTooNarrow), which no band widening mends
    params = make_params(2.0, 0.002)
    grid = ps.TimeGrid.from_span(PI, 5e-4)
    bath = ps.discretize_bath(params, n_modes=n_modes, band_halfwidth=40.0)
    assert dynamics.least_comb_modes(40.0, grid.span) == 40
    if n_modes < 40:
        with pytest.raises(ValueError, match=rf"n_modes = {n_modes} .*n_modes >= 40$"):
            ps.initial_modes(pulse, bath, grid)
    else:
        _, capture = ps.initial_modes(pulse, bath, grid)
        assert 0.999 < capture <= 1.0


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


@pytest.mark.parametrize(
    "n_modes,half_band,dt",
    [(4000, 160.0, 5e-4), (777, 40.0, 1e-4), (183, 40.0, 1e-4)],
    ids=["large_comb", "short_last_block", "one_row_past_a_block"],
)
def test_initial_modes_match_one_phase_block_bitwise(
    pulse, make_params, one_block_projection, n_modes, half_band, dt
):
    # blocks of 203 modes at dt = 5e-4 and of 91 at dt = 1e-4: the combs
    # leave a last block of 143 and of 49 modes, and one mode past two
    # blocks, which joins the second
    grid = ps.TimeGrid.from_span(PI, dt)
    inner, _ = dynamics._projection_blocks(grid.n_steps + 1)
    assert n_modes > dynamics._PHASE_BYTES // (16 * inner)
    bath = ps.discretize_bath(make_params(2.0, 0.002), n_modes, half_band)
    modes, capture = ps.initial_modes(pulse, bath, grid)
    ref_modes, ref_capture = one_block_projection(pulse, bath, grid)
    assert capture == ref_capture
    np.testing.assert_array_equal(modes, ref_modes)


def test_initial_modes_peak_does_not_grow_with_the_comb(pulse, make_params, traced_peak):
    # the whole comb's phase blocks took a traced 35.3 MB here; a block
    # of modes at a time holds three phase blocks of 256 KiB at most
    grid = ps.TimeGrid.from_span(PI, 1e-4)
    bath = ps.discretize_bath(make_params(2.0, 0.002), 4000, 160.0)
    peak, _ = traced_peak(lambda: ps.initial_modes(pulse, bath, grid))
    assert peak <= 4_000_000


def explicit_comb_rhs(drive, params, bath, grid):
    """Right-hand side of the whole (3 + N)-dimensional oracle system."""
    th = grid.half_times
    om_h = half_lattice(drive)
    e2m = np.exp(-1j * params.delta2 * th)
    e1m = np.exp(-1j * params.delta1 * th)
    g_cav, gamma_l = params.g_cav, params.gamma_L

    def rhs(j, s):
        g, e, x, modes = s[0], s[1], s[2], s[3:]
        ds = np.empty_like(s)
        ds[0] = -1j * g_cav * e2m[j] * x - np.dot(np.conj(bath.weights), modes)
        ds[1] = -1j * np.conj(om_h[j]) * e1m[j] * x
        ds[2] = -1j * om_h[j] * np.conj(e1m[j]) * e - 1j * g_cav * np.conj(e2m[j]) * g
        ds[2] -= gamma_l * x
        ds[3:] = -1j * bath.frequencies * modes + bath.weights * g
        return ds

    return rhs


def mirrored_modes(amps):
    """Mode amplitudes with ``c(-omega) = conj(c(omega))`` exactly."""
    return 0.5 * (amps + np.conj(amps[::-1]))


@pytest.fixture(params=["detuned", "mirrored"])
def tiny_comb(request, make_params, coupling, monkeypatch):
    """A 6-mode comb on a 200-step grid, and a start to step it from.

    Six modes cannot hold the photon, so the projection is replaced by
    fixed mode amplitudes: the test is about the stepping.  The
    ``detuned`` comb has an arbitrary complex drive and start and is
    shifted off resonance, because on a symmetric comb the odd moments
    sum |k_j|^2 omega_j^m vanish and would hide errors in their terms;
    its dt * omega reaches 0.6, where every power of the comb generator
    in the step matters.  The ``mirrored`` comb is resonant, with a real
    drive, a real-structured start and mirrored modes, so it steps the
    real half-comb; its band of +-46 MHz takes dt * omega to 0.6 as well.
    """
    grid = ps.TimeGrid.from_span(PI, PI / 200)
    t = grid.times
    if request.param == "mirrored":
        params = make_params(2.0, 0.002)
        bath = ps.discretize_bath(params, n_modes=6, band_halfwidth=46.0)
        c0 = mirrored_modes(np.exp(1j * np.arange(6)) * np.linspace(0.2, 0.5, 6))
        drive = 40.0 * np.sin(t)
        init = ps.InitialState(g_amp=0.1, e_amp=0.2, x_amp=0.05j)
    else:
        params = make_params(2.0, 0.002, delta1=0.7, delta2=-1.3)
        comb = ps.discretize_bath(params, n_modes=6, band_halfwidth=40.0)
        freqs = comb.frequencies + 5.0
        bath = ps.BathDiscretization(
            params=params,
            frequencies=freqs,
            weights=coupling(params, freqs) * math.sqrt(comb.mode_spacing),
            band_halfwidth=comb.band_halfwidth,
        )
        c0 = np.exp(1j * np.arange(6)) * np.linspace(0.2, 0.5, 6)
        drive = 40.0 * np.sin(t) * np.exp(0.3j * t)
        init = ps.InitialState(g_amp=0.1j, e_amp=0.2, x_amp=-0.05)
    monkeypatch.setattr(dynamics, "initial_modes", lambda *args: (c0.copy(), 1.0))
    return params, bath, grid, c0, drive, init


def comb_run_against_rk4(pulse, rk4, params, bath, grid, c0, drive, init):
    """The oracle run and the explicit full-system RK4 path from one start."""
    run = ps.simulate_discrete_bath(pulse, drive, params, init, bath, grid)
    y0 = np.concatenate([[init.g_amp, init.e_amp, init.x_amp], c0])
    path = rk4(y0, explicit_comb_rhs(drive, params, bath, grid), grid.dt, grid.n_steps)
    return run, path


def assert_real_half_comb(run):
    """The marks of the real half-comb path: a mirrored final comb, and
    the parts of g, e and x that stay zero written as +0."""
    np.testing.assert_array_equal(run.final_modes[::-1], np.conj(run.final_modes))
    for part in (run.g.imag, run.e.imag, run.x.real):
        assert not part.any() and not np.signbit(part).any()


def test_comb_step_is_rk4_of_the_full_system(pulse, tiny_comb, rk4, monkeypatch):
    seen = stepped_types(monkeypatch)
    run, path = comb_run_against_rk4(pulse, rk4, *tiny_comb)
    for col, amp in enumerate((run.g, run.e, run.x)):
        assert np.max(np.abs(amp - path[:, col])) <= 1e-13
    assert np.max(np.abs(run.final_modes - path[-1, 3:])) <= 1e-13
    resonant = tiny_comb[0].is_resonant
    assert seen == ({float} if resonant else {complex})
    if resonant:
        assert_real_half_comb(run)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_comb_step_and_rk4_fail_at_the_same_time(pulse, tiny_comb, rk4):
    params, bath, grid, c0, drive, _ = tiny_comb
    drive = drive.copy()
    drive[120] = np.nan
    init = ps.InitialState.matched(params.rho_offset)
    with pytest.raises(NonFiniteState) as oracle_err:
        ps.simulate_discrete_bath(pulse, drive, params, init, bath, grid)
    y0 = np.concatenate([[init.g_amp, init.e_amp, init.x_amp], c0])
    with pytest.raises(NonFiniteState) as rk4_err:
        rk4(y0, explicit_comb_rhs(drive, params, bath, grid), grid.dt, grid.n_steps)
    assert oracle_err.value.t == rk4_err.value.t < grid.span


@pytest.fixture
def block_comb(tiny_comb):
    """``tiny_comb`` on :func:`block_grid`."""
    params, bath, grid, c0, drive, init = tiny_comb
    t = block_grid().times
    drive = 40.0 * np.sin(t) * (np.exp(0.3j * t) if np.iscomplexobj(drive) else 1.0)
    return params, bath, block_grid(), c0, drive, init


def test_comb_step_is_rk4_of_the_full_system_across_blocks(pulse, block_comb, rk4):
    run, path = comb_run_against_rk4(pulse, rk4, *block_comb)
    for col, amp in enumerate((run.g, run.e, run.x)):
        assert np.max(np.abs(amp - path[:, col])) <= 1e-13
    assert np.max(np.abs(run.final_modes - path[-1, 3:])) <= 1e-13
    if block_comb[0].is_resonant:
        assert_real_half_comb(run)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_comb_step_and_rk4_fail_alike_in_a_later_block(pulse, block_comb, rk4):
    params, bath, grid, c0, drive, _ = block_comb
    drive = drive.copy()
    drive[3 * _integrate._BLOCK + 100] = np.nan
    init = ps.InitialState.matched(params.rho_offset)
    with pytest.raises(NonFiniteState) as oracle_err:
        ps.simulate_discrete_bath(pulse, drive, params, init, bath, grid)
    y0 = np.concatenate([[init.g_amp, init.e_amp, init.x_amp], c0])
    with pytest.raises(NonFiniteState) as rk4_err:
        rk4(y0, explicit_comb_rhs(drive, params, bath, grid), grid.dt, grid.n_steps)
    assert oracle_err.value.t == rk4_err.value.t
    assert 3 * _integrate._BLOCK * grid.dt < oracle_err.value.t < grid.span
    names = ("g", "e", "x", "modes")
    assert oracle_err.value.amplitude == named_as_the_loop_names(rk4_err.value, names)


@pytest.mark.parametrize(
    "case",
    ["mirrored", "odd", "shifted", "unmirrored_start", "complex_start", "detuned"],
)
def test_only_resonant_mirrored_combs_step_the_real_half(
    pulse, make_params, monkeypatch, case
):
    # an odd comb's omega = 0 mode is its own mirror image, which the
    # half-comb does not hold: it steps the full comb as complex numbers
    params = make_params(2.0, 0.002, delta2=0.7 if case == "detuned" else 0.0)
    bath = ps.discretize_bath(params, 7 if case == "odd" else 6, 46.0)
    if case == "shifted":
        bath = dataclasses.replace(bath, frequencies=bath.frequencies + 5.0)
    c0 = mirrored_modes(np.exp(1j * np.arange(bath.n_modes)) * 0.3)
    if case == "unmirrored_start":
        c0[0] += 1e-12
    monkeypatch.setattr(dynamics, "initial_modes", lambda *args: (c0.copy(), 1.0))
    grid = ps.TimeGrid.from_span(PI, PI / 200)
    drive = 40.0 * np.sin(grid.times)
    init = ps.InitialState(g_amp=0.1j if case == "complex_start" else 0.0, e_amp=0.2)
    seen = stepped_types(monkeypatch)
    run = ps.simulate_discrete_bath(pulse, drive, params, init, bath, grid)
    assert seen == ({float} if case == "mirrored" else {complex})
    assert run.final_modes.shape == (bath.n_modes,)


def test_real_half_comb_tracks_the_complex_full_comb(pulse, make_params, monkeypatch):
    # the same resonant run, its full comb forced through the complex
    # path: the two differed by 6.3e-16 at most over four blocks
    params = make_params(2.0, 0.002)
    bath = ps.discretize_bath(params, n_modes=6, band_halfwidth=40.0)
    c0 = mirrored_modes(np.exp(1j * np.arange(6)) * np.linspace(0.2, 0.5, 6))
    monkeypatch.setattr(dynamics, "initial_modes", lambda *args: (c0.copy(), 1.0))
    grid = block_grid()
    drive = 40.0 * np.sin(grid.times)
    init = ps.InitialState(g_amp=0.1, e_amp=0.2, x_amp=0.05j)
    real = ps.simulate_discrete_bath(pulse, drive, params, init, bath, grid)
    monkeypatch.setattr(dynamics, "_mirrored", lambda bath: False)
    full = ps.simulate_discrete_bath(pulse, drive, params, init, bath, grid)
    assert_real_half_comb(real)
    assert not np.all(full.g.imag == 0.0)
    for a, b in [(real.g, full.g), (real.e, full.e), (real.x, full.x)]:
        assert np.max(np.abs(a - b)) <= 1e-14
    assert np.max(np.abs(real.final_modes - full.final_modes)) <= 1e-14


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
    assert np.max(np.abs(run.g - reduced.g)) < 1e-4


@pytest.mark.parametrize("path", ["complex", "real"])
def test_comb_bytes_bounds_what_a_mode_costs(pulse, make_params, traced_peak, path):
    # the runner's mode ceiling rests on comb_bytes, checked before the
    # path is known: it must bound the traced peak each extra mode adds
    # to discretize_bath and the run on either path, and the full
    # complex comb's not by a wide margin.  Below about 1000 modes the
    # projection's fixed phase blocks set the peak; from 2000 on the
    # mode vectors do.  The real half-comb measured 0.52 of the estimate
    grid = ps.TimeGrid.from_span(PI, 2e-3)
    params = make_params(2.0, 0.002, delta1=0.7 if path == "complex" else 0.0)
    des = ps.design_drive(pulse, params, grid)
    seed = ps.InitialState.matched(params.rho_offset)

    def run(n_modes):
        bath = ps.discretize_bath(params, n_modes=n_modes, band_halfwidth=40.0)
        ps.simulate_discrete_bath(pulse, des.drive, params, seed, bath, grid)

    def peak(n_modes):
        return traced_peak(lambda: run(n_modes))[0]

    per_mode = (peak(4000) - peak(2000)) / 2000
    estimate = (dynamics.comb_bytes(4000) - dynamics.comb_bytes(2000)) / 2000
    if path == "complex":
        assert 0.8 * estimate <= per_mode <= estimate
    else:
        assert per_mode <= 0.6 * estimate


@pytest.mark.parametrize(
    "gamma_l,tol", [(0.0, 1e-8), (6.0 * PI, 1e-10)], ids=["without_loss", "with_loss"]
)
def test_oracle_conserves_probability(pulse, design_for, grid, gamma_l, tol):
    # the comb, the atom and the cavity hold the photon and the seed,
    # less what the intermediate level lost at 2 gamma_L |x|^2
    params, des = design_for(2.0, 0.002, gamma_L=gamma_l)
    seed = ps.InitialState.matched(params.rho_offset)
    bath = ps.discretize_bath(params, n_modes=500, band_halfwidth=40.0)
    run = ps.simulate_discrete_bath(pulse, des.drive, params, seed, bath, grid)
    lost = 2.0 * gamma_l * float(np.trapezoid(np.abs(run.x) ** 2, dx=grid.dt))
    total = (
        abs(run.g[-1]) ** 2
        + abs(run.e[-1]) ** 2
        + abs(run.x[-1]) ** 2
        + float(np.sum(np.abs(run.final_modes) ** 2))
        + lost
    )
    assert total == pytest.approx(1.0 + params.rho_offset, abs=tol)


def test_oracle_accounts_for_the_whole_excitation(pulse, design_for, grid):
    # design-route stored population plus simulated residuals add up to
    # the photon plus the initial seed
    params, des = design_for(2.0, 0.002, gamma_L=0.0)
    seed = ps.InitialState.matched(params.rho_offset)
    bath = ps.discretize_bath(params, n_modes=500, band_halfwidth=40.0)
    run = ps.simulate_discrete_bath(pulse, des.drive, params, seed, bath, grid)
    total = (
        des.rho_ee[-1]
        + abs(run.g[-1]) ** 2
        + abs(run.x[-1]) ** 2
        + float(np.sum(np.abs(run.final_modes) ** 2))
    )
    assert total == pytest.approx(1.0 + params.rho_offset, abs=1e-4)


@pytest.mark.parametrize("w", [1.5, 2.5])
def test_oracle_reflection_converges_to_the_reduced_books(pulse, make_params, w):
    # the comb's final population is what left the cavity: the reduced
    # route's reflection plus what its bath pseudomode still holds,
    # 2 |z_T|^2 / (W Gamma) (a Lorentzian bath is one damped mode).  The
    # gap falls with every finer, wider comb; at 4000 modes it measured
    # 2.41e-5 (W = 1.5) and 3.42e-5 (W = 2.5) relative
    grid = ps.TimeGrid.from_span(PI, 5e-4)
    params = make_params(w, 0.002)
    drive = ps.design_drive(pulse, params, grid).drive
    vac = ps.InitialState.vacuum()
    reduced = ps.simulate_nonmarkovian(pulse, drive, params, vac, grid)
    r_reduced = ps.storage_metrics(reduced).reflected
    held = 2.0 * abs(reduced.z_mem[-1]) ** 2 / (w * params.big_gamma)
    gaps = []
    for n_modes, half_band in [(500, 40.0), (2000, 80.0), (4000, 160.0)]:
        bath = ps.discretize_bath(params, n_modes=n_modes, band_halfwidth=half_band)
        run = ps.simulate_discrete_bath(pulse, drive, params, vac, bath, grid)
        comb = float(np.sum(np.abs(run.final_modes) ** 2))
        gaps.append(abs(comb - (r_reduced + held)) / r_reduced)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 3.5e-5


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
