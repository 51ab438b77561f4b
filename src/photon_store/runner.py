"""Scenario orchestration: materialize a config, run, write files.

All output is deterministic: floats are rendered with 12 significant
digits, summation orders are fixed, and nothing time- or
machine-dependent lands in the files (wall time goes to stderr only).
Files are written to a temp path and atomically renamed, so a failed
run leaves no partial CSV behind.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import dark_state, dynamics, pulse_design
from .config import ScenarioConfig, with_point
from .errors import (
    BandTooNarrow,
    ConfigError,
    InfeasibleDesign,
    NonFiniteState,
    PhotonStoreError,
)
from .grid import TimeGrid
from .model import (
    InputPulse,
    PhysicalParams,
    SpectralModel,
    builtin_packet,
    sampled_packet,
)

OUTPUT_ENV_VAR = "PHOTON_STORE_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_BLOWUP = 4
EXIT_BAND = 5


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.12g}"


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Stream text chunks into a temp file, then rename it to ``path``.

    If a chunk cannot be produced or written, the temp file is removed
    and ``path`` is left as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


# rows per formatted block: one %-format string per block keeps the
# per-cell cost low without holding a long series as one string
_CSV_BLOCK_ROWS = 2048


def _csv_blocks(names: list[str], table: np.ndarray) -> Iterator[str]:
    yield ",".join(names) + "\n"
    row = ",".join(["%.12g"] * len(names)) + "\n"
    for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
        block = table[start : start + _CSV_BLOCK_ROWS]
        yield (row * block.shape[0]) % tuple(block.ravel().tolist())


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Render named real columns with 12 significant digits, atomically.

    Raises TypeError for a complex column instead of dropping its
    imaginary part.
    """
    names = list(columns)
    table = np.column_stack([columns[name] for name in names])
    table = table.astype(float, casting="same_kind", copy=False)
    _write_atomic(path, _csv_blocks(names, table))


def write_summary(path: Path, entries: dict[str, object]) -> None:
    _write_atomic(path, [f"{key} = {_fmt(value)}\n" for key, value in entries.items()])


@dataclass(frozen=True)
class Scenario:
    """A config materialized into concrete model objects."""

    pulse: InputPulse
    params: PhysicalParams
    grid: TimeGrid
    big_gamma_derived: bool


def load_pulse(cfg: ScenarioConfig) -> InputPulse:
    """The configured input pulse; a pulse file that cannot be read or
    does not describe a valid envelope is a :class:`ConfigError`."""
    if cfg.pulse == "builtin":
        return builtin_packet(cfg.pulse_duration)
    try:
        data = np.loadtxt(cfg.pulse)
        if data.ndim != 2 or data.shape[1] < 2:
            raise ValueError("needs two columns (t, phi_in)")
        return sampled_packet(data[:, 0], data[:, 1])
    except (OSError, ValueError) as exc:
        raise ConfigError.single("value", 0, f"pulse file {cfg.pulse!r}: {exc}") from exc


def materialize(cfg: ScenarioConfig) -> Scenario:
    pulse = load_pulse(cfg)
    derived = cfg.big_gamma is None
    big_gamma = (
        pulse_design.coupling_from_bandwidth(pulse, cfg.bandwidth_w)
        if derived
        else cfg.big_gamma
    )
    params = PhysicalParams(
        g_cav=cfg.g_cav,
        gamma_L=cfg.gamma_L,
        delta1=cfg.delta1,
        delta2=cfg.delta2,
        big_gamma=big_gamma,
        bandwidth_w=cfg.bandwidth_w,
        rho_offset=cfg.rho_offset,
        pulse_duration=pulse.duration,
    )
    grid = TimeGrid.from_span(max(cfg.effective_span(), pulse.duration), cfg.grid_dt)
    return Scenario(pulse=pulse, params=params, grid=grid, big_gamma_derived=derived)


def _echo_params(cfg: ScenarioConfig, sc: Scenario) -> dict[str, object]:
    return {
        "mode": cfg.mode,
        "preset": cfg.preset or "none",
        "preset_overrides": ",".join(cfg.overrides) if cfg.overrides else "none",
        "pulse": cfg.pulse,
        "pulse_duration": sc.pulse.duration,
        "g_cav": sc.params.g_cav,
        "gamma_L": sc.params.gamma_L,
        "delta1": sc.params.delta1,
        "delta2": sc.params.delta2,
        "big_gamma": sc.params.big_gamma,
        "big_gamma_derived": sc.big_gamma_derived,
        "bandwidth_w": sc.params.bandwidth_w,
        "rho_offset": sc.params.rho_offset,
        "grid_dt": sc.grid.dt,
        "grid_span": sc.grid.span,
        "n_steps": sc.grid.n_steps,
    }


def _equilibrium_residual(design: pulse_design.DesignResult) -> float:
    """Relative gap between G'(0) and N(0), which equilibrium equates."""
    g_dot0, n0 = design.g_dot[0], design.n_drive[0]
    if g_dot0 == 0.0:
        return math.inf
    return abs(g_dot0 - n0) / abs(g_dot0)


def _backflow(rho: np.ndarray) -> bool:
    return bool(np.any(np.diff(rho) < -1e-12))


def _design_series(design, phi_in: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "t": design.grid.times,
        "phi_in": phi_in,
        "G": design.g,
        "x_tilde": design.x_tilde,
        "rho_ee": design.rho_ee,
        "alpha": design.alpha,
        "beta": design.beta,
        "abs_omega": design.omega_modulus,
        "theta": design.omega_phase,
    }


def run_design(cfg: ScenarioConfig, sc: Scenario, outdir: Path) -> None:
    design = pulse_design.design_drive(sc.pulse, sc.params, sc.grid)
    series = _design_series(design, sc.pulse.value(sc.grid.times))
    write_csv(outdir / "design_series.csv", series)

    alpha = design.alpha
    crossings = int(np.sum(np.sign(alpha[1:]) * np.sign(alpha[:-1]) < 0))
    summary = _echo_params(cfg, sc)
    summary.update(
        {
            "equilibrium_residual": _equilibrium_residual(design),
            "rho_min": float(np.min(design.rho_ee)),
            "rho_final": float(design.rho_ee[-1]),
            "max_abs_omega": float(np.max(design.omega_modulus)),
            "omega_sign_changes": crossings,
            "backflow_detected": _backflow(design.rho_ee),
        }
    )
    write_summary(outdir / "summary", summary)


def run_simulate(cfg: ScenarioConfig, sc: Scenario, outdir: Path) -> None:
    design = pulse_design.design_drive(sc.pulse, sc.params, sc.grid)
    matched = dynamics.simulate_nonmarkovian(
        sc.pulse,
        design.drive,
        sc.params,
        dynamics.InitialState.matched(sc.params.rho_offset),
        sc.grid,
    )
    mismatched = dynamics.simulate_nonmarkovian(
        sc.pulse, design.drive, sc.params, dynamics.InitialState.vacuum(), sc.grid
    )

    series = _design_series(design, matched.phi_in)
    series["re_phi_out"] = matched.phi_out.real
    series["im_phi_out"] = matched.phi_out.imag
    series["abs_phi_out_sq"] = np.abs(matched.phi_out) ** 2
    write_csv(outdir / "simulate_series.csv", series)
    write_csv(
        outdir / "simulate_series_mismatched.csv",
        {
            "t": sc.grid.times,
            "phi_in": mismatched.phi_in,
            "re_phi_out": mismatched.phi_out.real,
            "im_phi_out": mismatched.phi_out.imag,
            "abs_phi_out_sq": np.abs(mismatched.phi_out) ** 2,
        },
    )

    m_matched = dynamics.storage_metrics(matched)
    m_mis = dynamics.storage_metrics(mismatched)
    summary = _echo_params(cfg, sc)
    summary.update(
        {
            "equilibrium_residual": _equilibrium_residual(design),
            "reflected_matched": m_matched.reflected,
            "reflected_mismatched": m_mis.reflected,
            "final_excited_matched": m_matched.final_excited,
            "final_excited_mismatched": m_mis.final_excited,
            "final_cavity_matched": m_matched.final_cavity,
            "peak_intermediate_matched": m_matched.peak_intermediate,
            "backflow_detected": _backflow(design.rho_ee),
        }
    )
    write_summary(outdir / "summary", summary)


def run_markovian(cfg: ScenarioConfig, sc: Scenario, outdir: Path) -> None:
    design = pulse_design.design_drive(sc.pulse, sc.params, sc.grid)
    flat = pulse_design.design_drive_markovian(sc.pulse, sc.params, sc.grid)
    series = _design_series(design, sc.pulse.value(sc.grid.times))
    series["rho_fee"] = flat.rho_ee
    series["abs_omega_f"] = flat.omega_modulus
    write_csv(outdir / "markovian_series.csv", series)

    summary = _echo_params(cfg, sc)
    summary.update(
        {
            "equilibrium_residual": _equilibrium_residual(design),
            "sup_diff_rho": float(np.max(np.abs(design.rho_ee - flat.rho_ee))),
            "backflow_detected": _backflow(design.rho_ee),
            "max_abs_omega": float(np.max(design.omega_modulus)),
            "max_abs_omega_f": float(np.max(flat.omega_modulus)),
        }
    )
    write_summary(outdir / "summary", summary)


def run_oracle(cfg: ScenarioConfig, sc: Scenario, outdir: Path) -> None:
    design = pulse_design.design_drive(sc.pulse, sc.params, sc.grid)
    init = dynamics.InitialState.matched(sc.params.rho_offset)
    reduced = dynamics.simulate_nonmarkovian(
        sc.pulse, design.drive, sc.params, init, sc.grid
    )
    bath = dynamics.discretize_bath(
        SpectralModel.from_params(sc.params), cfg.n_modes, cfg.band_halfwidth
    )
    oracle = dynamics.simulate_discrete_bath(
        sc.pulse, design.drive, sc.params, init, bath, sc.grid
    )
    tr = oracle.trajectory
    diff = np.abs(reduced.g - tr.g)
    write_csv(
        outdir / "oracle_series.csv",
        {
            "t": sc.grid.times,
            "phi_in": reduced.phi_in,
            "re_g_reduced": reduced.g.real,
            "im_g_reduced": reduced.g.imag,
            "re_g_oracle": tr.g.real,
            "im_g_oracle": tr.g.imag,
            "abs_g_diff": diff,
        },
    )
    summary = _echo_params(cfg, sc)
    summary.update(
        {
            "n_modes": bath.n_modes,
            "band_halfwidth": bath.band_halfwidth,
            "band_capture": oracle.capture,
            "weight_capture_ratio": bath.density_capture(),
            "sup_diff_G": float(np.max(diff)),
            "reflected_reduced": dynamics.storage_metrics(reduced).reflected,
            "reflected_oracle": dynamics.storage_metrics(tr).reflected,
        }
    )
    write_summary(outdir / "summary", summary)


def run_dark(cfg: ScenarioConfig, sc: Scenario, outdir: Path) -> None:
    dark = dark_state.adiabatic_design(sc.pulse, sc.params, sc.grid)
    run = dark_state.adiabatic_simulate(sc.pulse, dark, sc.params, sc.grid)
    comparison = dark_state.compare_dark(dark)

    gap = np.abs(dark.omega_adiabatic - dark.design.alpha)
    finite = np.isfinite(gap)
    t_gap = float(sc.grid.times[finite][np.argmax(gap[finite])])

    write_csv(
        outdir / "dark_series.csv",
        {
            "t": sc.grid.times,
            "phi_in": sc.pulse.value(sc.grid.times),
            "d1_sq": comparison.d1_sq,
            "d_dark_sq": comparison.d_dark_sq,
            "abs_omega": dark.design.omega_modulus,
            "omega_adiabatic": dark.omega_adiabatic,
        },
    )
    summary = _echo_params(cfg, sc)
    summary.update(
        {
            "sup_diff_pop": comparison.sup_diff,
            "conservation_drift": dark_state.conservation_drift(run),
            "adiabaticity_margin": dark_state.adiabaticity_margin(sc.params),
            "reflected_adiabatic": float(
                np.trapezoid(np.abs(run.phi_out) ** 2, dx=sc.grid.dt)
            ),
            "d1_final_sq": float(run.d1[-1] ** 2),
            "max_drive_gap_time": t_gap,
        }
    )
    write_summary(outdir / "summary", summary)


def _sweep_point(point_cfg: ScenarioConfig) -> dict[str, object]:
    """Metrics for one sweep point; runs in a worker process."""
    sc = materialize(point_cfg)
    design = pulse_design.design_drive(sc.pulse, sc.params, sc.grid)
    out: dict[str, object] = {
        "big_gamma": sc.params.big_gamma,
        "max_abs_omega": float(np.max(design.omega_modulus)),
        "backflow_detected": _backflow(design.rho_ee),
        "theta": design.omega_phase,
        "rho_ee": design.rho_ee,
    }
    if point_cfg.delta1 == 0.0 and point_cfg.delta2 == 0.0:
        flat = pulse_design.design_drive_markovian(sc.pulse, sc.params, sc.grid)
        out["sup_diff_rho"] = float(np.max(np.abs(design.rho_ee - flat.rho_ee)))
    return out


_ERROR_CODES = (
    (ConfigError, EXIT_CONFIG),
    (NonFiniteState, EXIT_BLOWUP),
    (BandTooNarrow, EXIT_BAND),
    (PhotonStoreError, EXIT_INFEASIBLE),
)


def _code_for(exc: PhotonStoreError) -> int:
    for etype, code in _ERROR_CODES:
        if isinstance(exc, etype):
            return code
    return EXIT_INFEASIBLE


def run_sweep(cfg: ScenarioConfig, outdir: Path) -> None:
    values = sorted(cfg.sweep_values)
    points = [with_point(cfg, v) for v in values]
    # every point shares the pulse, so a bad pulse file fails the sweep
    # as a whole (exit 2) before any point is dispatched
    load_pulse(cfg)

    results: list[dict | None] = [None] * len(points)
    codes: list[int] = [EXIT_OK] * len(points)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_sweep_point, p) for p in points]
            for i, fut in enumerate(futures):
                try:
                    results[i] = fut.result()
                except PhotonStoreError as exc:
                    codes[i] = _code_for(exc)
    else:
        for i, p in enumerate(points):
            try:
                results[i] = _sweep_point(p)
            except PhotonStoreError as exc:
                codes[i] = _code_for(exc)

    is_w_sweep = cfg.sweep_param == "bandwidth_w"
    names = [cfg.sweep_param, "status"]
    names += ["big_gamma", "max_abs_omega", "backflow_detected"]
    if is_w_sweep:
        names.append("sup_diff_rho")
    rows = []
    for value, res, code in zip(values, results, codes):
        row = [_fmt(value), str(code)]
        if res is None:
            row += [""] * (len(names) - 2)
        else:
            row += [
                _fmt(res["big_gamma"]),
                _fmt(res["max_abs_omega"]),
                _fmt(res["backflow_detected"]),
            ]
            if is_w_sweep:
                # detuned points have no Markovian gap: blank cell
                row.append(_fmt(res["sup_diff_rho"]) if "sup_diff_rho" in res else "")
        rows.append(",".join(row) + "\n")
    _write_atomic(outdir / "sweep_aggregate.csv", [",".join(names) + "\n", *rows])

    summary: dict[str, object] = {
        "mode": "sweep",
        "preset": cfg.preset or "none",
        "preset_overrides": ",".join(cfg.overrides) if cfg.overrides else "none",
        "sweep_param": cfg.sweep_param,
        "sweep_values": ",".join(_fmt(v) for v in values),
        "failed_points": ",".join(
            _fmt(v) for v, c in zip(values, codes) if c != EXIT_OK
        )
        or "none",
    }
    ok = {v: r for v, r, c in zip(values, results, codes) if c == EXIT_OK}
    if cfg.sweep_param == "delta2":
        residual = 0.0
        spread = 0.0
        for v, res in ok.items():
            mirror = ok.get(-v)
            if v > 0.0 and mirror is not None:
                residual = max(
                    residual, float(np.max(np.abs(res["theta"] + mirror["theta"])))
                )
            base = ok.get(0.0)
            if base is not None:
                spread = max(
                    spread, float(np.max(np.abs(res["rho_ee"] - base["rho_ee"])))
                )
        summary["theta_odd_residual"] = residual
        summary["rho_detuning_spread"] = spread
    write_summary(outdir / "summary", summary)


_MODE_RUNNERS = {
    "design": run_design,
    "simulate": run_simulate,
    "markovian": run_markovian,
    "oracle": run_oracle,
    "dark": run_dark,
}


def run_scenario(cfg: ScenarioConfig, outdir: str | Path | None = None) -> int:
    """Execute one scenario; returns a process exit code."""
    target = Path(
        outdir
        or cfg.output
        or os.environ.get(OUTPUT_ENV_VAR)
        or "out"
    )
    started = time.perf_counter()
    try:
        target.mkdir(parents=True, exist_ok=True)
        if cfg.mode == "sweep":
            run_sweep(cfg, target)
        elif cfg.mode in _MODE_RUNNERS:
            sc = materialize(cfg)
            _MODE_RUNNERS[cfg.mode](cfg, sc, target)
        else:
            raise ConfigError.single("value", 0, f"unsupported mode {cfg.mode!r}")
    except PhotonStoreError as exc:
        code = _code_for(exc)
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return code
    print(
        f"wall {time.perf_counter() - started:.2f} s -> {target}",
        file=sys.stderr,
    )
    return EXIT_OK
