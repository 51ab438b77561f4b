"""Scenario orchestration: turn a config into model objects, run, write files.

All output is deterministic: floats are rendered with 12 significant
digits, summation orders are fixed, and nothing time- or
machine-dependent lands in the files (wall time goes to stderr only).
CSV series are formatted a block of rows at a time by a numpy kernel
that writes exactly the bytes of Python's ``"%.12g"``; the values it
cannot settle exactly are formatted by Python itself.
Every file of a run, sweeps included, is streamed to a temp name, and
all are renamed into place only after the last write succeeded; a
failed run removes its temp files and any file it already renamed, so
the output directory gets all of a run's files or none of them.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import dark_state, dynamics, pulse_design
from .config import ScenarioConfig, with_point
from .errors import ConfigError, InfeasibleDesign, PhotonStoreError
from .grid import TimeGrid
from .model import InputPulse, PhysicalParams, builtin_packet, sampled_packet

EXIT_OK = 0


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    if isinstance(value, (complex, np.complexfloating)):
        # float() of a numpy complex would drop the imaginary part
        raise TypeError(f"cannot write complex value {value!r} as a real number")
    return f"{float(value):.12g}"


def _stream(path: Path, chunks: Iterable[str]) -> None:
    with open(path, "w") as fh:
        fh.writelines(chunks)


@contextlib.contextmanager
def _staged(outdir: Path) -> Iterator[Callable[[str], Path]]:
    """All-or-nothing output of one run into ``outdir``.

    Yields ``stage(name)``, the temp path to stream file ``name`` to.
    Once the block ends, every staged file is renamed into place.  If a
    chunk, a write or a rename fails, every temp file and every file
    already renamed is removed, so ``outdir`` gets all of the run's
    files or none of them.
    """
    pending: list[tuple[Path, Path]] = []
    placed: list[Path] = []

    def stage(name: str) -> Path:
        tmp = outdir / (name + ".tmp")
        pending.append((tmp, outdir / name))
        return tmp

    try:
        yield stage
        for tmp, final in pending:
            os.replace(tmp, final)
            placed.append(final)
    except BaseException:
        for path in [tmp for tmp, _ in pending] + placed:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        raise


# rows per formatted block: each of the kernel's temporaries of a
# 12-column block stays under 400 kB
_CSV_BLOCK_ROWS = 512


def _csv_blocks(names: list[str], columns: list[np.ndarray]) -> Iterator[str]:
    # imported on the first write: compiling the kernel would add about
    # 4 ms to every start-up that writes no series
    from ._csv_kernel import format_block

    yield ",".join(names) + "\n"
    for start in range(0, columns[0].shape[0], _CSV_BLOCK_ROWS):
        block = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns])
        yield format_block(block.astype(float, casting="same_kind", copy=False))


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Stream named real columns to ``path`` with 12 significant digits.

    The bytes are those of Python's ``"%.12g" % value``.  A numpy kernel
    scales each value to a 12-digit integer with a double-double
    product, exact to well within a rounding tie, and lays out its
    digits; non-finite values, subnormals, |v| outside about
    [1e-280, 1e280] and values within 1e-15 of a tie go to Python's
    ``%``.  Raises TypeError for a complex column, before ``path`` is
    opened, instead of dropping its imaginary part, and ValueError for
    columns of different lengths.
    """
    names = list(columns)
    series = [np.asarray(columns[name]) for name in names]
    # the table is stacked one block of rows at a time; its empty head
    # checks the columns before the file is opened
    if len({column.shape[0] for column in series}) > 1:
        raise ValueError("columns differ in length")
    np.column_stack([column[:0] for column in series]).astype(float, casting="same_kind")
    _stream(path, _csv_blocks(names, series))


def write_summary(path: Path, entries: dict[str, object]) -> None:
    _stream(path, [f"{key} = {_fmt(value)}\n" for key, value in entries.items()])


def load_pulse(cfg: ScenarioConfig) -> InputPulse:
    """The configured input pulse; a pulse file that cannot be read or
    does not describe a valid envelope, or a built-in packet too short
    to evaluate, is a :class:`ConfigError`."""
    if cfg.pulse == "builtin":
        try:
            return builtin_packet(cfg.pulse_duration)
        except OverflowError as exc:
            raise ConfigError.single(
                "value", 0, f"pulse_duration = {cfg.pulse_duration:g} is too short "
                "for the built-in packet's derivatives"
            ) from exc
    try:
        with warnings.catch_warnings():
            # loadtxt warns about a table without rows; the check below
            # reports it as the one error line instead
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(cfg.pulse, ndmin=2)
        if data.size == 0:
            raise ValueError("contains no samples")
        if data.shape[1] != 2:
            raise ValueError("needs exactly two columns (t, phi_in)")
        return sampled_packet(data[:, 0], data[:, 1])
    except (OSError, ValueError) as exc:
        raise ConfigError.single("value", 0, f"pulse file {cfg.pulse!r}: {exc}") from exc


# cost ceilings of one run: a simulate run holds about 0.27 kB per grid
# step (0.25 GiB at the ceiling; a fig2c run's traced peak is 277 B a
# step at dt = 1e-4 and 264 B at 1e-5); the oracle steps every bath mode at
# every grid step (about 15 ns a mode-step, 4 s at the ceiling), and its
# mode vectors (dynamics.comb_bytes: 224 B a mode, whatever the grid)
# get at most 0.85 GiB
MAX_STEPS = 1_000_000
MAX_MODE_STEPS = 250_000_000
MAX_MODE_BYTES = int(0.85 * 2**30)


def _pulse_and_grid(cfg: ScenarioConfig) -> tuple[InputPulse, TimeGrid]:
    """The configured pulse and the grid covering it, which every sweep
    point shares; a grid that numpy cannot build, an oracle comb too
    coarse to resolve it, or a run that would pass a cost ceiling is a
    :class:`ConfigError` raised before any series is allocated."""
    pulse = load_pulse(cfg)
    span = max(cfg.effective_span(), pulse.duration)
    where = f"grid.span = {span:g} at grid.dt = {cfg.grid_dt:g}"
    try:
        grid = TimeGrid.from_span(span, cfg.grid_dt)
    except (OverflowError, ValueError) as exc:
        raise ConfigError.single("value", 0, f"{where}: {exc}") from exc
    if grid.n_steps > MAX_STEPS:
        raise ConfigError.single(
            "value", 0, f"{where} makes {grid.n_steps:.3g} steps, "
            f"above the ceiling of {MAX_STEPS:.3g}"
        )
    if cfg.mode != "oracle":
        return pulse, grid
    least = dynamics.least_comb_modes(cfg.band_halfwidth, grid.span)
    if cfg.n_modes < least:
        recurrence = math.pi * cfg.n_modes / cfg.band_halfwidth
        raise ConfigError.single(
            "value", 0, f"n_modes = {cfg.n_modes} over band_halfwidth = "
            f"{cfg.band_halfwidth:g} recurs after {recurrence:.3g} us, within "
            f"grid.span = {span:g}; it needs n_modes >= {least:.12g}"
        )
    comb = f"n_modes = {cfg.n_modes} over {where}"
    if cfg.n_modes * grid.n_steps > MAX_MODE_STEPS:
        raise ConfigError.single(
            "value", 0, f"{comb} makes {cfg.n_modes * grid.n_steps:.3g} mode-steps, "
            f"above the ceiling of {MAX_MODE_STEPS:.3g}"
        )
    held = dynamics.comb_bytes(cfg.n_modes)
    if held > MAX_MODE_BYTES:
        raise ConfigError.single(
            "value", 0, f"{comb} holds {held / 2**30:.3g} GiB of mode vectors, "
            f"above the ceiling of {MAX_MODE_BYTES / 2**30:.3g} GiB"
        )
    return pulse, grid


class RunState:
    """A config turned into model objects, once per process.

    The pulse and the grid are loaded up front; :meth:`params` gives the
    physical parameters of the config or of one of its sweep points.  A
    single run designs its own drive, so the state holds no design
    samples or chain while a forward solver runs.  Only sweep tasks
    (:meth:`task`) take the pulse's design samples, when one first
    needs them, and keep the parameters, detuning-free chain and
    backflow flag of the last W, so the points of a Δ₂ sweep, which
    share W, share all three.  The entry is stored only once the chain
    succeeded, so a failed point cannot poison the points after it.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.pulse, self.grid = _pulse_and_grid(cfg)
        self._last: tuple[PhysicalParams, pulse_design.DesignChain, bool] | None = None

    def params(self, cfg: ScenarioConfig) -> PhysicalParams:
        """The physical parameters of a single-valued ``cfg`` of this
        state's pulse; Γ is derived from W and the pulse unless the
        config gives it."""
        big_gamma = cfg.big_gamma
        if big_gamma is None:
            big_gamma = pulse_design.coupling_from_bandwidth(self.pulse, cfg.bandwidth_w)
        return PhysicalParams(
            g_cav=cfg.g_cav,
            gamma_L=cfg.gamma_L,
            delta1=cfg.delta1,
            delta2=cfg.delta2,
            big_gamma=big_gamma,
            bandwidth_w=cfg.bandwidth_w,
            rho_offset=cfg.rho_offset,
        )

    @functools.cached_property
    def design_samples(self) -> pulse_design.DesignSamples:
        return pulse_design.sample_design_pulse(self.pulse, self.grid)

    def chain(
        self, cfg: ScenarioConfig
    ) -> tuple[PhysicalParams, pulse_design.DesignChain, bool]:
        """A point's parameters, the detuning-free chain at its W and
        whether that chain's ρ_ee flows back."""
        if self._last is None or self._last[0].bandwidth_w != cfg.bandwidth_w:
            resonant = self.params(replace(cfg, delta1=0.0, delta2=0.0))
            chain = pulse_design.memory_chain(self.design_samples, resonant)
            self._last = resonant, chain, _backflow(chain.rho_ee)
        resonant, chain, backflow = self._last
        return replace(resonant, delta1=cfg.delta1, delta2=cfg.delta2), chain, backflow

    def point(
        self, value: float, phase: bool = False
    ) -> tuple[int, dict[str, object], np.ndarray | None]:
        """Exit code, scalar metrics and drive phase θ of one sweep
        point.  A failed point has no metrics; a point off resonance
        forms its θ only when ``phase`` asks for it, and only a W point
        on resonance gives the Markovian gap of its aggregate.  On
        resonance the rotation is the identity, α = p and β = ±0, so
        max|Ω| is max|p| of the chain, bit for bit what ``hypot(α, β)``
        would give.  Off resonance the point rotates nothing either: it
        reads max|Ω| = max hypot(p, q), which does not read Δ₁, and θ
        from the drive's polar form (``pulse_design._polar_drive``)."""
        try:
            params, chain, backflow = self.chain(with_point(self.cfg, value))
            metrics: dict[str, object] = {
                "big_gamma": params.big_gamma,
                "backflow_detected": backflow,
            }
            theta = None
            if params.is_resonant:
                metrics["max_abs_omega"] = float(np.max(np.abs(chain.p)))
                if self.cfg.sweep_param == "bandwidth_w":
                    flat = pulse_design.markovian_population(self.design_samples, params)
                    metrics["sup_diff_rho"] = float(np.max(np.abs(chain.rho_ee - flat)))
            else:
                metrics["max_abs_omega"], theta = pulse_design._polar_drive(
                    chain, params, phase
                )
        except PhotonStoreError as exc:
            return exc.exit_code, {}, None
        return EXIT_OK, metrics, theta

    def task(
        self, values: tuple[float, ...]
    ) -> tuple[list[tuple[int, dict[str, object]]], float]:
        """Exit codes and scalar metrics of one unit of sweep work, and
        its phase residual.

        A task is one value or, in a Δ₂ sweep, a mirror pair (v, −v);
        the residual is max|θ_v + θ_{−v}| of a pair whose points both
        succeed, else 0, so only a pair's points form θ.  No series
        outlives the task, so the series a sweep holds do not grow with
        its point count, and only scalars cross a pool.
        """
        outcomes, phases = [], []
        for value in values:
            code, metrics, theta = self.point(value, phase=len(values) == 2)
            outcomes.append((code, metrics))
            if theta is not None:
                phases.append(theta)
        residual = 0.0
        if len(phases) == 2:
            residual = float(np.max(np.abs(phases[0] + phases[1])))
        return outcomes, residual


def _summary_header(cfg: ScenarioConfig) -> dict[str, object]:
    return {
        "mode": cfg.mode,
        "preset": cfg.preset or "none",
        "preset_overrides": ",".join(cfg.overrides) if cfg.overrides else "none",
    }


def _echo_params(state: RunState, params: PhysicalParams) -> dict[str, object]:
    return {
        **_summary_header(state.cfg),
        "pulse": state.cfg.pulse,
        "pulse_duration": state.pulse.duration,
        "g_cav": params.g_cav,
        "gamma_L": params.gamma_L,
        "delta1": params.delta1,
        "delta2": params.delta2,
        "big_gamma": params.big_gamma,
        "big_gamma_derived": state.cfg.big_gamma is None,
        "bandwidth_w": params.bandwidth_w,
        "rho_offset": params.rho_offset,
        "grid_dt": state.grid.dt,
        "grid_span": state.grid.span,
        "n_steps": state.grid.n_steps,
    }


# CSV name -> named columns, and the metrics that follow the echoed
# parameters in the summary
_Outputs = tuple[dict[str, dict[str, np.ndarray]], dict[str, object]]


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


def run_design(state: RunState, params: PhysicalParams) -> _Outputs:
    design = pulse_design.design_drive(state.pulse, params, state.grid)
    alpha = design.alpha
    crossings = int(np.sum(np.sign(alpha[1:]) * np.sign(alpha[:-1]) < 0))
    phi_in = state.pulse.value(state.grid.times)
    files = {"design_series.csv": _design_series(design, phi_in)}
    return files, {
        "equilibrium_residual": _equilibrium_residual(design),
        "rho_min": float(np.min(design.rho_ee)),
        "rho_final": float(design.rho_ee[-1]),
        "max_abs_omega": float(np.max(design.omega_modulus)),
        "omega_sign_changes": crossings,
        "backflow_detected": _backflow(design.rho_ee),
    }


def _output_columns(phi_out: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "re_phi_out": phi_out.real,
        "im_phi_out": phi_out.imag,
        "abs_phi_out_sq": np.abs(phi_out) ** 2,
    }


def run_simulate(state: RunState, params: PhysicalParams) -> _Outputs:
    design = pulse_design.design_drive(state.pulse, params, state.grid)
    drive = design.drive

    def forward(init: dynamics.InitialState):
        """phi_in, phi_out and the storage metrics of one memory-kernel
        run; the rest of its trajectory is freed here."""
        traj = dynamics.simulate_nonmarkovian(state.pulse, drive, params, init, state.grid)
        return traj.phi_in, traj.phi_out, dynamics.storage_metrics(traj)

    phi_in, phi_out, m_matched = forward(dynamics.InitialState.matched(params.rho_offset))
    mis_in, mis_out, m_mis = forward(dynamics.InitialState.vacuum())

    series = _design_series(design, phi_in)
    series.update(_output_columns(phi_out))
    files = {
        "simulate_series.csv": series,
        "simulate_series_mismatched.csv": {
            "t": state.grid.times,
            "phi_in": mis_in,
            **_output_columns(mis_out),
        },
    }
    return files, {
        "equilibrium_residual": _equilibrium_residual(design),
        "reflected_matched": m_matched.reflected,
        "reflected_mismatched": m_mis.reflected,
        "final_excited_matched": m_matched.final_excited,
        "final_excited_mismatched": m_mis.final_excited,
        "final_cavity_matched": m_matched.final_cavity,
        "peak_intermediate_matched": m_matched.peak_intermediate,
        "backflow_detected": _backflow(design.rho_ee),
    }


def run_markovian(state: RunState, params: PhysicalParams) -> _Outputs:
    # both designs take the same envelope samples; the outputs read two
    # series of the Markovian design, which is dropped before the other
    samples = pulse_design.sample_design_pulse(state.pulse, state.grid)
    flat = pulse_design.rotate_drive(
        pulse_design.markovian_chain(samples, params), params
    )
    rho_f, omega_f = flat.rho_ee, flat.omega_modulus
    del flat
    design = pulse_design.rotate_drive(
        pulse_design.memory_chain(samples, params), params
    )
    series = _design_series(design, samples.phi_half[::2])
    series["rho_fee"] = rho_f
    series["abs_omega_f"] = omega_f
    return {"markovian_series.csv": series}, {
        "equilibrium_residual": _equilibrium_residual(design),
        "sup_diff_rho": float(np.max(np.abs(design.rho_ee - rho_f))),
        "backflow_detected": _backflow(design.rho_ee),
        "max_abs_omega": float(np.max(design.omega_modulus)),
        "max_abs_omega_f": float(np.max(omega_f)),
    }


def run_oracle(state: RunState, params: PhysicalParams) -> _Outputs:
    # the oracle needs only the design's drive
    drive = pulse_design.design_drive(state.pulse, params, state.grid).drive
    init = dynamics.InitialState.matched(params.rho_offset)
    reduced = dynamics.simulate_nonmarkovian(state.pulse, drive, params, init, state.grid)
    # what the outputs read of the reduced run, taken before the comb steps
    phi_in, g_reduced = reduced.phi_in, reduced.g
    reflected_reduced = dynamics.storage_metrics(reduced).reflected
    del reduced
    bath = dynamics.discretize_bath(params, state.cfg.n_modes, state.cfg.band_halfwidth)
    oracle = dynamics.simulate_discrete_bath(
        state.pulse, drive, params, init, bath, state.grid
    )
    diff = np.abs(g_reduced - oracle.g)
    files = {
        "oracle_series.csv": {
            "t": state.grid.times,
            "phi_in": phi_in,
            "re_g_reduced": g_reduced.real,
            "im_g_reduced": g_reduced.imag,
            "re_g_oracle": oracle.g.real,
            "im_g_oracle": oracle.g.imag,
            "abs_g_diff": diff,
        },
    }
    return files, {
        "n_modes": bath.n_modes,
        "band_halfwidth": bath.band_halfwidth,
        "band_capture": oracle.capture,
        "weight_capture_ratio": bath.density_capture(),
        "sup_diff_G": float(np.max(diff)),
        "reflected_reduced": reflected_reduced,
        # what left the cavity: reflected_reduced + 2|z_T|^2 / (W Γ)
        "reflected_oracle": float(np.sum(np.abs(oracle.final_modes) ** 2)),
    }


def run_dark(state: RunState, params: PhysicalParams) -> _Outputs:
    dark = dark_state.adiabatic_design(state.pulse, params, state.grid)
    run = dark_state.adiabatic_simulate(state.pulse, dark)
    comparison = dark_state.compare_dark(dark)

    gap = np.abs(dark.omega_adiabatic - dark.design.alpha)
    finite = np.isfinite(gap)
    t_gap = float(state.grid.times[finite][np.argmax(gap[finite])])

    files = {
        "dark_series.csv": {
            "t": state.grid.times,
            "phi_in": state.pulse.value(state.grid.times),
            "d1_sq": comparison.d1_sq,
            "d_dark_sq": comparison.d_dark_sq,
            "abs_omega": dark.design.omega_modulus,
            "omega_adiabatic": dark.omega_adiabatic,
        },
    }
    return files, {
        "sup_diff_pop": comparison.sup_diff,
        "conservation_drift": dark_state.conservation_drift(run),
        "adiabaticity_margin": dark_state.adiabaticity_margin(params),
        "reflected_adiabatic": float(
            np.trapezoid(np.abs(run.phi_out) ** 2, dx=state.grid.dt)
        ),
        "d1_final_sq": float(run.d1[-1] ** 2),
        "max_drive_gap_time": t_gap,
    }


# a pool worker's sweep state, built by its initializer
_worker_state: RunState | None = None


def _init_worker(cfg: ScenarioConfig) -> None:
    # a worker process runs nothing but sweep points: one switch
    # silences floating-point warnings for all of them
    global _worker_state
    np.seterr(all="ignore")
    _worker_state = RunState(cfg)


def _worker_task(
    values: tuple[float, ...],
) -> tuple[list[tuple[int, dict[str, object]]], float]:
    return _worker_state.task(values)


def _sweep_tasks(values: list[float]) -> list[tuple[float, ...]]:
    """The sweep's units of work, in the order of their values: a
    mirror pair (v, −v), which only Δ₂ can form since W is positive,
    else one value.  A repeated value is evaluated once."""
    distinct = list(dict.fromkeys(values))
    present = set(distinct)
    tasks = []
    for v in distinct:
        if v > 0.0 and -v in present:
            tasks.append((v, -v))
        elif not (v < 0.0 and -v in present):
            tasks.append((v,))
    return tasks


def run_sweep(cfg: ScenarioConfig, outdir: Path) -> None:
    values = sorted(cfg.sweep_values)
    # every point shares the pulse and the grid, so a config error in
    # either fails the sweep as a whole (exit 2) before any point is
    # dispatched
    state = RunState(cfg)
    tasks = _sweep_tasks(values)

    # a fork-started pool launches all its workers at the first submit,
    # so it gets no more of them than there are tasks, and a CPU-bound
    # pool gains nothing past the cores
    workers = min(cfg.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that no other run pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # only the config crosses to the workers: each builds its own
        # state, since a built-in packet's closures do not pickle
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(cfg,)
        ) as pool:
            done = list(pool.map(_worker_task, tasks))
    else:
        done = list(map(state.task, tasks))
    outcomes: dict[float, tuple[int, dict[str, object]]] = {}
    residual = 0.0
    for task, (task_outcomes, task_residual) in zip(tasks, done):
        outcomes.update(zip(task, task_outcomes))
        residual = max(residual, task_residual)

    names = [cfg.sweep_param, "status"]
    names += ["big_gamma", "max_abs_omega", "backflow_detected"]
    if cfg.sweep_param == "bandwidth_w":
        names.append("sup_diff_rho")
    # a failed point has no metrics, and a detuned point no Markovian
    # gap: their cells stay blank
    rows = []
    for value in values:
        code, res = outcomes[value]
        row = {cfg.sweep_param: value, "status": code, **res}
        rows.append(",".join(_fmt(row[n]) if n in row else "" for n in names) + "\n")
    summary: dict[str, object] = {
        **_summary_header(cfg),
        "sweep_param": cfg.sweep_param,
        "sweep_values": ",".join(_fmt(v) for v in values),
        "failed_points": ",".join(
            _fmt(v) for v in values if outcomes[v][0] != EXIT_OK
        )
        or "none",
    }
    if cfg.sweep_param == "delta2":
        summary["theta_odd_residual"] = residual
        # every point reads the one chain of the sweep's W, so the
        # largest |ρ_ee − ρ_ee(Δ₂ = 0)| is 0 by construction
        summary["rho_detuning_spread"] = 0.0
    with _staged(outdir) as stage:
        _stream(stage("sweep_aggregate.csv"), [",".join(names) + "\n", *rows])
        write_summary(stage("summary"), summary)


def _collapsed(state: RunState, exc: InfeasibleDesign) -> InfeasibleDesign:
    """``exc``, which no seed below 1 fixes, with the cause of a derived
    Γ's collapse named: the pulse's curvature at t = 0."""
    curvature = float(state.pulse.d2(0.0))
    return InfeasibleDesign(
        f"{exc}: the derived value, phi_in''(0) / (W^2 * weighted pulse area), "
        f"collapses at phi_in''(0) = {curvature:.3g}"
    )


_MODE_RUNNERS = {
    "design": run_design,
    "simulate": run_simulate,
    "markovian": run_markovian,
    "oracle": run_oracle,
    "dark": run_dark,
}


def run_scenario(cfg: ScenarioConfig, outdir: str | Path | None = None) -> int:
    """Execute one scenario; returns a process exit code.

    A mode runner returns its CSV series and its metrics; this writes
    each series and one summary of the echoed parameters and the
    metrics, all or none of them.  Floating-point warnings are silenced: a non-finite result
    ends in one error line with its exit code, not in warnings on
    stderr.  An output location that cannot be created or written ends
    in one error line naming the path, with exit code 2."""
    target = Path(outdir or "out")
    started = time.perf_counter()
    try:
        target.mkdir(parents=True, exist_ok=True)
        with np.errstate(all="ignore"):
            if cfg.mode == "sweep":
                run_sweep(cfg, target)
            elif cfg.mode in _MODE_RUNNERS:
                state = RunState(cfg)
                params = state.params(cfg)
                try:
                    files, metrics = _MODE_RUNNERS[cfg.mode](state, params)
                except InfeasibleDesign as exc:
                    if cfg.big_gamma is None and exc.least_seed >= 1.0:
                        raise _collapsed(state, exc) from exc
                    raise
                with _staged(target) as stage:
                    for name, columns in files.items():
                        write_csv(stage(name), columns)
                    write_summary(stage("summary"), _echo_params(state, params) | metrics)
            else:
                raise ConfigError.single("value", 0, f"unsupported mode {cfg.mode!r}")
    except PhotonStoreError as exc:
        print(f"error[{exc.exit_code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # a rename names its target second
        path = exc.filename2 or exc.filename or target
        code = ConfigError.exit_code
        print(f"error[{code}]: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return code
    print(
        f"wall {time.perf_counter() - started:.2f} s -> {target}",
        file=sys.stderr,
    )
    return EXIT_OK
