"""Scenario lists of the three benchmark workloads, made from a seed.

Pure Python on purpose: the benchmark's parent process builds the plan
without importing the package under test, so a checkout without the
package fails cleanly.  The package sees only the generated config
texts and, for the detuning sweep, a two-column pulse file.

Why these workloads:

* ``figures`` -- the paper's own ten figure presets, each writing its
  full CSV series.  Time goes to CSV writing, the scalar RK4 loops and
  the generic RK4 of the dark-state route; the oracle is never called.
* ``oracle`` -- the discretized-bath oracle on two combs.  The small
  comb is bound by per-step Python overhead, the large comb (criterion
  10's 4000 modes) by vector work, so "remove per-step overhead" and
  "replace the Fourier projection" each move one of them.
* ``sweep`` -- design-only sweeps writing just ``sweep_aggregate.csv``:
  a pooled bandwidth sweep (resonant exact + Markovian design) and a
  serial detuning sweep on a sampled pulse (spline evaluation and the
  detuned quadratures).  No forward solver and no ``write_csv``, so it
  is the control for writer and solver changes.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("figures", "oracle", "sweep")

# preset -> positional CLI mode (cli.main needs both)
FIGURE_PRESETS = {
    "fig2a": "design",
    "fig2c": "simulate",
    "fig3a": "markovian",
    "fig3b": "markovian",
    "fig4": "sweep",
    "fig5": "design",
    "fig6": "sweep",
    "fig7a": "dark",
    "fig7c": "dark",
    "fig7e": "dark",
}

SMALL_COMB = (500, 40.0)  # modes, half band (MHz)
LARGE_COMB = (4000, 160.0)  # criterion 10's large comb
# Five times the default step: projection and stepping both scale with
# the sample count, so their balance is kept, and a pass is short
# enough (about 3.5 s) for several passes per run.
ORACLE_DT = 5e-4
COARSE_DT = 1e-2  # self-check grid

N_W_POINTS = 48
N_DELTA_PAIRS = 20  # 2 * 20 + 1 = 41 detunings
DELTA_MAX = 12.0
PULSE_SAMPLES = 2001
# relative to the per-workload work directory, which is the CLI's cwd
PULSE_FILE = "pulse.txt"

_COMMON = "g_cav = 30pi\ngamma_L = 6pi\n"


def _fmt(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _scenario(
    name: str, mode: str, text: str, coarse: bool, dt: float | None = None, workers: int = 1
) -> dict:
    """``workers`` is the number of processes the scenario keeps busy."""
    dt = COARSE_DT if coarse else dt
    if dt is not None:
        text += f"grid.dt = {dt!r}\n"
    return {"name": name, "mode": mode, "config": text, "workers": workers}


def _figures(rng: random.Random, coarse: bool) -> list[dict]:
    return [
        _scenario(name, mode, f"preset = {name}\n", coarse)
        for name, mode in FIGURE_PRESETS.items()
    ]


def _oracle(rng: random.Random, coarse: bool) -> list[dict]:
    w = rng.uniform(1.5, 2.5)
    combs = {"oracle_small": SMALL_COMB}
    if not coarse:
        combs["oracle_large"] = LARGE_COMB
    return [
        _scenario(
            name,
            "oracle",
            f"{_COMMON}bandwidth_w = {w!r}\nrho_offset = 0.002\n"
            f"n_modes = {n_modes}\nband_halfwidth = {half_band!r}\n",
            coarse,
            ORACLE_DT,
        )
        for name, (n_modes, half_band) in combs.items()
    ]


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi].

    Every seed then covers the range evenly, so the amount of work in a
    sweep barely depends on the seed.
    """
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def _sweep(rng: random.Random, coarse: bool) -> list[dict]:
    logs = _stratified(rng, math.log(0.5), math.log(25.0), N_W_POINTS)
    widths = [math.exp(x) for x in logs]
    mags = _stratified(rng, 0.25, DELTA_MAX, N_DELTA_PAIRS)
    deltas = [0.0] + mags + [-m for m in mags]
    return [
        _scenario(
            "sweep_w",
            "sweep",
            f"{_COMMON}bandwidth_w = {_fmt(widths)}\nrho_offset = 0.0075\nworkers = 2\n",
            coarse,
            workers=2,
        ),
        _scenario(
            "sweep_delta2",
            "sweep",
            f"{_COMMON}pulse = {PULSE_FILE}\nbandwidth_w = 0.5\n"
            f"delta2 = {_fmt(deltas)}\nrho_offset = 0.003\nworkers = 1\n",
            coarse,
        ),
    ]

_SCENARIO_LISTS = {"figures": _figures, "oracle": _oracle, "sweep": _sweep}


def scenarios(workload: str, seed: int, coarse: bool = False) -> list[dict]:
    """The workload's scenario list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return _SCENARIO_LISTS[workload](rng, coarse)


def needs_pulse_file(scenario_list: list[dict]) -> bool:
    return any(f"pulse = {PULSE_FILE}" in s["config"] for s in scenario_list)
