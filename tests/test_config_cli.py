"""Config parsing, presets, the error types, the writer and the
command-line entry point."""

from __future__ import annotations

import ast
import collections
import concurrent.futures
import contextlib
import dataclasses
import io
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photon_store as ps
from photon_store import _integrate, cli, config, dynamics, errors, model, pulse_design, runner
from photon_store._integrate import refined_peak
from photon_store.errors import ConfigError, PhotonStoreError
from photon_store.grid import TimeGrid

PI = math.pi

GOOD_DESIGN = """
mode = design
g_cav = 30pi
gamma_L = 6pi
bandwidth_w = 1.6716
rho_offset = 0.002
"""


def violations_of(text: str, cli_mode=None):
    with pytest.raises(ConfigError) as err:
        config.parse_config(text, cli_mode=cli_mode)
    return err.value.violations


# ------------------------------------------------------------ number tokens


@pytest.mark.parametrize(
    "token,expected",
    [
        ("30pi", 30.0 * PI),
        ("pi", PI),
        ("-pi", -PI),
        ("+pi", PI),
        ("2.5", 2.5),
        ("1e-4", 1e-4),
        ("0.5pi", 0.5 * PI),
        (" 6pi ", 6.0 * PI),
    ],
)
def test_parse_number(token, expected):
    assert config.parse_number(token) == pytest.approx(expected, rel=1e-15)


def test_parse_number_rejects_garbage():
    with pytest.raises(ValueError):
        config.parse_number("two pi")


# ---------------------------------------------------------------- parsing


def test_minimal_design_config():
    cfg = config.parse_config(GOOD_DESIGN)
    assert cfg.mode == "design"
    assert cfg.g_cav == pytest.approx(30.0 * PI)
    assert cfg.gamma_L == pytest.approx(6.0 * PI)
    assert cfg.big_gamma is None  # derived at run time
    assert cfg.grid_dt == config.ScenarioConfig.grid_dt
    assert cfg.n_modes == 2000
    assert cfg.band_halfwidth == 80.0
    assert cfg.workers == 1
    assert cfg.effective_span() == pytest.approx(PI)


def test_last_assignment_wins():
    cfg = config.parse_config(GOOD_DESIGN + "rho_offset = 0.004\n")
    assert cfg.rho_offset == 0.004


def test_comments_and_blank_lines_are_ignored():
    cfg = config.parse_config(
        "# header\n\nmode = design # trailing\n"
        "g_cav = 30pi\ngamma_L = 6pi\nbandwidth_w = 2\nrho_offset = 0.002\n"
    )
    assert cfg.bandwidth_w == 2.0


def test_explicit_span_wins():
    cfg = config.parse_config(GOOD_DESIGN + "grid.span = 6.0\n")
    assert cfg.effective_span() == 6.0


def test_cli_mode_overrides_file_mode():
    cfg = config.parse_config(GOOD_DESIGN, cli_mode="simulate")
    assert cfg.mode == "simulate"


def test_all_violations_reported_with_line_numbers():
    bad = (
        "mode = design\n"
        "gama_L = 6pi\n"          # typo -> suggestion
        "g_cav = 3e7\n"           # unit suspect
        "rho_offset = 1.5\n"      # domain
        "just some words\n"       # syntax
        "bandwidth_w = 2\n"
    )
    vv = violations_of(bad)
    kinds = sorted(v.kind for v in vv)
    assert kinds == ["syntax", "unit-suspect", "unknown-key", "value"]
    by_kind = {v.kind: v for v in vv}
    assert by_kind["unknown-key"].line == 2
    assert "gamma_L" in by_kind["unknown-key"].message
    assert by_kind["unit-suspect"].line == 3
    assert by_kind["value"].line == 4
    assert by_kind["syntax"].line == 5


def test_missing_required_keys_reported():
    vv = violations_of("mode = design\n")
    missing = {v.message for v in vv if v.kind == "missing"}
    assert missing == {
        "g_cav is required",
        "rho_offset is required",
        "bandwidth_w is required",
    }


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("grid.dt = 0\n", "grid.dt"),
        ("gamma_L = -1\n", "gamma_L"),
        ("n_modes = 1\n", "n_modes"),
        ("workers = 0\n", "workers"),
        ("mode = destroy\n", "mode must be one of"),
        ("n_modes = 2.5\n", "n_modes expects an integer"),
        ("g_cav = 1, 2\n", "g_cav does not accept a range"),
        ("bandwidth_w = 1, two\n", "could not parse range for bandwidth_w"),
        ("g_cav = thirty\n", "g_cav expects a number"),
        ("mode = sweep\nbandwidth_w = ,\n", "bandwidth_w range is empty"),
    ],
)
def test_domain_checks(line, fragment):
    vv = violations_of(GOOD_DESIGN + line)
    assert any(fragment in v.message for v in vv)


def test_range_outside_sweep_mode_is_rejected():
    vv = violations_of(GOOD_DESIGN + "delta2 = -5, 5\n")
    assert any("only meaningful in sweep" in v.message for v in vv)


def test_sweep_needs_exactly_one_range():
    base = "mode = sweep\ng_cav = 30pi\ngamma_L = 6pi\nrho_offset = 0.0075\n"
    vv = violations_of(base + "bandwidth_w = 2\n")
    assert any("needs a comma range" in v.message for v in vv)
    vv = violations_of(base + "bandwidth_w = 1, 2\ndelta2 = -5, 5\n")
    assert any("exactly one ranged" in v.message for v in vv)


def test_every_known_key_names_a_config_field():
    fields = {f.name for f in dataclasses.fields(config.ScenarioConfig)}
    assert [k for k in config.KNOWN_KEYS if k.replace(".", "_") not in fields] == []


def test_sweep_config_round_trip():
    cfg = config.parse_config(
        "mode = sweep\ng_cav = 30pi\ngamma_L = 6pi\nrho_offset = 0.0075\n"
        "bandwidth_w = 0.5, 1, 2\n"
    )
    assert cfg.sweep_param == "bandwidth_w"
    assert cfg.sweep_values == (0.5, 1.0, 2.0)
    point = config.with_point(cfg, 2.0)
    assert point.bandwidth_w == 2.0
    assert point.sweep_param is None


# ----------------------------------------------------------------- presets


def test_presets_cover_every_reported_scenario():
    assert sorted(config.PRESETS) == [
        "fig2a",
        "fig2c",
        "fig3a",
        "fig3b",
        "fig4",
        "fig5",
        "fig6",
        "fig7a",
        "fig7c",
        "fig7e",
    ]


def test_preset_expansion():
    cfg = config.parse_config("preset = fig2a\n")
    assert cfg.mode == "design"
    assert cfg.bandwidth_w == pytest.approx(1.6716)
    assert cfg.rho_offset == 0.002
    assert cfg.g_cav == pytest.approx(30.0 * PI)


def test_preset_overrides_user_values_and_records_it():
    cfg = config.parse_config("rho_offset = 0.5\npreset = fig2a\n")
    assert cfg.rho_offset == 0.002
    assert "rho_offset" in cfg.overrides
    # a range where the preset holds a scalar, and a scalar where it
    # holds a range
    cfg = config.parse_config("bandwidth_w = 1, 2\npreset = fig6\n")
    assert cfg.bandwidth_w == 0.5 and cfg.sweep_param == "delta2"
    assert cfg.overrides == ("bandwidth_w",)
    cfg = config.parse_config("bandwidth_w = 3\npreset = fig4\n")
    assert cfg.sweep_param == "bandwidth_w"
    assert cfg.sweep_values == (0.5, 1.0, 2.0, 5.0, 25.0)
    assert cfg.overrides == ("bandwidth_w",)


def test_unknown_preset_lists_known_names():
    vv = violations_of("preset = fig9\n")
    assert any("unknown preset" in v.message and "fig2a" in v.message for v in vv)


# ------------------------------------------------------------- error types


def _error_classes(base=PhotonStoreError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


def _example_error(cls):
    if cls is errors.NonFiniteState:
        return cls(0.123456789, "Z")
    if cls is errors.ConfigError:
        return cls(
            [
                errors.Violation("value", 3, "bad value"),
                errors.Violation("missing", 0, "rho_offset is required"),
            ]
        )
    return cls("what went wrong")


def _readme_exit_codes():
    """Error type name -> exit code, from README's exit-code table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    codes = {}
    for code, types in re.findall(r"^\| (\d) \| (.*?) \|", readme.read_text(), re.M):
        for name in re.findall(r"`(\w+)`", types):
            codes[name] = int(code)
    return codes


@pytest.mark.parametrize(
    "cls", [PhotonStoreError, *_error_classes()], ids=lambda c: c.__name__
)
def test_every_error_survives_a_pickle_round_trip(cls):
    # pooled sweep points send their errors back to the parent pickled
    err = _example_error(cls)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert getattr(back, "t", None) == getattr(err, "t", None)
    assert getattr(back, "amplitude", None) == getattr(err, "amplitude", None)
    assert getattr(back, "violations", None) == getattr(err, "violations", None)
    assert back.exit_code == err.exit_code == _readme_exit_codes()[cls.__name__]


def test_non_finite_state_names_the_amplitude_that_blew_up():
    err = errors.NonFiniteState.among(0.5, g=1.0, e=complex(math.nan, 0.0), x=math.inf)
    assert err.amplitude == "e" and str(err).startswith("amplitude e became non-finite")
    # only the sum overflowed: the largest amplitude is named
    assert errors.NonFiniteState.among(0.5, g=1e308, e=1.0, x=1.5e308).amplitude == "x"


# ------------------------------------------------------------------ writer


def test_write_csv_pins_the_bytes_of_special_values(tmp_path):
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.23456789012345e14]
    texts = ["0", "-0", "inf", "-inf", "nan", "4.94065645841e-324", "1.23456789012e+14"]
    n = 2 * runner._CSV_BLOCK_ROWS + 5  # more than two blocks of rows, and a partial one
    col = np.resize(np.array(values), n)
    path = tmp_path / "special.csv"
    runner.write_csv(path, {"t": np.arange(n, dtype=float), "v": col, "neg": -col})
    flipped = {"0": "-0", "-0": "0", "inf": "-inf", "-inf": "inf", "nan": "nan"}
    lines = ["t,v,neg"]
    for i in range(n):
        text = texts[i % len(texts)]
        neg = flipped.get(text, "-" + text)
        lines.append(f"{i},{text},{neg}")
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_write_csv_of_no_rows_is_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    runner.write_csv(path, {"t": np.array([]), "v": np.array([])})
    assert path.read_text() == "t,v\n"


def test_write_csv_refuses_a_complex_column(tmp_path):
    path = tmp_path / "c.csv"
    with pytest.raises(TypeError):
        runner.write_csv(path, {"t": np.arange(3.0), "z": np.array([1.0, 1j, 2.0])})
    assert list(tmp_path.iterdir()) == []


def test_write_csv_refuses_columns_of_different_lengths(tmp_path):
    # the longer column would lose its tail at a block edge
    path = tmp_path / "r.csv"
    rows = 2 * runner._CSV_BLOCK_ROWS
    with pytest.raises(ValueError, match="differ in length"):
        runner.write_csv(path, {"t": np.arange(float(rows)), "v": np.zeros(rows + 3)})
    assert list(tmp_path.iterdir()) == []


def python_csv(names, table) -> bytes:
    """The CSV bytes of Python's own ``"%.12g"``, one value at a time."""
    lines = [",".join(names)] + [",".join("%.12g" % v for v in row) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


def assert_writes_python_bytes(path, table):
    table = np.asarray(table, dtype=float)
    names = [f"c{j}" for j in range(table.shape[1])]
    runner.write_csv(path, {name: table[:, j] for j, name in enumerate(names)})
    assert path.read_bytes() == python_csv(names, table)


def test_write_csv_matches_python_on_a_million_random_bit_patterns(tmp_path):
    # every exponent and sign, NaN payloads, infinities and subnormals
    bits = np.random.default_rng(17).integers(0, 2**64, size=12 * 85_000, dtype=np.uint64)
    assert_writes_python_bytes(tmp_path / "bits.csv", bits.view(np.float64).reshape(-1, 12))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 4),
)
def test_write_csv_matches_python_on_any_float(tmp_path_factory, values, cols):
    values += [0.0] * (-len(values) % cols)
    path = tmp_path_factory.mktemp("csv") / "any.csv"
    assert_writes_python_bytes(path, np.reshape(values, (-1, cols)))


def _hard_values() -> np.ndarray:
    powers = 10.0 ** np.arange(-300, 301)
    ulps = [np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)]
    return np.concatenate(
        [
            # exact ties at the 13th digit round half to even
            [1000000000005.0, 1000000000015.0, 999999999999.5, 0.5, 2.5e-300],
            # rounding carries to the next power of ten
            [9.9999999999995, 9.99999999999951, 99999999999.95, 999999999999.9,
             9.99999999999996e-5, 9.99999999999996e-6, 9.999999999999997e100],
            powers, *ulps,
            # the switch between fixed and exponent notation
            [1e-5, 1e-4, 9.99999999999e-5, 1.00000000001e-4, 1e11, 1e12,
             99999999999.9, 999999999999.4, 999999999999.6],
            [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             1e-280, 1e280, 1.0000000000001e-280, 0.9999999999999e280],
            np.arange(-2000.0, 2000.0) / 8.0,
        ]
    )


def test_write_csv_matches_python_on_hard_cases(tmp_path):
    hard = _hard_values()
    hard = np.concatenate([hard, -hard])
    assert_writes_python_bytes(tmp_path / "hard.csv", hard.reshape(-1, 1))


BLOCK = runner._CSV_BLOCK_ROWS


@pytest.mark.parametrize("cols", [1, 2, 12])
@pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_write_csv_matches_python_at_block_edges(tmp_path, cols, rows):
    values = np.resize(_hard_values(), rows * cols).reshape(rows, cols)
    assert_writes_python_bytes(tmp_path / "edge.csv", values)


def test_write_csv_peak_memory_stays_below_the_string_writer(tmp_path, traced_peak):
    # a fig2c-sized table (31 417 rows of 12 columns); the string writer
    # before the kernel peaked at 4 406 638 B traced on this table,
    # 3 016 032 B of it the stacked table itself, and the kernel at
    # 4 265 012 B (Python 3.11, numpy 2.4)
    n = 31417
    rng = np.random.default_rng(17)
    columns = {"t": np.linspace(0.0, PI, n)}
    for j in range(11):
        col = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 3, n)
        col[rng.random(n) < 0.12] = 0.0
        columns[f"c{j}"] = col
    path = tmp_path / "fig2c.csv"
    runner.write_csv(path, {"t": np.arange(3.0)})  # lookup tables built once
    peak, _ = traced_peak(lambda: runner.write_csv(path, columns))
    assert peak <= 4_406_638


def test_write_csv_stacks_one_block_of_rows_at_a_time(tmp_path, traced_peak):
    # the fig2c-sized table above: stacking all of it cost 3 016 032 B
    # of a 4 265 012 B traced peak; one block at a time peaks at
    # 1 298 329 B (Python 3.11, numpy 2.4), so the table is never whole
    n = 31417
    rng = np.random.default_rng(17)
    columns = {f"c{j}": rng.standard_normal(n) for j in range(12)}
    path = tmp_path / "fig2c.csv"
    runner.write_csv(path, {"t": np.arange(3.0)})  # lookup tables built once
    peak, _ = traced_peak(lambda: runner.write_csv(path, columns))
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "value",
    [1 + 2j, np.complex128(1 + 2j), np.complex64(1 + 2j)],
    ids=lambda v: type(v).__name__,
)
def test_write_summary_refuses_a_complex_value(tmp_path, value):
    with pytest.raises(TypeError):
        runner.write_summary(tmp_path / "summary", {"mode": "design", "z": value})
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("old\n")

    def chunks():
        yield "t\n"
        raise OSError("disk full")

    with pytest.raises(OSError), runner._staged(tmp_path) as stage:
        runner._stream(stage("series.csv"), chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["series.csv"]
    assert path.read_text() == "old\n"


# --------------------------------------------------------------------- CLI


def run_cli(args, tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return cli.main([*args, "--config", str(path)])


def read_dir(root):
    out = {}
    for name in sorted(os.listdir(root)):
        out[name] = (root / name).read_bytes()
    return out


def test_cli_design_run_writes_series_and_summary(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["design", "--out", str(out)], tmp_path, GOOD_DESIGN)
    assert code == 0
    files = read_dir(out)
    assert set(files) == {"design_series.csv", "summary"}
    header = files["design_series.csv"].decode().splitlines()[0]
    assert header.split(",") == [
        "t",
        "phi_in",
        "G",
        "x_tilde",
        "rho_ee",
        "alpha",
        "beta",
        "abs_omega",
        "theta",
    ]
    rows = files["design_series.csv"].decode().count("\n") - 1
    assert rows == round(PI / config.ScenarioConfig.grid_dt) + 1
    summary = files["summary"].decode()
    assert "mode = design" in summary
    assert "big_gamma_derived = true" in summary
    assert "equilibrium_residual = " in summary


@pytest.mark.parametrize(
    "alpha,crossings",
    [
        ([0.0, 1e-16, -2e-15, 3e-15, 1.0, 2.0, -1.0, 1.0], 2),
        ([1.0, 0.0, -1.0, -0.0, 1.0], 2),
        ([-3.0, 1e-13, -1e-13, -2.0], 0),
        ([0.0, 0.0, 0.0], 0),
    ],
    ids=["rounding_at_the_start", "exact_zero_on_a_crossing", "rounding_dip", "silent"],
)
def test_sign_changes_skip_samples_at_rounding_level(alpha, crossings):
    # a sample within 1e-12 of the peak |alpha| has no sign: it neither
    # makes a crossing (rounding of either sign next to t = 0) nor breaks
    # one (an exact 0.0 between the two signs)
    assert runner._sign_changes(np.array(alpha)) == crossings


def test_fig5_drive_changes_sign_four_times(tmp_path):
    # the fig5 drive crosses zero four times (a 2.5e-5 design reads 4);
    # the rounding-level alpha at t = 0 is not a fifth crossing
    out = tmp_path / "out"
    assert run_cli(["design", "--out", str(out)], tmp_path, "preset = fig5\n") == 0
    summary = dict(
        line.split(" = ", 1) for line in (out / "summary").read_text().splitlines()
    )
    assert summary["omega_sign_changes"] == "4"


def test_cli_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["design", "--out", str(out1)], tmp_path, GOOD_DESIGN)
    run_cli(["design", "--out", str(out2)], tmp_path, GOOD_DESIGN)
    assert read_dir(out1) == read_dir(out2)


def test_cli_reports_violations_and_exits_2(tmp_path, capsys):
    code = run_cli(["design"], tmp_path, "gama_L = 6pi\n")
    assert code == 2
    err = capsys.readouterr().err
    assert "gamma_L" in err and "line 1" in err


def test_cli_unreadable_config_exits_2(tmp_path, capsys):
    assert cli.main(["design", "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config: cannot read ")


def test_cli_infeasible_design_exits_3(tmp_path):
    text = GOOD_DESIGN.replace("rho_offset = 0.002", "rho_offset = 1e-15")
    code = run_cli(["design", "--out", str(tmp_path / "o")], tmp_path, text)
    assert code == 3


def test_cli_narrow_band_exits_5(tmp_path):
    text = GOOD_DESIGN.replace("mode = design", "mode = oracle")
    text += "band_halfwidth = 1\nn_modes = 50\n"
    code = run_cli(["oracle", "--out", str(tmp_path / "o")], tmp_path, text)
    assert code == 5


@pytest.mark.parametrize("n_modes,code", [(3, 2), (10, 2), (30, 2), (40, 0)])
def test_cli_oracle_comb_must_resolve_the_grid(tmp_path, capsys, n_modes, code):
    # 40 modes over +-40 MHz recur after 2 pi / 2 MHz = pi us, the span;
    # coarser combs alias the photon and would over-count it
    text = GOOD_DESIGN.replace("mode = design", "mode = oracle").replace(
        "bandwidth_w = 1.6716", "bandwidth_w = 2"
    )
    text += f"n_modes = {n_modes}\nband_halfwidth = 40\ngrid.dt = 5e-4\n"
    out = tmp_path / "o"
    assert run_cli(["oracle", "--out", str(out)], tmp_path, text) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    if code:
        assert err[0].startswith("error[2]: ") and f"n_modes = {n_modes} " in err[0]
        assert "band_halfwidth = 40 " in err[0] and "grid.span = 3.14159" in err[0]
        assert err[0].endswith("it needs n_modes >= 40")
        assert not any(out.iterdir())


def test_cli_oracle_comb_whose_least_size_overflows_exits_2(tmp_path, capsys):
    # band_halfwidth * span overflows to inf on a one-step grid
    text = CHEAP_W + "band_halfwidth = 1e300\ngrid.span = 1e300\ngrid.dt = 1e300\n"
    assert run_cli(["oracle", "--out", str(tmp_path / "o")], tmp_path, text) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith("it needs n_modes >= inf")


def test_cli_oracle_writes_its_series_and_passes_its_gate(tmp_path, monkeypatch):
    # the benchmark's small comb
    text = GOOD_DESIGN.replace("mode = design", "mode = oracle").replace(
        "bandwidth_w = 1.6716", "bandwidth_w = 2"
    )
    text += "n_modes = 500\nband_halfwidth = 40\ngrid.dt = 5e-4\n"
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["oracle", "--out", str(out1)], tmp_path, text) == 0
    files = read_dir(out1)
    assert set(files) == {"oracle_series.csv", "summary"}
    header = files["oracle_series.csv"].decode().splitlines()[0]
    assert header == (
        "t,phi_in,re_g_reduced,im_g_reduced,re_g_oracle,im_g_oracle,abs_g_diff"
    )
    # on resonance with a real drive the oracle steps the real half of
    # its mirrored comb, where G is real: no rounding noise in Im G
    rows = files["oracle_series.csv"].decode().splitlines()[1:]
    assert len(rows) == 6284
    assert {row.split(",")[5] for row in rows} == {"0"}
    summary = dict(
        line.split(" = ", 1) for line in files["summary"].decode().splitlines()
    )
    assert float(summary["band_capture"]) >= 0.999
    assert float(summary["sup_diff_G"]) <= 1e-3
    runs = []
    simulate = dynamics.simulate_discrete_bath
    monkeypatch.setattr(
        dynamics, "simulate_discrete_bath", lambda *a: runs.append(simulate(*a)) or runs[-1]
    )
    assert run_cli(["oracle", "--out", str(out2)], tmp_path, text) == 0
    assert read_dir(out2) == files
    # the reflection is the comb's final population
    comb = float(np.sum(np.abs(runs[0].final_modes) ** 2))
    assert summary["reflected_oracle"] == f"{comb:.12g}"


@pytest.mark.parametrize("mode", ["simulate", "oracle"])
def test_a_run_forms_the_drive_once_and_frees_each_trajectory(
    tmp_path, monkeypatch, mode
):
    # the outputs read phi_in, phi_out and a few numbers of a forward
    # run; the rest of it must be gone before the next run steps
    text = CHEAP_W + "n_modes = 100\nband_halfwidth = 40\n"
    reads, runs = [], []
    drive = pulse_design.DesignResult.drive

    def read_once(design):
        reads.append(1)
        return drive.fget(design)

    def alive():
        return [ref for ref in runs if ref() is not None]

    def tracked(solver):
        def run(*args):
            assert not alive(), "a trajectory outlived its outputs"
            result = solver(*args)
            if isinstance(result, dynamics.Trajectory):
                runs.append(weakref.ref(result))
            return result

        return run

    monkeypatch.setattr(pulse_design.DesignResult, "drive", property(read_once))
    for name in ("simulate_nonmarkovian", "simulate_discrete_bath"):
        monkeypatch.setattr(dynamics, name, tracked(getattr(dynamics, name)))
    assert run_cli([mode, "--out", str(tmp_path / "o")], tmp_path, text) == 0
    assert len(reads) == 1 and len(runs) == (2 if mode == "simulate" else 1)


@pytest.mark.parametrize(
    "args,extra",
    [
        ([], "output = elsewhere\n"),
        (["--preset", "fig5"], ""),
        (["--workers", "2"], ""),
        (["--ou", "elsewhere"], ""),
    ],
    ids=["output_key", "preset_flag", "workers_flag", "abbreviated_out"],
)
def test_removed_settings_exit_2_with_one_line(
    tmp_path, monkeypatch, capsys, args, extra
):
    # each setting has one spelling: the config keys preset and workers,
    # and --out in full; another spelling fails instead of writing elsewhere
    monkeypatch.chdir(tmp_path)
    try:
        code = run_cli(["design", *args], tmp_path, GOOD_DESIGN + extra)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert os.listdir(tmp_path) == ["scenario.cfg"]


def test_cli_undecodable_config_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"g_cav = 30pi\n\xff\n")
    assert cli.main(["design", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config: cannot read {str(path)!r}: ")


def test_cli_explicit_out_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PHOTON_STORE_OUT", str(tmp_path / "ignored"))
    wanted = tmp_path / "wanted"
    code = run_cli(["design", "--out", str(wanted)], tmp_path, GOOD_DESIGN)
    assert code == 0
    assert (wanted / "summary").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize(
    "out,where,reason",
    [
        ("afile", "afile", "File exists"),
        ("afile/sub", "afile/sub", "Not a directory"),
        ("full", "full/summary", "Is a directory"),
    ],
    ids=["out_is_a_file", "out_under_a_file", "summary_is_a_directory"],
)
def test_cli_unusable_output_exits_2_with_one_line(tmp_path, capsys, out, where, reason):
    (tmp_path / "afile").write_text("")
    (tmp_path / "full" / "summary").mkdir(parents=True)
    code = run_cli(["design", "--out", str(tmp_path / out)], tmp_path, GOOD_DESIGN)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error[2]: cannot write {tmp_path / where}: {reason}"]
    assert not list(tmp_path.rglob("*.tmp"))
    # the series was written and renamed before the summary's rename
    # failed; the run leaves none of its files
    assert not list(tmp_path.rglob("*.csv"))


def test_cli_sampled_pulse_file(tmp_path, pulse):
    table = tmp_path / "pulse.csv"
    ts = np.linspace(0.0, PI, 501)
    np.savetxt(table, np.column_stack([ts, pulse.value(ts)]))
    text = GOOD_DESIGN + f"pulse = {table}\n"
    code = run_cli(["design", "--out", str(tmp_path / "o")], tmp_path, text)
    assert code == 0
    summary = (tmp_path / "o" / "summary").read_text()
    assert f"pulse = {table}" in summary


_T = np.linspace(0.0, PI, 201)
# the squared samples overflow, so the norm is infinite
OVERFLOWING = "".join(
    f"{t:.17g} {v:.17g}\n" for t, v in zip(_T, 1e300 * np.sin(_T) ** 2 * np.exp(-_T))
)
_PHI = np.sin(_T) ** 2 * np.exp(-_T)


def _table(*columns):
    return "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in zip(*columns))


BAD_PULSES = [
    (None, "not found"),
    ("0 1\n1 2\n2 1\n3 0\n", "vanish at t = 0"),
    (OVERFLOWING, "norm is inf"),
    ("", "contains no samples"),
    ("# t phi_in\n# no rows\n", "contains no samples"),
    (_table(_T, _PHI, 0.0 * _PHI), "exactly two columns"),
    ("0\n1\n2\n3\n", "exactly two columns"),
    ("0 0\n", "at least 4 samples"),
    (_table(_T, np.where(_T == _T[50], np.nan, _PHI)), "samples must be finite"),
    (_table(np.append(_T[:-1], np.inf), _PHI), "samples must be finite"),
    # the spline's second derivative over the first interval overflows
    ("0 0\n1e-300 1\n1 2\n2 1\n3 0\n", "spline through the samples is not finite"),
    # the squared spacing in the end rows overflows, so the slopes do
    ("0 0\n1e200 1\n2e200 2\n3e200 1\n4e200 0\n", "spline through the samples is not finite"),
]
BAD_PULSE_IDS = [
    "missing",
    "nonzero_start",
    "overflowing_norm",
    "empty",
    "comment_only",
    "three_columns",
    "one_column",
    "one_row",
    "nan_sample",
    "inf_time",
    "tiny_interval",
    "huge_interval",
]
SWEEP_W = (
    "mode = sweep\ng_cav = 30pi\ngamma_L = 6pi\nrho_offset = 0.002\n"
    "bandwidth_w = 1.0, 2.0\ngrid.dt = 1e-3\n"
)


@pytest.mark.parametrize(
    "mode,text,table,fragment",
    [
        (mode, text, table, fragment)
        for mode, text in (("design", GOOD_DESIGN), ("sweep", SWEEP_W))
        for table, fragment in BAD_PULSES
    ],
    # a sweep fails as a whole, before any point runs
    ids=[*BAD_PULSE_IDS, *(f"sweep_{name}" for name in BAD_PULSE_IDS)],
)
def test_cli_bad_pulse_file_exits_2_with_one_line(
    tmp_path, capsys, mode, text, table, fragment
):
    path = tmp_path / "pulse.txt"
    if table is not None:
        path.write_text(table)
    out = tmp_path / "o"
    code = run_cli([mode, "--out", str(out)], tmp_path, text + f"pulse = {path}\n")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and fragment in err[0] and str(path) in err[0]
    assert not any(out.iterdir())


def test_cli_pooled_sweep_reports_a_blown_up_point(tmp_path):
    # at W dt = 50 the design's RK4 recurrences are unstable, so the
    # second point raises NonFiniteState inside a worker process
    text = (
        "mode = sweep\ng_cav = 30pi\ngamma_L = 6pi\nrho_offset = 0.002\n"
        "bandwidth_w = 1.0, 5000\ngrid.dt = 1e-2\n"
    )
    outs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        pooled = text + f"workers = {workers}\n"
        assert run_cli(["sweep", "--out", str(out)], tmp_path, pooled) == 0
        outs[workers] = read_dir(out)
    rows = outs["2"]["sweep_aggregate.csv"].decode().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["0", "4"]
    assert "failed_points = 5000" in outs["2"]["summary"].decode()
    assert outs["1"]["sweep_aggregate.csv"] == outs["2"]["sweep_aggregate.csv"]


def test_cli_detuned_bandwidth_sweep_leaves_markovian_gap_blank(tmp_path):
    text = (
        "mode = sweep\ng_cav = 30pi\ngamma_L = 6pi\nrho_offset = 0.002\n"
        "bandwidth_w = 1.0, 2.0\ndelta2 = 3\ngrid.dt = 1e-3\n"
    )
    out = tmp_path / "o"
    assert run_cli(["sweep", "--out", str(out)], tmp_path, text) == 0
    rows = [r.split(",") for r in (out / "sweep_aggregate.csv").read_text().splitlines()]
    assert rows[0][-1] == "sup_diff_rho"
    assert [r[1] for r in rows[1:]] == ["0", "0"]
    assert [r[-1] for r in rows[1:]] == ["", ""]


def test_cli_sweep_workers_do_not_change_results(tmp_path):
    base = (
        "mode = sweep\ng_cav = 30pi\ngamma_L = 6pi\nrho_offset = 0.0075\n"
        "bandwidth_w = 2, 5\n"
    )
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert run_cli(["sweep", "--out", str(out1)], tmp_path, base) == 0
    assert run_cli(["sweep", "--out", str(out2)], tmp_path, base + "workers = 2\n") == 0
    assert read_dir(out1) == read_dir(out2)


def test_cli_design_blow_up_names_the_amplitude(tmp_path, capsys):
    # at W dt = 50 the anticipated input N overflows first
    text = "g_cav = 30pi\ngamma_L = 6pi\nrho_offset = 0.002\n"
    text += "bandwidth_w = 5000\ngrid.dt = 1e-2\n"
    assert run_cli(["design", "--out", str(tmp_path / "o")], tmp_path, text) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[4]: amplitude N became non-finite")


# ------------------------------------------------------- shared sweep state

SWEEP_BASE = "mode = sweep\ng_cav = 30pi\ngamma_L = 6pi\ngrid.dt = 1e-2\n"
SWEEPS = {
    "delta2": "bandwidth_w = 0.5\ndelta1 = 2\ndelta2 = -7, 0, 3.5\nrho_offset = 0.003\n",
    "bandwidth_w": "bandwidth_w = 0.5, 1.6716, 25\nrho_offset = 0.0075\n",
}


def aggregate_rows(out):
    head, *rows = (out / "sweep_aggregate.csv").read_text().splitlines()
    return [dict(zip(head.split(","), row.split(","))) for row in rows]


def summary_of(out):
    return dict(line.split(" = ", 1) for line in (out / "summary").read_text().splitlines())


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("param", list(SWEEPS))
def test_sweep_rows_equal_independent_designs(tmp_path, workers, param):
    text = SWEEP_BASE + SWEEPS[param]
    out = tmp_path / "sweep"
    pooled = text + f"workers = {workers}\n"
    assert run_cli(["sweep", "--out", str(out)], tmp_path, pooled) == 0
    cfg = config.parse_config(text)
    rows = aggregate_rows(out)
    values = sorted(cfg.sweep_values)
    assert [r["status"] for r in rows] == ["0"] * len(values)
    for value, row in zip(values, rows):
        # a design run of the point on its own shares nothing with the sweep
        point = dataclasses.replace(config.with_point(cfg, value), mode="design")
        assert runner.run_scenario(point, tmp_path / f"{param}{value}") == 0
        summary = summary_of(tmp_path / f"{param}{value}")
        assert row["big_gamma"] == summary["big_gamma"]
        assert row["max_abs_omega"] == summary["max_abs_omega"]


def test_delta2_sweep_with_an_infeasible_chain_fails_every_row(tmp_path):
    # the points share one chain, and at W = 0.3 its rho_ee crosses the floor
    text = SWEEP_BASE + "bandwidth_w = 0.3\ndelta2 = -5, 0, 5\nrho_offset = 1e-4\n"
    out = tmp_path / "o"
    assert run_cli(["sweep", "--out", str(out)], tmp_path, text) == 0
    assert [r["status"] for r in aggregate_rows(out)] == ["3", "3", "3"]
    assert summary_of(out)["failed_points"] == "-5,0,5"


def test_a_failed_bandwidth_point_leaves_the_next_one_alone(tmp_path):
    # at rho_offset = 5e-4 the Markovian comparison at W = 2 crosses the floor
    text = SWEEP_BASE + "bandwidth_w = 0.5, 2, 25\nrho_offset = 5e-4\n"
    outs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        pooled = text + f"workers = {workers}\n"
        assert run_cli(["sweep", "--out", str(out)], tmp_path, pooled) == 0
        assert [r["status"] for r in aggregate_rows(out)] == ["0", "3", "0"]
        outs[workers] = read_dir(out)
    assert outs["1"] == outs["2"]


def test_a_failed_chain_is_not_kept_for_the_next_point(monkeypatch):
    cfg = config.parse_config(SWEEP_BASE + SWEEPS["delta2"])
    state = runner.RunState(cfg)
    real = pulse_design.memory_chain
    failures = [errors.InfeasibleDesign("first call fails")]

    def flaky(samples, params):
        if failures:
            raise failures.pop()
        return real(samples, params)

    monkeypatch.setattr(pulse_design, "memory_chain", flaky)
    assert state.point(-7.0) == (3, {}, None)
    code, metrics, _ = state.point(0.0)
    assert code == 0 and metrics["max_abs_omega"] > 0.0


def test_serial_delta2_sweep_samples_and_solves_once(tmp_path, monkeypatch):
    calls = collections.Counter()

    def count(module, name, key=lambda kwargs: None):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name, key(kwargs)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(pulse_design, "coupling_from_bandwidth")
    count(pulse_design, "sample_design_pulse")
    # N is solved through model.  The memory Z is closed form: every
    # solve of a recurrence forms its increments once, and only N's does
    count(model, "_rk4_linear", key=lambda kwargs: kwargs["amplitude"])
    count(_integrate, "_rk4_increments")
    text = SWEEP_BASE + "bandwidth_w = 0.5\ndelta2 = -4, -2, 0, 2, 4\nrho_offset = 0.003\n"
    assert run_cli(["sweep", "--out", str(tmp_path / "o")], tmp_path, text) == 0
    assert calls == {
        ("coupling_from_bandwidth", None): 1,
        ("sample_design_pulse", None): 1,
        ("_rk4_linear", "N"): 1,
        ("_rk4_increments", None): 1,
    }


def _fake_pool(monkeypatch, cores):
    """Replace the sweep's process pool by one that runs each task in
    this process on a machine of ``cores`` cores.  A fork-started pool
    launches all max_workers processes at the first submit; the fake
    pool records the size and starts none.  Its map checks and records
    the chunk size, runs the chunks last first, as a real pool may
    finish them, and yields in the order of the tasks, as a real pool
    does; it keeps what each task returned.  Returns ``(sizes, results,
    chunks)``."""
    sizes, results, chunks = [], [], []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            # the worker's error state must not outlive the test
            with np.errstate():
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            # a real pool raises ValueError below 1
            assert chunksize >= 1
            chunks.append(chunksize)
            tasks = list(tasks)
            done = {}
            for start in reversed(range(0, len(tasks), chunksize)):
                for i in range(start, min(start + chunksize, len(tasks))):
                    done[i] = fn(tasks[i])
            for i in range(len(tasks)):
                results.append(done[i])
                yield done[i]

    # run_sweep imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(runner, "_worker_state", None)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: cores)
    return sizes, results, chunks


def _pool_sizes(tmp_path, monkeypatch, cores):
    """Pool sizes a 3-point sweep asks for with unbounded ``workers`` on
    a machine of ``cores`` cores."""
    sizes, _, _ = _fake_pool(monkeypatch, cores)
    text = SWEEP_BASE + SWEEPS["bandwidth_w"] + f"workers = {10**6}\n"
    assert run_cli(["sweep", "--out", str(tmp_path / "o")], tmp_path, text) == 0
    assert [row["status"] for row in aggregate_rows(tmp_path / "o")] == ["0"] * 3
    return sizes


def test_sweep_pool_has_no_more_workers_than_points(tmp_path, monkeypatch):
    assert _pool_sizes(tmp_path, monkeypatch, cores=64) == [3]


def test_sweep_pool_has_no_more_workers_than_cores(tmp_path, monkeypatch):
    assert _pool_sizes(tmp_path, monkeypatch, cores=2) == [2]


def test_pooled_sweep_sends_chunks_and_keeps_the_task_order(tmp_path, monkeypatch):
    # nine W on two workers cross in chunks of ceil(9 / 8) = 2; chunks
    # finished last first leave the aggregate of the serial run
    _, _, chunks = _fake_pool(monkeypatch, cores=2)
    values = ", ".join(f"{0.5 * 1.5 ** k:.6g}" for k in range(9))
    text = SWEEP_BASE + f"bandwidth_w = {values}\nrho_offset = 0.0075\n"
    outs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert run_cli(["sweep", "--out", str(out)], tmp_path, text + f"workers = {workers}\n") == 0
        outs[workers] = read_dir(out)
    assert chunks == [2]
    assert [row["status"] for row in aggregate_rows(tmp_path / "w2")] == ["0"] * 9
    assert outs["1"] == outs["2"]


def test_pooled_delta2_sweep_returns_only_python_scalars(tmp_path, monkeypatch):
    # a point's θ and ρ_ee series stay in the worker: what crosses the
    # pool pickles without numpy
    _, results, _ = _fake_pool(monkeypatch, cores=2)
    text = SWEEP_BASE + "bandwidth_w = 0.5\ndelta2 = -3.5, 0, 3.5\nrho_offset = 0.003\n"
    assert run_cli(["sweep", "--out", str(tmp_path / "o")], tmp_path, text + "workers = 2\n") == 0
    assert [row["status"] for row in aggregate_rows(tmp_path / "o")] == ["0"] * 3
    assert results and b"numpy" not in pickle.dumps(results)


def test_serial_delta2_sweep_memory_does_not_grow_with_its_points(tmp_path, traced_peak):
    # each task's phases die with it, so 41 points peak where 5 do:
    # keeping every point's θ to the end held 36 series more
    def peak(n_pairs):
        mags = [0.25 + 0.5 * k for k in range(n_pairs)]
        values = ", ".join(repr(v) for v in [0.0, *mags, *(-m for m in mags)])
        cfg = config.parse_config(
            SWEEP_BASE.replace("grid.dt = 1e-2", "grid.dt = 1e-3")
            + f"bandwidth_w = 0.5\ndelta2 = {values}\nrho_offset = 0.003\n"
        )
        grid = runner.RunState(cfg).grid
        peak, code = traced_peak(lambda: runner.run_scenario(cfg, tmp_path / "o"))
        assert code == 0
        return peak, grid

    peak(2)  # modules and caches loaded once
    few, grid = peak(2)
    many, _ = peak(20)
    assert abs(many - few) < 2 * 8 * (grid.n_steps + 1)


# mirror pairs, lone values, a duplicate and a nonzero Δ₁
DELTA2_EDGES = SWEEP_BASE + (
    "bandwidth_w = 0.5\ndelta1 = 2\ndelta2 = -7, -3, 0, 3, 3, 7, 11\n"
    "rho_offset = 0.003\n"
)


def test_delta2_sweep_pairs_mirrors_alike_in_any_pool(tmp_path):
    text = DELTA2_EDGES
    outs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        pooled = text + f"workers = {workers}\n"
        assert run_cli(["sweep", "--out", str(out)], tmp_path, pooled) == 0
        outs[workers] = read_dir(out)
    assert outs["1"] == outs["2"]
    rows = aggregate_rows(tmp_path / "w1")
    assert [r["delta2"] for r in rows] == ["-7", "-3", "0", "3", "3", "7", "11"]
    assert [r["status"] for r in rows] == ["0"] * 7
    assert rows[3] == rows[4]

    # each phase from a design run of its own, sharing nothing with the sweep
    cfg = config.parse_config(text)
    state = runner.RunState(cfg)

    def theta(value):
        params = state.params(config.with_point(cfg, value))
        return pulse_design.design_drive(state.pulse, params, state.grid).omega_phase

    residual = max(float(np.max(np.abs(theta(v) + theta(-v)))) for v in (3.0, 7.0))
    assert summary_of(tmp_path / "w1")["theta_odd_residual"] == f"{residual:.12g}"


def test_delta2_sweep_forms_phases_only_for_mirror_pairs(tmp_path, monkeypatch):
    # (3, -3) and (7, -7) form a residual; 0 (detuned by Δ₁ = 2) and 11
    # are lone points, whose θ nothing reads; every θ is unwrapped by
    # the one helper
    formed = []
    unwrap = pulse_design._unwrap

    def counted(phase):
        formed.append(phase.size)
        return unwrap(phase)

    monkeypatch.setattr(pulse_design, "_unwrap", counted)
    assert run_cli(["sweep", "--out", str(tmp_path / "o")], tmp_path, DELTA2_EDGES) == 0
    assert len(formed) == 4


def delta2_sweep_text(n_pairs: int, delta1: float) -> str:
    mags = [0.25 + 0.5 * k for k in range(n_pairs)]
    values = ", ".join(repr(v) for v in [0.0, *mags, *(-m for m in mags)])
    return SWEEP_BASE + (
        f"bandwidth_w = 0.5\ndelta1 = {delta1!r}\ndelta2 = {values}\nrho_offset = 0.003\n"
    )


def test_delta2_sweep_drive_modulus_does_not_read_delta1(tmp_path):
    # the paper's claim as an exact property: |Ω| = hypot(p, q) depends
    # on Δ₂ alone, so the column is the same bytes at any Δ₁
    columns = {}
    for delta1 in (0.0, 5.0):
        out = tmp_path / f"d{delta1}"
        text = delta2_sweep_text(6, delta1)
        assert run_cli(["sweep", "--out", str(out)], tmp_path, text) == 0
        columns[delta1] = [row["max_abs_omega"] for row in aggregate_rows(out)]
    assert columns[0.0] == columns[5.0]

    # every digit, not only the printed twelve, and each detuned point
    # is the rotated design's refined maximum, to rounding
    cfg = config.parse_config(delta2_sweep_text(6, 5.0))
    state = runner.RunState(cfg)
    still = runner.RunState(config.parse_config(delta2_sweep_text(6, 0.0)))
    for value in cfg.sweep_values:
        design = state.design(config.with_point(cfg, value))
        _, metrics, _ = state.point(value)
        assert metrics["max_abs_omega"] == still.point(value)[1]["max_abs_omega"]
        rotated = refined_peak(design.omega_modulus)
        assert metrics["max_abs_omega"] == pytest.approx(rotated, rel=1e-15, abs=0)


def test_a_resonant_bandwidth_point_reads_the_peak_of_its_real_drive():
    # on resonance q is ±0 and the drive is p alone: the polar read-out
    # is bit for bit the refined peak of |p|, at each of fig4's W
    cfg = config.parse_config("preset = fig4\n", cli_mode="sweep")
    state = runner.RunState(cfg)
    assert cfg.sweep_values == (0.5, 1.0, 2.0, 5.0, 25.0)
    for value in cfg.sweep_values:
        design = state.design(config.with_point(cfg, value))
        code, metrics, _ = state.point(value)
        assert code == 0
        assert metrics["max_abs_omega"] == refined_peak(np.abs(design.p))


def test_a_bandwidth_sweep_never_forms_q(tmp_path, monkeypatch):
    # a resonant point reads max|Ω| from |p|: q = 0 x_tilde / sqrt(rho_ee)
    # is formed by no point of a W sweep, and by the two of Δ₂ = -7, 0,
    # 3.5 that are detuned
    reads = []
    q = pulse_design.DesignResult.q

    def spy(design):
        reads.append(design.params.bandwidth_w)
        return q.func(design)

    monkeypatch.setattr(pulse_design.DesignResult, "q", property(spy))
    for sweep in ("bandwidth_w", "delta2"):
        out = tmp_path / sweep
        assert run_cli(["sweep", "--out", str(out)], tmp_path, SWEEP_BASE + SWEEPS[sweep]) == 0
        assert [row["status"] for row in aggregate_rows(out)] == ["0"] * 3
        assert len(reads) == (0 if sweep == "bandwidth_w" else 2)


def test_sweeps_never_rotate_a_drive(tmp_path, monkeypatch):
    # a sweep point reads max|Ω| and θ from the polar form; counting the
    # rotations, not timing them, keeps the rotation out of the sweeps
    rotations = []
    rotate = pulse_design._rotate

    def counted(p, q, phase):
        rotations.append(phase)
        return rotate(p, q, phase)

    monkeypatch.setattr(pulse_design, "_rotate", counted)
    texts = {
        "delta2": delta2_sweep_text(20, 2.0),
        "bandwidth_w": SWEEP_BASE + "bandwidth_w = 0.5, 1.6716, 25\ndelta2 = 3\n"
        "rho_offset = 0.0075\n",
    }
    for name, text in texts.items():
        out = tmp_path / name
        assert run_cli(["sweep", "--out", str(out)], tmp_path, text) == 0
        rows = aggregate_rows(out)
        assert len(rows) == (41 if name == "delta2" else 3)
        assert all(row["status"] == "0" and row["max_abs_omega"] for row in rows)
    assert rotations == []


def test_pooled_sweep_under_spawn_matches_serial(tmp_path):
    # spawn (and forkserver, the default from Python 3.14) pickle what
    # reaches a worker: it must be the config alone, never a pulse
    text = SWEEP_BASE + SWEEPS["bandwidth_w"]
    assert run_cli(["sweep", "--out", str(tmp_path / "serial")], tmp_path, text) == 0
    pooled = tmp_path / "pooled.cfg"
    pooled.write_text(text + "workers = 2\n")
    script = (
        "import multiprocessing, sys\n"
        "multiprocessing.set_start_method('spawn')\n"
        "from photon_store import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["sweep", "--config", str(pooled)]
    run = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out", str(tmp_path / "spawn")],
        env=fresh_env(),
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    serial = read_dir(tmp_path / "serial")
    assert read_dir(tmp_path / "spawn")["sweep_aggregate.csv"] == serial["sweep_aggregate.csv"]


# ---------------------------------------------------------- input boundary

CHEAP = "g_cav = 30pi\ngamma_L = 6pi\nrho_offset = 0.002\ngrid.dt = 1e-2\n"
CHEAP_W = CHEAP + "bandwidth_w = 2\n"  # the next line is line 6


@pytest.mark.parametrize(
    "line",
    [
        "delta1 = nan",
        "delta2 = nan",
        "gamma_L = nan",
        "grid.span = inf",
        "g_cav = -inf",
        "rho_offset = nan",
        "pulse_duration = 1e400",
    ],
)
def test_a_non_finite_number_is_one_violation_at_its_line(line):
    vv = violations_of(CHEAP_W + line + "\n", cli_mode="design")
    assert [(v.kind, v.line) for v in vv] == [("value", 6)]
    assert "must be finite" in vv[0].message


@pytest.mark.parametrize(
    "line,kinds",
    [
        ("delta2 = 3, nan, 1e300", ["value", "unit-suspect"]),
        ("bandwidth_w = inf, 2, 1", ["value"]),
        ("bandwidth_w = 0.5, inf, 1e300", ["value", "unit-suspect"]),
        ("bandwidth_w = 0.5, 0, 2e6", ["unit-suspect", "value"]),
    ],
)
def test_range_elements_get_the_checks_of_a_number(line, kinds):
    vv = violations_of(CHEAP_W + line + "\n", cli_mode="sweep")
    assert sorted(v.kind for v in vv) == sorted(kinds)
    assert {v.line for v in vv} == {6}


@pytest.mark.parametrize(
    "mode,line",
    [
        ("design", "delta1 = nan"),
        ("design", "grid.span = inf"),
        ("sweep", "delta2 = 3, nan, 1e300"),
        ("sweep", "bandwidth_w = inf, 2, 1"),
        ("sweep", "bandwidth_w = 0.5, inf, 1e300"),
    ],
)
def test_cli_bad_numbers_exit_2(tmp_path, capsys, mode, line):
    out = tmp_path / "o"
    code = run_cli([mode, "--out", str(out)], tmp_path, CHEAP_W + line + "\n")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err and all(e.startswith("config: ") and "line 6" in e for e in err)
    assert not out.exists()


@pytest.mark.parametrize(
    "line,key",
    [
        ("grid.span = 1e300", "grid.span"),
        ("grid.dt = 1e-300", "grid.dt"),
        ("pulse_duration = 1e-300", "pulse_duration"),
    ],
)
def test_cli_unbuildable_grid_or_pulse_exits_2_naming_the_key(tmp_path, capsys, line, key):
    # numpy refuses these sizes before allocating anything
    out = tmp_path / "o"
    code = run_cli(["design", "--out", str(out)], tmp_path, CHEAP_W + line + "\n")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[2]: ") and key in err[0]
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "mode,line,fragment",
    [
        ("design", "bandwidth_w = 2\ngrid.span = 1e6", "1e+08 steps"),
        ("sweep", "bandwidth_w = 1, 2\ngrid.span = 1e6", "1e+08 steps"),
        ("oracle", "bandwidth_w = 2\ngrid.dt = 1e-4\nn_modes = 10000", "3.14e+08 mode-steps"),
    ],
)
def test_cli_run_above_the_cost_ceiling_exits_2_at_once(
    tmp_path, capsys, monkeypatch, mode, line, fragment
):
    # 1e8 steps would take 763 MiB per series; the check comes before
    # any grid series is built
    def unbuilt(grid):
        raise AssertionError("a grid series was built before the ceiling check")

    monkeypatch.setattr(TimeGrid, "times", property(unbuilt))
    monkeypatch.setattr(TimeGrid, "half_times", property(unbuilt))
    out = tmp_path / "o"
    code = run_cli([mode, "--out", str(out)], tmp_path, CHEAP + line + "\n")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[2]: ") and fragment in err[0]
    assert not any(out.iterdir())


def test_cli_oracle_above_the_mode_byte_ceiling_exits_2_at_once(
    tmp_path, capsys, monkeypatch
):
    # one grid step admits 1e8 modes by the mode-step ceiling, but their
    # vectors would take gigabytes; no mode vector may be built first
    def unbuilt(*args, **kwargs):
        raise AssertionError("the bath was discretized before the ceiling check")

    monkeypatch.setattr(dynamics, "discretize_bath", unbuilt)
    out = tmp_path / "o"
    text = CHEAP_W + "pulse_duration = 0.01\nn_modes = 100000000\n"
    assert run_cli(["oracle", "--out", str(out)], tmp_path, text) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[2]: ")
    assert "n_modes = 100000000" in err[0] and "GiB of mode vectors" in err[0]
    assert not any(out.iterdir())
    # the default comb, the benchmark's and criterion 10's combs stay
    # below the ceiling, on any grid
    for n_modes in [2000, 4000]:
        assert dynamics.comb_bytes(n_modes) <= runner.MAX_MODE_BYTES


@pytest.mark.parametrize("w", ["1e-200", "1e-160"])
def test_cli_underflowing_bandwidth_exits_2_naming_it(tmp_path, capsys, w):
    # W^2 * area is 0 at 1e-200 and subnormal at 1e-160, where big_gamma
    # would overflow
    out = tmp_path / "o"
    text = CHEAP + f"bandwidth_w = {w}\n"
    assert run_cli(["design", "--out", str(out)], tmp_path, text) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[2]: ") and f"bandwidth_w = {w}" in err[0]


def test_cli_negative_weighted_area_exits_3(tmp_path, capsys):
    # phi''(0) is about 0.8 > 0, but the envelope is negative beyond t = 0.1 pi
    path = tmp_path / "negative.txt"
    t = np.linspace(0.0, PI, 201)
    np.savetxt(path, np.column_stack([t, np.sin(2.0 * t) ** 2 * (0.1 - t / PI)]))
    out = tmp_path / "o"
    text = CHEAP + f"bandwidth_w = 1\npulse = {path}\n"
    assert run_cli(["design", "--out", str(out)], tmp_path, text) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error[3]: weighted pulse area is not positive"]


def test_cli_sweep_with_an_unbuildable_grid_exits_2(tmp_path, capsys):
    # every point shares the grid, so the sweep fails as a whole before
    # any point is dispatched
    out = tmp_path / "o"
    text = CHEAP + "bandwidth_w = 1, 2\ngrid.span = 1e300\n"
    code = run_cli(["sweep", "--out", str(out)], tmp_path, text)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[2]: ") and "grid.span" in err[0]
    assert not any(out.iterdir())


def test_a_signed_zero_parses_as_plus_zero():
    text = CHEAP_W + "delta1 = -0\ndelta2 = -0, 1\n"
    cfg = config.parse_config(text, cli_mode="sweep")
    numbers = [cfg.delta1, *cfg.sweep_values]
    assert [math.copysign(1.0, v) for v in numbers] == [1.0, 1.0, 1.0]


def test_cli_signed_zero_detunings_write_the_same_bytes(tmp_path):
    # on resonance the sign of a zero beta picks theta = +-pi on the
    # drive's negative lobes
    text = "g_cav = 30pi\ngamma_L = 6pi\nbandwidth_w = 1\nrho_offset = 0.0075\n"
    text += "grid.dt = 1e-2\n"
    outs = []
    for zero in ("0", "-0"):
        out = tmp_path / f"d{zero}"
        detunings = f"delta1 = {zero}\ndelta2 = {zero}\n"
        assert run_cli(["design", "--out", str(out)], tmp_path, text + detunings) == 0
        outs.append(read_dir(out))
    assert outs[0] == outs[1]


def test_cli_nan_population_exits_3(tmp_path, capsys):
    # x_tilde^2 overflows at t = 0, so rho_ee is -3e301 there and NaN later
    text = "g_cav = 1e-160\ngamma_L = 0\nbandwidth_w = 2\nrho_offset = 0.002\n"
    out = tmp_path / "o"
    code = run_cli(["design", "--out", str(out)], tmp_path, text + "grid.dt = 1e-2\n")
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[3]: rho_ee reaches")
    # no seed lifts a NaN, and big_gamma is not its cause
    assert err[0].endswith("; the population is not finite")
    assert not any(out.iterdir())


def shape_file(tmp_path, name, phi):
    """A pulse file of 2001 samples of ``phi`` on [0, pi]."""
    path = tmp_path / f"{name}.txt"
    t = np.linspace(0.0, PI, 2001)
    np.savetxt(path, np.column_stack([t, phi(t)]))
    return path


def test_cli_infeasible_design_names_the_least_seed(tmp_path, capsys):
    # sin^2 e^(2t/T) at W = 0.5 needs a seed of about 0.50 (measured
    # 0.499 at the default dt); rho_ee - rho_offset does not depend on
    # rho_offset, and the named seed is rounded up, so it stores the
    # pulse as printed
    path = shape_file(tmp_path, "rising", lambda t: np.sin(t) ** 2 * np.exp(2.0 * t / PI))
    text = f"g_cav = 30pi\ngamma_L = 6pi\nbandwidth_w = 0.5\npulse = {path}\n"
    out = tmp_path / "o"
    assert run_cli(["design", "--out", str(out)], tmp_path, text + "rho_offset = 0.002\n") == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[3]: rho_ee reaches")
    least = float(re.fullmatch(r".*the least rho_offset that stores this pulse is (\S+)", err[0])[1])
    assert 0.49 <= least <= 0.51
    assert not any(out.iterdir())
    for seed in (least, 1.1 * least):
        rerun = text + f"rho_offset = {seed!r}\n"
        assert run_cli(["design", "--out", str(tmp_path / f"o{seed}")], tmp_path, rerun) == 0


def test_cli_design_that_no_seed_stores_says_so(tmp_path, capsys):
    # phi''(0) of sin^3 is about 0 (its spline's is 1.46e-7), so the
    # derived big_gamma collapses (9.2e-7) and the least seed is about
    # 9e6; the message names phi''(0) as the cause
    path = shape_file(tmp_path, "cubed", lambda t: np.sin(t) ** 3)
    text = f"g_cav = 30pi\ngamma_L = 6pi\nbandwidth_w = 0.5\nrho_offset = 0.002\npulse = {path}\n"
    assert run_cli(["design", "--out", str(tmp_path / "o")], tmp_path, text) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[3]: rho_ee reaches")
    tail = r".*; no rho_offset < 1 stores this pulse at big_gamma = (\S+); "
    cause = (
        r"big_gamma can be set explicitly: the derived value, phi_in''\(0\) / "
        r"\(W\^2 \* weighted pulse area\), collapses at phi_in''\(0\) = (\S+)"
    )
    match = re.fullmatch(tail + cause, err[0])
    assert match and 5e-7 < float(match[1]) < 2e-6
    assert 0.0 < float(match[2]) < 1e-6

    # a big_gamma set explicitly is not derived from phi''(0), and the
    # message does not name it
    explicit = text + "big_gamma = 1e-6\n"
    assert run_cli(["design", "--out", str(tmp_path / "e")], tmp_path, explicit) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(tail + "big_gamma can be set explicitly", err[0])


@pytest.fixture()
def downward_pulse(tmp_path):
    """201 samples of sin(t) exp(-t) on [0, pi]: phi''(0) = -2."""
    path = tmp_path / "down.txt"
    t = np.linspace(0.0, PI, 201)
    np.savetxt(path, np.column_stack([t, np.sin(t) * np.exp(-t)]))
    return path


def test_cli_downward_pulse_design_exits_3(tmp_path, capsys, downward_pulse):
    out = tmp_path / "o"
    text = CHEAP_W + f"pulse = {downward_pulse}\n"
    assert run_cli(["design", "--out", str(out)], tmp_path, text) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "positive coupling" in err[0]


def test_cli_downward_pulse_sweep_fails_every_point_with_3(tmp_path, downward_pulse):
    out = tmp_path / "o"
    text = CHEAP + "bandwidth_w = 1, 2\n" + f"pulse = {downward_pulse}\n"
    assert run_cli(["sweep", "--out", str(out)], tmp_path, text) == 0
    rows = (out / "sweep_aggregate.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["3", "3"]
    assert "failed_points = 1,2" in (out / "summary").read_text()


def fresh_env():
    """Environment of a fresh interpreter that imports this package."""
    src = str(Path(ps.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run_fresh(mode, tmp_path, text):
    """The command in a fresh interpreter, where a warning would reach
    stderr instead of pytest's warning capture."""
    env = fresh_env()
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    argv = [sys.executable, "-m", "photon_store.cli", mode, "--config", str(cfg)]
    return subprocess.run(
        [*argv, "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True
    )


def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A preset's design, fig2c's forward runs, fig7a's dark-state run
    and a pooled 12-point W sweep write the same bytes on two BLAS
    threads as on one: the design chain and the block recurrences of the
    forward routes call no BLAS, and a user's thread count wins over the
    CLI's default.  Criterion 10's oracle (4000 modes over +-160 MHz,
    W = 1.7, the default dt) writes the same bytes with
    ``OPENBLAS_NUM_THREADS`` unset and set to 1: its comb projection and
    stepping call BLAS, whose last bits depend on the thread count, so
    the CLI runs BLAS on one thread unless told otherwise.  On a one-core
    host the oracle's two runs both have one thread, and that part passes
    trivially."""
    widths = ", ".join(f"{w:.6g}" for w in np.geomspace(0.5, 25.0, 12))
    configs = {
        "design": ("preset = fig2a\n", "2"),
        "simulate": ("preset = fig2c\n", "2"),
        "dark": ("preset = fig7a\n", "2"),
        "sweep": (
            "g_cav = 30pi\ngamma_L = 6pi\nrho_offset = 0.0075\n"
            f"bandwidth_w = {widths}\nworkers = 2\n",
            "2",
        ),
        "oracle": (
            "g_cav = 30pi\ngamma_L = 6pi\nbandwidth_w = 1.7\nrho_offset = 0.002\n"
            "n_modes = 4000\nband_halfwidth = 160\n",
            None,
        ),
    }
    for mode, (text, other) in configs.items():
        cfg = tmp_path / f"{mode}.cfg"
        cfg.write_text(text)
        outs = []
        for threads in (other, "1"):
            env = fresh_env()
            for name in cli.BLAS_THREAD_VARS:
                env.pop(name, None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"{mode}_{threads}"
            argv = [sys.executable, "-m", "photon_store.cli", mode, "--config", str(cfg)]
            run = subprocess.run(
                [*argv, "--out", str(out)], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr
            outs.append(read_dir(out))
        assert outs[0] == outs[1], mode


def run_python(code, *argv, env=None):
    """stdout of ``code`` in a fresh interpreter that imports this package."""
    run = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env or fresh_env(), capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


BLAS_PROBE = """
import os, sys
{before}
from photon_store import cli
assert cli.main(sys.argv[1:]) == 0
print(",".join(os.environ.get(name, "-") for name in cli.BLAS_THREAD_VARS))
"""


@pytest.mark.parametrize(
    "before,explicit,seen",
    [
        ("", None, "1,1,1"),
        # a user's own setting wins
        ("", "2", "2,1,1"),
        # an in-process caller that loaded numpy keeps its environment
        ("import numpy", None, "-,-,-"),
    ],
)
def test_cli_defaults_blas_to_one_thread(tmp_path, before, explicit, seen):
    env = fresh_env()
    for name in cli.BLAS_THREAD_VARS:
        env.pop(name, None)
    if explicit is not None:
        env["OPENBLAS_NUM_THREADS"] = explicit
    (tmp_path / "c.cfg").write_text(CHEAP_W)
    argv = ["design", "--config", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]
    assert run_python(BLAS_PROBE.format(before=before), *argv, env=env) == seen


# what only a run needs: numpy, the solvers, and the sweep's process pool
HEAVY = ("numpy", "photon_store.runner", "concurrent.futures.process")


def test_import_parse_help_and_rejections_load_no_numpy(tmp_path):
    (tmp_path / "bad.cfg").write_text(CHEAP_W + "no_such_key = 1\n")
    code = f"""
import sys
import photon_store
from photon_store import config
for tag in config.PRESETS:
    config.parse_config(f"preset = {{tag}}\\n")
from photon_store import cli
try:
    cli.main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
assert cli.main(["design", "--config", sys.argv[1]]) == 2
try:
    cli.main(["design", "--config", sys.argv[1], "--no-such-flag"])
except SystemExit as exc:
    assert exc.code == 2
print([name for name in {HEAVY!r} if name in sys.modules])
"""
    # the last line: --help prints its usage first
    assert run_python(code, str(tmp_path / "bad.cfg")).splitlines()[-1] == "[]"


def _coupling_on_union1d_edges(pulse, w):
    """``coupling_from_bandwidth`` with its panel edges merged by
    ``np.union1d``, as the package merged them before."""
    edges = pulse.breakpoints
    if edges is None:
        edges = np.linspace(0.0, pulse.duration, pulse_design._SMOOTH_PANELS + 1)
    decay = np.arange(1, pulse_design._DECAY_PANELS + 1) / w
    edges = np.union1d(edges, decay[decay < pulse.duration])
    half = 0.5 * np.diff(edges)[:, None]
    tau = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * pulse_design._GL_NODES
    weighted = half * pulse_design._GL_WEIGHTS * np.exp(-w * tau) * pulse.value(tau)
    return float(pulse.d2(0.0)) / (w ** 2 * float(np.sum(weighted)))


def test_coupling_merges_its_edges_without_loading_numpy_ma():
    # np.union1d loads numpy.ma through np.unique, about 10 ms in a
    # fresh process; the sampled pulse's breakpoints hold every k / 2,
    # so at W = 2 the merge drops duplicates
    code = """
import sys
import numpy as np
import photon_store as ps
from photon_store import pulse_design
packet = ps.builtin_packet()
t = np.arange(1609) / 512.0
for pulse in (packet, ps.sampled_packet(t, packet.value(t))):
    print(" ".join(pulse_design.coupling_from_bandwidth(pulse, w).hex() for w in (0.5, 2.0, 25.0)))
print("numpy.ma" in sys.modules)
"""
    *gammas, loaded = run_python(code).splitlines()
    packet = ps.builtin_packet()
    t = np.arange(1609) / 512.0
    for line, pulse in zip(gammas, (packet, ps.sampled_packet(t, packet.value(t)))):
        assert line == " ".join(_coupling_on_union1d_edges(pulse, w).hex() for w in (0.5, 2.0, 25.0))
    assert loaded == "False"


def test_every_export_resolves_from_a_bare_import():
    code = """
import photon_store as ps
assert len(ps.__all__) == 42 and not set(ps.__all__) - set(dir(ps))
star = {}
exec("from photon_store import *", star)
assert all(star[name] is getattr(ps, name) for name in ps.__all__)
print(ps.__version__, ps.InfeasibleDesign.__module__, ps.design_drive.__module__)
"""
    assert run_python(code) == "0.1.0 photon_store.errors photon_store.pulse_design"


def _names_read(node: ast.AST) -> set[str]:
    """Every name ``node`` reads, as a name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_public_definition_is_exported_or_read():
    # a public top-level function or class that the package neither
    # exports nor reads anywhere outside its own definition has no caller
    statements = []
    for path in sorted(Path(ps.__file__).resolve().parent.glob("*.py")):
        statements += [(path.name, node) for node in ast.parse(path.read_text()).body]
    read = [_names_read(node) for _, node in statements]
    unread = [
        f"{module}:{node.name}"
        for i, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in ps.__all__
        and not any(node.name in names for j, names in enumerate(read) if j != i)
    ]
    assert unread == []


def test_submodules_resolve_from_a_bare_import():
    code = """
import sys
import photon_store
assert "photon_store.dynamics" not in sys.modules
print(photon_store.dynamics.__name__)
"""
    assert run_python(code) == "photon_store.dynamics"


def test_an_unknown_export_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        ps.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from photon_store import no_such_name  # noqa: F401


@pytest.mark.parametrize("mode,extra", [("design", ""), ("sweep", "workers = 2\n")])
def test_cli_overflow_leaves_one_stderr_line(tmp_path, mode, extra):
    # g_cav = 1e-300 overflows x_tilde; in a fresh interpreter numpy's
    # RuntimeWarnings would reach stderr unless the run silences them
    # (the sweep's points run in worker processes)
    w = "bandwidth_w = 2\n" if mode == "design" else "bandwidth_w = 1, 2\n"
    text = "g_cav = 1e-300\ngamma_L = 6pi\nrho_offset = 0.002\n" + w + extra
    run = run_fresh(mode, tmp_path, text)
    err = run.stderr.splitlines()
    if mode == "design":
        assert run.returncode == 3
        assert len(err) == 1 and err[0].startswith("error[3]: ")
    else:
        assert run.returncode == 0
        assert len(err) == 1 and err[0].startswith("wall ")
        assert "failed_points = 1,2" in (tmp_path / "o" / "summary").read_text()


@pytest.mark.parametrize("mode,table", [("design", ""), ("sweep", "# t phi_in\n")])
def test_cli_pulse_file_without_rows_leaves_one_stderr_line(tmp_path, mode, table):
    # numpy's loadtxt warns about a table without rows
    path = tmp_path / "pulse.txt"
    path.write_text(table)
    w = "bandwidth_w = 2\n" if mode == "design" else "bandwidth_w = 1, 2\n"
    run = run_fresh(mode, tmp_path, CHEAP + w + f"pulse = {path}\n")
    err = run.stderr.splitlines()
    assert run.returncode == 2
    assert len(err) == 1 and err[0].startswith("error[2]: ") and "no samples" in err[0]


# every float key takes an ordinary value, except at most one key that
# takes an edge value
EDGES = [math.nan, math.inf, -math.inf, 0.0, 1e-300, -1e-300, 1e300]
ORDINARY = {
    "g_cav": st.floats(1.0, 200.0),
    "gamma_L": st.floats(0.0, 50.0),
    "delta1": st.just(0.0) | st.floats(-20.0, 20.0),
    "delta2": st.just(0.0) | st.floats(-20.0, 20.0),
    "big_gamma": st.floats(0.5, 50.0),
    "bandwidth_w": st.floats(0.1, 50.0),
    "rho_offset": st.floats(1e-3, 0.1),
    "pulse_duration": st.floats(0.5, 10.0),
    "grid.span": st.floats(0.5, 100.0),
    "band_halfwidth": st.floats(1.0, 100.0),
}
OPTIONAL = ("big_gamma", "grid.span")


@st.composite
def scenarios(draw):
    edge = draw(
        st.none() | st.tuples(st.sampled_from(list(ORDINARY)), st.sampled_from(EDGES))
    )
    edge_key, edge_value = edge or (None, None)
    values = {}
    for key, ordinary in ORDINARY.items():
        if key == edge_key:
            values[key] = [edge_value]
        elif key not in OPTIONAL or draw(st.booleans()):
            values[key] = [draw(ordinary)]
    mode = draw(st.sampled_from(config.MODES))
    if mode == "sweep":
        key = draw(st.sampled_from(["bandwidth_w", "delta2"]))
        values[key] += [draw(ORDINARY[key]) for _ in range(2)]  # 3 points
    lines = [f"{k} = {', '.join(map(repr, v))}" for k, v in values.items()]
    lines += [f"n_modes = {draw(st.integers(2, 64))}", "grid.dt = 1e-2"]
    return mode, "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
def test_cli_boundary_fuzz(scenario):
    mode, text = scenario
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "c.cfg").write_text(text)
        out = root / "out"
        err = io.StringIO()
        # a warning would be a stray stderr line of the real command
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main([mode, "--config", str(root / "c.cfg"), "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3, 4, 5)
        if code == 0:
            assert len(lines) == 1 and lines[0].startswith("wall ")
            assert "nan" not in (out / "summary").read_text()
        else:
            assert lines and all(l.startswith(("config:", "error[")) for l in lines)
        assert not list(root.rglob("*.tmp"))


PULSE_EDGES = [math.nan, math.inf, -math.inf, 0.0, 1e-300, -1e-300, 1e300, -1e300]


@st.composite
def pulse_tables(draw):
    """0-40 rows of 1-3 columns, cells finite except for up to two edge
    values.  Times are unsorted, or sorted from (0, 0) as a valid
    envelope's must be; finite times lie in [0, 10] us, like the config
    fuzz's grid.span, so that no design allocates gigabytes."""
    n_rows = draw(st.integers(0, 40))

    def column(cells, size=n_rows):
        return draw(st.lists(cells, min_size=size, max_size=size))

    # hypothesis favours zeros and False, which here make the tables
    # most likely to pass as an envelope: two columns, sorted times
    n_cols = 2 + draw(st.integers(-1, 1))
    columns = [column(st.floats(-10.0, 10.0)) for _ in range(n_cols - 1)]
    if n_rows and not draw(st.booleans()):
        steps = column(st.floats(0.01, 0.25), n_rows - 1)
        columns.insert(0, [0.0, *np.cumsum(steps).tolist()])
        for values in columns[1:]:
            values[0] = 0.0
    else:
        columns.insert(0, column(st.floats(0.0, 10.0)))
    for _ in range(draw(st.integers(0, 2)) if n_rows else 0):
        col = draw(st.integers(0, n_cols - 1))
        # a time of 1e300 would be a span of 1e300 us
        edges = [e for e in PULSE_EDGES if col > 0 or abs(e) < 1e300]
        columns[col][draw(st.integers(0, n_rows - 1))] = draw(st.sampled_from(edges))
    return "".join(" ".join(repr(c[i]) for c in columns) + "\n" for i in range(n_rows))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pulse_tables())
@example("")
@example("# t phi_in\n# no rows\n")
@example(_table(_T, _PHI, 0.0 * _PHI))
@example(_table(_T, _PHI))
def test_cli_pulse_file_fuzz(table):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "pulse.txt").write_text(table)
        (root / "c.cfg").write_text(CHEAP_W + f"pulse = {root / 'pulse.txt'}\n")
        err = io.StringIO()
        # a warning would be a stray stderr line of the real command
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            argv = ["design", "--config", str(root / "c.cfg"), "--out", str(root / "out")]
            code = cli.main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3, 4, 5)
        assert len(lines) == 1 and lines[0].startswith(("error[", "wall "))
        assert not list(root.rglob("*.tmp"))
