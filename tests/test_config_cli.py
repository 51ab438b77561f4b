"""Config parsing, presets, the error types, the writer and the
command-line entry point."""

from __future__ import annotations

import math
import os
import pickle

import numpy as np
import pytest

import photon_store as ps
from photon_store import cli, config, errors, runner
from photon_store.errors import ConfigError, PhotonStoreError

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
    assert cfg.grid_dt == 1e-4
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
        return cls(0.123456789)
    if cls is errors.ConfigError:
        return cls(
            [
                errors.Violation("value", 3, "bad value"),
                errors.Violation("missing", 0, "rho_offset is required"),
            ]
        )
    return cls("what went wrong")


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
    assert getattr(back, "violations", None) == getattr(err, "violations", None)


# ------------------------------------------------------------------ writer


def test_write_csv_pins_the_bytes_of_special_values(tmp_path):
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.23456789012345e14]
    texts = ["0", "-0", "inf", "-inf", "nan", "4.94065645841e-324", "1.23456789012e+14"]
    n = 2 * 2048 + 5  # more than two blocks of rows, and a partial one
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


def test_failed_write_leaves_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("old\n")

    def chunks():
        yield "t\n"
        raise OSError("disk full")

    with pytest.raises(OSError):
        runner._write_atomic(path, chunks())
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
    assert rows == 31416 + 1
    summary = files["summary"].decode()
    assert "mode = design" in summary
    assert "big_gamma_derived = true" in summary
    assert "equilibrium_residual = " in summary


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


def test_cli_infeasible_design_exits_3(tmp_path):
    text = GOOD_DESIGN.replace("rho_offset = 0.002", "rho_offset = 1e-15")
    code = run_cli(["design", "--out", str(tmp_path / "o")], tmp_path, text)
    assert code == 3


def test_cli_narrow_band_exits_5(tmp_path):
    text = GOOD_DESIGN.replace("mode = design", "mode = oracle")
    text += "band_halfwidth = 1\nn_modes = 50\n"
    code = run_cli(["oracle", "--out", str(tmp_path / "o")], tmp_path, text)
    assert code == 5


def test_cli_preset_flag_matches_config_line(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["design", "--preset", "fig5", "--out", str(out1)], tmp_path, "") == 0
    assert run_cli(["design", "--out", str(out2)], tmp_path, "preset = fig5\n") == 0
    assert read_dir(out1) == read_dir(out2)


def test_cli_output_env_var(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("PHOTON_STORE_OUT", str(target))
    code = run_cli(["design"], tmp_path, GOOD_DESIGN)
    assert code == 0
    assert (target / "summary").exists()


def test_cli_explicit_out_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PHOTON_STORE_OUT", str(tmp_path / "ignored"))
    wanted = tmp_path / "wanted"
    code = run_cli(["design", "--out", str(wanted)], tmp_path, GOOD_DESIGN)
    assert code == 0
    assert (wanted / "summary").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_sampled_pulse_file(tmp_path, pulse):
    table = tmp_path / "pulse.csv"
    ts = np.linspace(0.0, PI, 501)
    np.savetxt(table, np.column_stack([ts, pulse.value(ts)]))
    text = GOOD_DESIGN + f"pulse = {table}\n"
    code = run_cli(["design", "--out", str(tmp_path / "o")], tmp_path, text)
    assert code == 0
    summary = (tmp_path / "o" / "summary").read_text()
    assert f"pulse = {table}" in summary


BAD_PULSES = [(None, "not found"), ("0 1\n1 2\n2 1\n3 0\n", "vanish at t = 0")]
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
    ids=["missing", "nonzero_start", "sweep_missing", "sweep_nonzero_start"],
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
        code = run_cli(["sweep", "--workers", workers, "--out", str(out)], tmp_path, text)
        assert code == 0
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
    assert (
        run_cli(["sweep", "--workers", "2", "--out", str(out2)], tmp_path, base) == 0
    )
    d1, d2 = read_dir(out1), read_dir(out2)
    # worker count is echoed in the summary; everything else must match
    assert d1["sweep_aggregate.csv"] == d2["sweep_aggregate.csv"]
    s1 = [l for l in d1["summary"].decode().splitlines() if not l.startswith("workers")]
    s2 = [l for l in d2["summary"].decode().splitlines() if not l.startswith("workers")]
    assert s1 == s2
