import argparse
import functools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _frozen import FROZEN
from purcell_cool import cli
from purcell_cool import estimators as est
from purcell_cool.thermal import ResonatorParams

KAPPA_INT = 2 * math.pi * 0.4e6
KAPPA_EXT = 2 * math.pi * 0.6e6

SMALL = f"""\
resonator:
  omega0_hz: 7.408e+9
  kappa_int_hz: {KAPPA_INT!r}
  kappa_ext_hz: {KAPPA_EXT!r}
ensemble:
  n_g: 2
  n_delta: 1
  g_hz: 50.0
seed: 3
"""
WIRE = SMALL.replace("  g_hz: 50.0\n", "")  # couplings from the wire model


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(SMALL, encoding="utf-8")
    return p


def run_ok(args):
    rc = cli.main([str(a) for a in args])
    assert rc == 0
    return rc


def load_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def manifest_outputs(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)["outputs"]


def test_version_exits_zero(capsys):
    assert cli.main(["--version"]) == 0
    assert "purcell-cool" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    assert cli.main(["frobnicate", "--out", "x"]) == 2


def test_missing_config_file_is_io_error(tmp_path, capsys):
    rc = cli.main(["thermal", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "o")])
    assert rc == 4


def test_schema_violation_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text(SMALL + "turbo: true\n", encoding="utf-8")
    rc = cli.main(["thermal", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_spectrum_deterministic_and_grouped(tmp_path, cfg_path):
    outs = [tmp_path / f"s{k}" for k in range(2)]
    run_ok(["spectrum", "--config", cfg_path, "--out", outs[0], "--b0-step", "1e-3"])
    run_ok(["spectrum", "--config", cfg_path, "--out", outs[1], "--b0-step", "1e-3"])
    for name in ("spectrum.csv", "resonances.csv"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()

    res = load_csv(outs[0] / "resonances.csv")
    assert set(res["group"].astype(int)) == set(range(FROZEN["n_groups"]))
    # manifest hashes actually describe the files on disk
    import hashlib
    for name, sha in manifest_outputs(outs[0]).items():
        assert hashlib.sha256((outs[0] / name).read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("step", ["0", "-0.001", "nan", "inf"])
def test_spectrum_rejects_bad_b0_step(tmp_path, cfg_path, capsys, step):
    rc = cli.main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                   "--b0-step", step])
    assert rc == 2
    assert "--b0-step" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["-1e-3", "-0.001"])
def test_negative_b0_step_in_any_notation_reaches_the_range_check(tmp_path, cfg_path, capsys,
                                                                  step):
    rc = cli.main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                   "--b0-step", step])
    assert rc == 2
    assert "--b0-step must be positive and finite" in capsys.readouterr().err


def test_spectrum_rejects_unsupported_nuclear_spin(tmp_path, capsys):
    p = tmp_path / "spin1.yaml"
    p.write_text(SMALL + "spin_system:\n  i: 1\n", encoding="utf-8")
    rc = cli.main(["spectrum", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "half-odd-integer" in capsys.readouterr().err
    assert not (tmp_path / "o" / "spectrum.csv").exists()


def test_negative_field_exits_two(tmp_path, cfg_path, capsys):
    rc = cli.main(["polarization", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                   "--b0", "-1"])
    assert rc == 2
    assert "b0" in capsys.readouterr().err


def test_thermal_outputs(tmp_path, cfg_path):
    out = tmp_path / "o"
    run_ok(["thermal", "--config", cfg_path, "--out", out])
    with open(out / "thermal.json") as fh:
        data = json.load(fh)
    assert set(data) == {"n_phot", "t_phot_k", "t_spin_k", "gamma1_hz", "eta"}
    assert data["eta"] > 1
    # default config has no phonon channel: spins thermalize to the photons
    assert abs(data["t_spin_k"] - data["t_phot_k"]) < 1e-12


def test_polarization_columns(tmp_path, cfg_path):
    out = tmp_path / "o"
    run_ok(["polarization", "--config", cfg_path, "--out", out, "--points", "7"])
    rows = load_csv(out / "polarization.csv")
    assert rows.shape == (7,)
    assert np.all(rows["dn_exact"] > 0)
    assert np.all(np.diff(rows["dn_exact"]) < 0)  # colder means more polarized


def test_coupling_writes_field_and_density(tmp_path):
    p = tmp_path / "wire.yaml"
    p.write_text(WIRE, encoding="utf-8")
    out = tmp_path / "o"
    run_ok(["coupling", "--config", p, "--out", out])
    rho = load_csv(out / "rho_g.csv")
    assert abs(rho["weight"].sum() - 1.0) < 1e-9
    assert np.all(rho["g_hz"] > 0)
    fm = load_csv(out / "fieldmap.csv")
    assert set(fm.dtype.names) == {"x_m", "y_m", "bx_T", "by_T"}


def test_integer_field_given_as_integral_float_runs(tmp_path):
    text = WIRE + "grid:\n  nx: 50.0\n"
    p = tmp_path / "wire.yaml"
    p.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    run_ok(["coupling", "--config", p, "--out", out])
    assert len(load_csv(out / "fieldmap.csv")) == 50 * 59


def test_echo_summary(tmp_path, cfg_path):
    out = tmp_path / "o"
    run_ok(["echo", "--config", cfg_path, "--out", out])
    summary = np.genfromtxt(out / "summary.csv", delimiter=",", names=True)
    assert abs(float(summary["A_e"])) > 0
    trace = load_csv(out / "echo_0.csv")
    assert set(trace.dtype.names) == {"t_s", "re", "im"}


def test_invrec_then_fit_recovers_purcell_rate(tmp_path, cfg_path):
    gamma1 = 4 * (2 * math.pi * 50.0) ** 2 / (KAPPA_INT + KAPPA_EXT)
    dts = ",".join(str(x / gamma1) for x in (0.05, 0.3, 1.0, 2.0, 4.0, 8.0))
    out = tmp_path / "o"
    run_ok(["invrec", "--config", cfg_path, "--out", out, "--dt-list-s", dts])
    rows = load_csv(out / "invrec.csv")
    assert rows.shape == (6,)
    assert rows["A_e"][0] * rows["A_e"][-1] < 0  # recovery crosses zero

    fit_out = tmp_path / "fit"
    run_ok(["fit-invrec", "--data", out / "invrec.csv", "--out", fit_out])
    with open(fit_out / "fit_invrec.json") as fh:
        fit = json.load(fh)
    assert fit["converged"]
    assert abs(fit["parameters"]["gamma1"] - gamma1) < 0.02 * gamma1


def test_rabi_amplitude_list(tmp_path, cfg_path):
    out = tmp_path / "o"
    run_ok(["rabi", "--config", cfg_path, "--out", out,
            "--amp-list", "1e7,2e7,3e7"])
    rows = load_csv(out / "rabi.csv")
    assert rows.shape == (3,)
    assert np.all(np.isfinite(rows["A_e"]))


@pytest.mark.parametrize("argv", [
    ["echo", "--tau-us", "nan"],
    ["invrec", "--dt-list-s", "nan,1"],
    ["rabi", "--amp-points", "0"],
    ["rabi", "--amp-list", "1e6,nan"],
])
def test_sweep_rejects_non_finite_or_empty_points(tmp_path, cfg_path, capsys, argv):
    out = tmp_path / "o"
    rc = cli.main(argv + ["--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert "convergence" not in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_cpmg_echo_train_decays(tmp_path, cfg_path):
    out = tmp_path / "o"
    run_ok(["cpmg", "--config", cfg_path, "--out", out, "--n-cpmg", "3"])
    rows = load_csv(out / "cpmg.csv")
    assert rows.shape == (3,)
    mags = np.abs(rows["A_e"])
    assert mags[0] > mags[1] > mags[2]


def test_fit_t2_round_trip(tmp_path):
    x = np.linspace(3e-5, 2e-3, 20)
    y = 0.4 * np.exp(-((x / 6e-4) ** 2))
    data = tmp_path / "decay.csv"
    data.write_text("x_s,area\n"
                    + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y)))
    out = tmp_path / "o"
    run_ok(["fit-t2", "--data", data, "--out", out])
    with open(out / "fit_t2.json") as fh:
        fit = json.load(fh)
    assert abs(fit["parameters"]["t2"] - 6e-4) < 1e-8


def test_fit_psd_stages(tmp_path, cfg_path):
    res = ResonatorParams(omega0=7.408e9, kappa_int=KAPPA_INT, kappa_ext=KAPPA_EXT)
    omega = 7.408e9 + np.linspace(-3e6, 3e6, 41)

    def dump(config, alpha, t_int, path):
        s = est.psd_model(omega, config, resonator=res, t_phon=0.85, n_twpa=0.75,
                          t_int=t_int, alpha=alpha)
        path.write_text("f_hz,s\n"
                        + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(omega, s)))

    hot_csv, cold_csv = tmp_path / "hot.csv", tmp_path / "cold.csv"
    dump("hot", 1.0, 0.95, hot_csv)
    dump("cold", 0.47, 0.76, cold_csv)

    out_h = tmp_path / "h"
    run_ok(["fit-psd", "--config", cfg_path, "--out", out_h,
            "--data", hot_csv, "--branch", "hot"])
    with open(out_h / "fit_psd.json") as fh:
        hot = json.load(fh)
    assert abs(hot["parameters"]["n_twpa"] - 0.75) < 1e-5
    assert abs(hot["parameters"]["t_int"] - 0.95) < 1e-5

    out_c = tmp_path / "c"
    run_ok(["fit-psd", "--config", cfg_path, "--out", out_c, "--data", cold_csv,
            "--branch", "cold", "--n-twpa", str(hot["parameters"]["n_twpa"])])
    with open(out_c / "fit_psd.json") as fh:
        cold = json.load(fh)
    assert abs(cold["parameters"]["alpha"] - 0.47) < 1e-4


def test_snr_reports_universal_argmax(tmp_path):
    out = tmp_path / "o"
    run_ok(["snr", "--gamma1", "0.0628", "--out", out])
    with open(out / "snr.json") as fh:
        data = json.load(fh)
    assert abs(data["x_star"] - FROZEN["snr_xstar"]) < 1e-11
    assert abs(data["t_opt_s"] * 0.0628 - data["x_star"]) < 1e-12
    grid = load_csv(out / "snr.csv")
    assert data["peak_snr"] >= grid["snr"].max() - 1e-9


@pytest.mark.parametrize("gamma1", ["0", "-0.1", "nan", "inf"])
def test_snr_rejects_bad_gamma1(tmp_path, capsys, gamma1):
    rc = cli.main(["snr", "--gamma1", gamma1, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--gamma1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--omega0", "nan"], "--omega0"),
    (["spectrum", "--omega0", "0"], "--omega0"),
    (["spectrum", "--b0-min", "nan"], "--b0-min"),
    (["spectrum", "--b0-max", "inf"], "--b0-max"),
    (["echo", "--tau-us", "0"], "--tau-us"),
    (["cpmg", "--n-cpmg", "0"], "--n-cpmg"),
    (["rabi", "--amp-points", "-1"], "--amp-points"),
    (["polarization", "--t-min", "nan"], "--t-min"),
    (["polarization", "--points", "0"], "--points"),
    (["snr", "--gamma1", "0.07", "--p", "nan"], "--p"),
    (["snr", "--gamma1", "0.07", "--sigma", "0"], "--sigma"),
    (["snr", "--gamma1", "0.07", "--trep-points", "0"], "--trep-points"),
    (["snr", "--gamma1", "0.07", "--trep-min", "0"], "--trep-min"),
    (["thermal", "--seed", "-1"], "--seed"),
])
def test_numeric_flags_are_checked_not_defaulted(tmp_path, cfg_path, capsys, argv, flag):
    # a zero must not fall back to the default, and nan must not run
    out = tmp_path / "o"
    rc = cli.main(argv + ["--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert f"{flag} must be" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_manifest_seed_override(tmp_path, cfg_path):
    out = tmp_path / "o"
    run_ok(["thermal", "--config", cfg_path, "--out", out, "--seed", "42"])
    with open(out / "manifest.json") as fh:
        m = json.load(fh)
    assert m["seed"] == 42
    assert m["subcommand"] == "thermal"
    assert m["config_sha256"]


def test_config_integer_beyond_float_range_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(SMALL.replace(repr(KAPPA_EXT), "1" + "0" * 320), encoding="utf-8")
    for name in ("thermal", "echo"):
        assert cli.main([name, "--config", str(cfg), "--out", str(tmp_path / name)]) == 2
        assert "kappa_ext_hz: numbers must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--b0-min", "1e299", "--b0-max", "1e299"],
    ["snr", "--gamma1", "1e-300", "--p", "1e308", "--sigma", "5e-324"],
    ["snr", "--gamma1", "1", "--sigma", "5e-324", "--trep-min", "1e-10"],
    ["snr", "--gamma1", "1e-320"],  # the default --trep range overflows
    ["fit-invrec", "--data", "{data}"],
    ["fit-t2", "--data", "{data}"],
])
def test_rejected_overflow_prints_only_the_error_line(tmp_path, cfg_path, argv):
    # the overflow is caught by a finiteness check, not announced by numpy
    data = tmp_path / "overflow.csv"  # finite areas whose squares overflow
    data.write_text("".join(f"{k * 1e-3!r},{(-1) ** k * 1e300!r}\n" for k in range(5)))
    out = subprocess.run(
        [sys.executable, "-m", "purcell_cool.cli", *(a.format(data=data) for a in argv),
         "--out", str(tmp_path / "o"), "--config", str(cfg_path)],
        capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.splitlines() == [out.stderr.strip()]
    assert out.stderr.startswith("error: ")


def test_cli_import_leaves_scipy_solvers_unloaded():
    # the runtime needs numpy and PyYAML only: the package carries its own
    # integrator, fitter, constants and config checks, and importing scipy or
    # jsonschema would more than double a bare import's time
    probe = ("import sys, purcell_cool.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'jsonschema')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_numeric_flag_is_checked_where_it_is_declared():
    # a flag's check is its argparse type, so no handler sees an unchecked value
    strings = {"--config", "--out", "--data", "--branch"}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            flag = action.option_strings[-1]
            if action.dest == "help" or flag in strings:
                continue
            assert isinstance(action.type, functools.partial), (name, flag)
            assert action.type.func is cli._check and action.type.args[0] == flag, (name, flag)


@pytest.mark.parametrize("argv, flag", [
    (["echo", "--b0", "nan"], "--b0"),
    (["coupling", "--b0", "-inf"], "--b0"),
    (["fit-psd", "--data", "unread.csv", "--n-twpa", "-3"], "--n-twpa"),
    (["invrec", "--dt-list-s", "1e-3,0"], "--dt-list-s"),
    (["invrec", "--dt-list-s", ",".join(["1e-3"] * (cli.MAX_POINTS + 1))], "--dt-list-s"),
    (["rabi", "--amp-list", "1e6,inf"], "--amp-list"),
    (["cpmg", "--n-cpmg", "100000000"], "--n-cpmg"),
    (["polarization", "--points", "2.5"], "--points"),
])
def test_flags_without_a_check_before_are_checked(tmp_path, cfg_path, capsys, argv, flag):
    out = tmp_path / "o"
    rc = cli.main(argv + ["--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert f"{flag} must be" in capsys.readouterr().err
    assert not out.exists()


def test_echo_train_length_in_the_config_is_bounded(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(SMALL + "sequence:\n  n_cpmg: 100000000\n", encoding="utf-8")
    assert cli.main(["cpmg", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "sequence.n_cpmg" in err


@pytest.mark.parametrize("command, delays, path", [
    ("invrec", [0.0, 1.0], "sequence.dt_list_s.0"),
    ("thermal", [1e-3] * (cli.MAX_POINTS + 1), "sequence.dt_list_s"),
])
def test_config_delays_are_checked_like_the_flag(tmp_path, capsys, command, delays, path):
    # positive delays, at most MAX_POINTS of them, as --dt-list-s takes
    cfg = tmp_path / "run.yaml"
    cfg.write_text(SMALL + f"sequence:\n  dt_list_s: {delays!r}\n", encoding="utf-8")
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: {path}: ")


def test_config_integer_too_long_to_convert_is_a_config_error(tmp_path, capsys):
    # PyYAML's int() refuses more than 4300 digits with a ValueError
    cfg = tmp_path / "run.yaml"
    cfg.write_text(SMALL.replace(repr(KAPPA_EXT), "1" * 5001), encoding="utf-8")
    assert cli.main(["thermal", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {cfg}: ")


def test_allocation_beyond_the_address_space_exits_two(tmp_path, capsys):
    # 10**15 groups of 8-byte entries are 8e15 B, beyond any 128 TiB address
    # space, so the request fails whatever the overcommit setting
    cfg = tmp_path / "run.yaml"
    cfg.write_text(SMALL.replace("n_g: 2", "n_g: 1000000000000000"), encoding="utf-8")
    assert cli.main(["echo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cpmg_acquires_the_configured_window(tmp_path):
    width, sample_dt = 2.0e-6, 1e-8
    cfg = tmp_path / "run.yaml"
    cfg.write_text(SMALL + f"sequence:\n  acquire_width_s: {width!r}\n", encoding="utf-8")
    run_ok(["echo", "--config", cfg, "--out", tmp_path / "echo"])
    run_ok(["cpmg", "--config", cfg, "--out", tmp_path / "cpmg", "--n-cpmg", "1"])
    samples = round(width / sample_dt) + 1
    assert len(load_csv(tmp_path / "cpmg" / "cpmg_00.csv")) == samples
    assert len(load_csv(tmp_path / "echo" / "echo_0.csv")) == samples


@pytest.mark.parametrize("name", ["fit-invrec", "fit-t2", "fit-psd"])
@pytest.mark.parametrize("bad, why", [
    ("foo,bar", "not two numbers"),
    ("2e-3", "not two numbers"),
    ("nan,0.5", "numbers must be finite"),
    ("2e-3,inf", "numbers must be finite"),
])
def test_fit_data_rows_are_all_read_or_refused(tmp_path, cfg_path, capsys, name, bad, why):
    # only the first line may be a header; a later bad line names itself
    data = tmp_path / "data.csv"
    data.write_text("x,y\n1e-3,0.9\n\n" + bad + "\n3e-3,0.7\n4e-3,0.6\n", encoding="utf-8")
    out = tmp_path / "o"
    psd = ["--config", str(cfg_path), "--branch", "hot"] if name == "fit-psd" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([name, "--data", str(data), "--out", str(out)] + psd)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{data}:4: {why}" in err
    assert not (out / "manifest.json").exists()


_PSD_RES = ResonatorParams(omega0=7.408e9, kappa_int=KAPPA_INT, kappa_ext=KAPPA_EXT)
_PSD_TWO_FREQUENCIES = [
    (f, float(est.psd_model(f, "hot", resonator=_PSD_RES, t_phon=0.85, n_twpa=0.75,
                            t_int=0.95, alpha=1.0)))
    for f in (7.407e9, 7.409e9)] * 4


@pytest.mark.parametrize("name, rows, why", [
    ("fit-invrec", [(0.0, 1.0)] * 4, "need at least 4 recovery points"),
    ("fit-t2", [(1e-3, 1.0), (2e-3, 0.5)] * 2, "need at least 4 decay points"),
    ("fit-psd", _PSD_TWO_FREQUENCIES, "need at least 8 spectral points"),
])
def test_fits_count_distinct_abscissae(tmp_path, cfg_path, capsys, name, rows, why):
    # a repeated row adds no degree of freedom, so it cannot make up the
    # minimum number of delays or frequencies
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{x!r},{y!r}\n" for x, y in rows), encoding="utf-8")
    out = tmp_path / "o"
    psd = ["--config", str(cfg_path), "--branch", "hot"] if name == "fit-psd" else []
    assert cli.main([name, "--data", str(data), "--out", str(out)] + psd) == 2
    assert f"error: {why}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("branch", [["--branch", "cold"], []])
def test_cold_psd_fit_without_n_twpa_exits_2(tmp_path, cfg_path, capsys, branch):
    # the cold stage needs the hot-stage TWPA number; without --branch the
    # config's scenario decides, and it defaults to cold
    omega = 7.408e9 + np.linspace(-3e6, 3e6, 41)
    s = est.psd_model(omega, "cold", resonator=_PSD_RES, t_phon=0.85, n_twpa=0.75,
                      t_int=0.76, alpha=0.47)
    data = tmp_path / "cold.csv"
    data.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(omega, s)))
    out = tmp_path / "o"
    rc = cli.main(["fit-psd", "--config", str(cfg_path), "--data", str(data),
                   "--out", str(out)] + branch)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--n-twpa" in err[0]
    assert not (out / "manifest.json").exists()


_PSD_BELOW_OMEGA0 = [
    (f, float(est.psd_model(f, "hot", resonator=_PSD_RES, t_phon=0.85, n_twpa=0.75,
                            t_int=0.95, alpha=1.0)))
    for f in (7.408e9 - np.linspace(3e6, 1e5, 12)).tolist()]


@pytest.mark.parametrize("name, config, message", [
    ("thermal", SMALL + "spins: {gamma_phon_hz: 0, gamma_phot_hz: 0}\n",
     "phonon and photon rates are both zero"),
    ("coupling", WIRE + "grid: {y_min_m: -1.0e-6, y_max_m: 1.0e-7}\n",
     "grid cells fall inside the strip cross-section"),
    ("polarization", SMALL.replace("  g_hz: 50.0\n", "  pair_window_hz: 1\n"),
     "no quasi-degenerate pair within 1 Hz of 7.408e+09 Hz"),
    ("coupling", WIRE + "implantation: {cutoff_depth_m: 1.0e-8}\n",
     "no spin weight inside the profile support"),
    ("fit-psd", SMALL, "data do not bracket the resonator frequency"),
], ids=["zero-rates", "grid-in-strip", "pair-window", "grid-above-cutoff", "psd-one-side"])
def test_rejected_physics_input_exits_2_with_its_message(tmp_path, capsys, name, config,
                                                          message):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(config, encoding="utf-8")
    data = tmp_path / "psd.csv"
    data.write_text("".join(f"{x!r},{y!r}\n" for x, y in _PSD_BELOW_OMEGA0), encoding="utf-8")
    fit = ["--data", str(data), "--branch", "hot"] if name == "fit-psd" else []
    out = tmp_path / "o"
    assert cli.main([name, "--config", str(cfg), "--out", str(out)] + fit) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "manifest.json").exists()


def test_solver_overflow_exits_3_without_numpy_warnings(tmp_path):
    # an input amplitude of 1e300 overflows every trial step until the step
    # falls below its floor; numpy must not announce the retried steps
    cfg = tmp_path / "run.yaml"
    cfg.write_text(SMALL.replace("n_g: 2", "n_g: 1") + "sequence: {amp: 1.0e+300}\n",
                   encoding="utf-8")
    out = tmp_path / "o"
    run = subprocess.run([sys.executable, "-m", "purcell_cool.cli", "echo", "--config",
                          str(cfg), "--out", str(out)], capture_output=True, text=True)
    assert run.returncode == 3
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("convergence failure: dt=")
    assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------- fuzzing

_FUZZ_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "0.0", "1", "-1", "nan", "-nan", "inf", "-inf", "Infinity",
                     "1e-3", "-1e-3", "2.5E+2", "-4e5", "1e308", "-1e308", "1e-320", "5e-324",
                     "1e400", "3"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-10.0, 10.0).map(lambda v: f"{v:e}"),
    st.integers(-5, 300).map(str),
    st.sampled_from([10**6, 10**12, 10**18, -(10**9)]).map(str),
)

# cheap subcommands, each with the numeric flags it takes; spectrum starts
# from a small grid that a drawn flag may replace
_FUZZ_COMMANDS = {
    "spectrum": (["--b0-max", "0.002", "--b0-step", "1e-3"],
                 ["--b0-min", "--b0-max", "--b0-step", "--omega0", "--seed"]),
    "polarization": ([], ["--b0", "--t-min", "--t-max", "--points", "--seed"]),
    "snr": (["--gamma1", "2.5"], ["--gamma1", "--p", "--sigma", "--trep-min", "--trep-max",
                                  "--trep-points", "--seed"]),
    "thermal": ([], ["--seed"]),
    "coupling": ([], ["--b0", "--seed"]),
}


@st.composite
def _fuzz_argv(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    base, flags = _FUZZ_COMMANDS[name]
    chosen = draw(st.lists(st.sampled_from(flags), unique=True, max_size=len(flags)))
    argv = [name] + base
    for flag in chosen:
        argv += [flag, draw(_FUZZ_NUMBERS)]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_fuzz_argv())
@example(argv=["polarization", "--t-min", "1e-320"])  # k t underflows to 0
@example(argv=["spectrum", "--b0-min", "1e308", "--b0-max", "0"])  # -inf grid steps
@example(argv=["snr", "--gamma1", "1", "--trep-points", "1000000000000"])
@example(argv=["snr", "--gamma1", "1e-320"])  # t_opt overflows
@example(argv=["snr", "--gamma1", "1e-300", "--p", "1e308", "--sigma", "5e-324"])
@example(argv=["spectrum", "--b0-min", "1e299", "--b0-max", "1e299"])  # energies overflow
def test_cli_fuzz_ends_in_a_documented_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.yaml")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(SMALL)
        out = os.path.join(tmp, "o")
        full = argv + ["--out", out]
        if argv[0] != "snr":
            full += ["--config", cfg]
        rc = cli.main(full)  # a numpy RuntimeWarning is an error (pyproject.toml)
        assert rc in (0, 2, 3, 4)
        if rc == 0:
            _assert_outputs_finite(out)


def _reject_constant(name):
    raise ValueError(f"{name} is not standard JSON")


def _assert_outputs_finite(outdir):
    """Every JSON output is standard JSON and every CSV number is finite."""
    for name in os.listdir(outdir):
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".json"):
            json.loads(text, parse_constant=_reject_constant)
            continue
        for line in text.splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (name, line)
