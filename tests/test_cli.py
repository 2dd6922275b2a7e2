import argparse
import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from _frozen import FROZEN
from _serialize import serialize
from purcell_cool import blochsim, cli
from purcell_cool import estimators as est
from purcell_cool.config import FIELDS, parse_config_text
from purcell_cool.errors import SchemaError
from purcell_cool.thermal import ResonatorParams, bose_occupation

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
DEMO = (Path(__file__).resolve().parents[1] / "configs" / "demo.yaml").read_text("utf-8")


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
    assert f"--b0-step must be a finite number > 0, got '{step}'" in capsys.readouterr().err


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


def test_thermal_values_on_the_demo_config(tmp_path):
    cfg = tmp_path / "demo.yaml"
    cfg.write_text(DEMO, encoding="utf-8")
    run_ok(["thermal", "--config", cfg, "--out", tmp_path / "o"])
    with open(tmp_path / "o" / "thermal.json") as fh:
        data = json.load(fh)
    expected = {"n_phot": 1.4242881020937401, "t_phot_k": 0.6684541934839231,
                "t_spin_k": 0.6684541934839231, "gamma1_hz": 3.8485762041874803,
                "eta": 1.3182110527428643}
    assert data.keys() == expected.keys()
    for key, value in expected.items():
        assert math.isclose(data[key], value, rel_tol=1e-14), key


@pytest.mark.parametrize("old, new, rc", [
    # h omega / k T underflows to 0: every occupation overflows
    ("omega0_hz: 7.408e+9", "omega0_hz: 1.0e-300", 2),
    # k log(1 + 1/n) underflows, but T_phot and T_spin stay finite
    ("t_int_k: 0.95", "t_int_k: 1.0e+305", 0),
    ("t_phon_k: 0.85", "t_phon_k: 1.0e+306", 0),
], ids=["omega0", "t_int", "t_phon"])
def test_thermal_beyond_float_range_exits_0_or_2(tmp_path, capsys, old, new, rc):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(DEMO.replace(old, new), encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["thermal", "--config", str(cfg), "--out", str(out)]) == rc
    err = capsys.readouterr().err
    if rc == 2:
        assert err.startswith("error: thermal: n_phot") and err.count("\n") == 1
        assert "overflow to a non-finite value" in err
        assert not (out / "manifest.json").exists()
    else:
        assert err == ""
        _assert_outputs_finite(out)


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


def test_coupling_runs_the_edge_peaked_current_model(tmp_path):
    p = tmp_path / "wire.yaml"
    p.write_text(WIRE + "geometry: {current_model: edge-peaked}\n", encoding="utf-8")
    out = tmp_path / "o"
    run_ok(["coupling", "--config", p, "--out", out])
    fm = load_csv(out / "fieldmap.csv")
    assert len(fm) == 121 * 59
    assert all(np.isfinite(fm[name]).all() for name in fm.dtype.names)


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
    (["thermal", "--seed", "1" + "0" * 400], "--seed"),  # beyond float range, as in the config
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
    assert m["config_sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", ["thermal", "echo"])
def test_the_seed_changes_only_the_manifest(tmp_path, cfg_path, name):
    outs = [tmp_path / f"seed{seed}" for seed in (1, 2)]
    for seed, out in zip((1, 2), outs):
        run_ok([name, "--config", cfg_path, "--out", out, "--seed", seed])
    names = {p.name for p in outs[0].iterdir()}
    assert names == {p.name for p in outs[1].iterdir()} and len(names) > 1
    for name in names - {"manifest.json"}:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    assert [json.loads((out / "manifest.json").read_text())["seed"] for out in outs] == [1, 2]


def _fit_data(name):
    """Noise-free (x, y) rows for fit-invrec, fit-t2 and the hot fit-psd."""
    if name == "fit-invrec":
        x = np.linspace(1e-3, 2.0, 12)
        return x, 1 - 2 * np.exp(-0.5 * x)
    if name == "fit-t2":
        x = np.linspace(3e-5, 2e-3, 20)
        return x, 0.4 * np.exp(-((x / 6e-4) ** 2))
    omega = 7.408e9 + np.linspace(-3e6, 3e6, 41)
    return omega, est.psd_model(omega, "hot", resonator=_PSD_RES, t_phon=0.85, n_twpa=0.75,
                                t_int=0.95, alpha=1.0)


# every subcommand on a small input; coupling twice, with and without a field map
_EVERY_SUBCOMMAND = [
    (SMALL, ["spectrum", "--b0-max", "0.01", "--b0-step", "1e-3"]),
    (SMALL, ["thermal"]),
    (SMALL, ["polarization", "--points", "7"]),
    (SMALL, ["coupling"]),
    (WIRE, ["coupling"]),
    (SMALL, ["echo"]),
    (SMALL, ["invrec", "--dt-list-s", "1e-3,2e-3,4e-3"]),
    (SMALL, ["rabi", "--amp-points", "3"]),
    (SMALL, ["cpmg", "--n-cpmg", "3"]),
    (SMALL, ["fit-invrec"]),
    (SMALL, ["fit-t2"]),
    (SMALL, ["fit-psd", "--branch", "hot"]),
    (SMALL, ["snr", "--gamma1", "0.27", "--trep-points", "20"]),
]


def test_every_subcommand_has_a_manifest_case():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for _, argv in _EVERY_SUBCOMMAND} == set(subparsers.choices)


@pytest.mark.parametrize("config, argv", _EVERY_SUBCOMMAND,
                         ids=[" ".join(argv[:1]) + (" wire" if config == WIRE else "")
                              for config, argv in _EVERY_SUBCOMMAND])
def test_manifest_hashes_exactly_the_files_its_run_wrote(tmp_path, config, argv):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(config, encoding="utf-8")
    if argv[0].startswith("fit-"):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                                          for a, b in zip(*_fit_data(argv[0]))))
        argv = argv + ["--data", data]
    out = tmp_path / "o"
    run_ok([*argv, "--config", cfg, "--out", out])
    outputs = manifest_outputs(out)
    assert outputs and set(outputs) == {p.name for p in out.iterdir()} - {"manifest.json"}
    for name, sha in outputs.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("first, second, shorter, left", [
    (["cpmg", "--n-cpmg", "3"], ["cpmg", "--n-cpmg", "2"], "cpmg.csv", "cpmg_02.csv"),
    (["spectrum", "--b0-step", "1e-4"], ["spectrum", "--b0-step", "1e-3"], "spectrum.csv",
     None),
], ids=["cpmg", "spectrum"])
def test_rerun_into_the_same_out_writes_the_bytes_of_a_fresh_run(tmp_path, cfg_path, first,
                                                                 second, shorter, left):
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    run_ok([*first, "--config", cfg_path, "--out", again])
    longer = (again / shorter).stat().st_size
    run_ok([*second, "--config", cfg_path, "--out", again])
    run_ok([*second, "--config", cfg_path, "--out", fresh])
    assert (fresh / shorter).stat().st_size < longer  # so the rerun had to cut the file
    outputs = manifest_outputs(again)
    assert outputs == manifest_outputs(fresh)
    for name in outputs:
        assert (again / name).read_bytes() == (fresh / name).read_bytes()
    if left is not None:  # the first run's extra file stays, unnamed
        assert left not in outputs and (again / left).read_bytes()


@pytest.mark.parametrize("target", ["symlink", "read-only"])
def test_rerun_replaces_a_symlinked_or_read_only_output(tmp_path, cfg_path, target):
    # the writer unlinks what is at an output's name and creates a new file
    argv = ["spectrum", "--b0-max", "0.01", "--b0-step", "1e-3", "--config", cfg_path]
    again, fresh, outside = tmp_path / "again", tmp_path / "fresh", tmp_path / "outside.csv"
    outside.write_text("not an output\n")
    again.mkdir()
    if target == "symlink":
        (again / "spectrum.csv").symlink_to(outside)
    else:
        (again / "spectrum.csv").write_text("old\n")
        (again / "spectrum.csv").chmod(0o444)
    run_ok([*argv, "--out", again])
    run_ok([*argv, "--out", fresh])
    assert outside.read_text() == "not an output\n"  # a link's target keeps its bytes
    written = again / "spectrum.csv"
    assert not written.is_symlink() and written.stat().st_mode & 0o200
    assert written.read_bytes() == (fresh / "spectrum.csv").read_bytes()
    assert manifest_outputs(again) == manifest_outputs(fresh)


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
    assert out.stdout == ""  # LAPACK writes its complaints straight to stdout
    assert out.stderr.splitlines() == [out.stderr.strip()]
    assert out.stderr.startswith("error: ")


def test_fit_whose_jacobian_overflows_names_the_overflow(tmp_path, cfg_path):
    # delays times areas pass 1e308, so the gamma1 column of the Jacobian is
    # inf, and its scaling once divided inf by inf and failed inside LAPACK
    data = tmp_path / "invrec.csv"
    data.write_text("".join(f"{k * 6e299!r},{(1 + k) * 1e100!r}\n" for k in range(6)))
    out = subprocess.run(
        [sys.executable, "-m", "purcell_cool.cli", "fit-invrec", "--data", str(data),
         "--out", str(tmp_path / "o"), "--config", str(cfg_path)],
        capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: the fit's Jacobian overflows to a non-finite value\n"


@pytest.mark.parametrize("name", ["fit-invrec", "fit-t2"])
def test_fit_to_all_zero_areas_drives_the_amplitude_to_0(tmp_path, name):
    # the amplitude falls below 2.5e-318, where a relative Jacobian step
    # rounds to 0; that column was once 0/0 and refused as an overflow
    data = tmp_path / "zero.csv"
    data.write_text("0,0\n1,0\n2,0\n3,0\n", encoding="utf-8")
    out = tmp_path / "o"
    run_ok([name, "--data", data, "--out", out])
    result = json.loads((out / (name.replace("-", "_") + ".json")).read_text())
    assert abs(result["parameters"]["amplitude"]) <= 1e-300


@pytest.mark.parametrize("name, undetermined", [("fit-invrec", "gamma1"), ("fit-t2", "t2")])
def test_an_undetermined_fit_parameter_is_written_as_null(tmp_path, name, undetermined):
    # with all-zero areas no rate or T2 fits better than another: its error
    # is null, not the 0 that the zero residual scales every error to
    data = tmp_path / "zero.csv"
    data.write_text("0,0\n1,0\n2,0\n3,0\n", encoding="utf-8")
    out = tmp_path / "o"
    run_ok([name, "--data", data, "--out", out])
    errors = json.loads((out / (name.replace("-", "_") + ".json")).read_text())["std_errors"]
    assert errors.pop(undetermined) is None
    assert all(e == 0.0 for e in errors.values())


@pytest.mark.parametrize("rows, code", [
    # a step with no best fit: the fit runs off towards A -> infinity
    ([(0.0, 1.0), (1e-200, 1.0), (2e-200, 1.0), (3e-200, 2.0)], 3),
    ([(k * 1e-200, 1 - 2 * math.exp(-k)) for k in range(4)], 0),
    ([(k * 1e299, 1 - 2 * math.exp(-k / 3) + 0.01 * (-1) ** k) for k in (0, 1, 2, 5, 10, 30)],
     0),
])
def test_fit_invrec_at_extreme_delays_prints_no_solver_noise(tmp_path, cfg_path, rows, code):
    # the recovery seed once fitted its slope on the raw delays, whose squares
    # under- or overflow: LAPACK printed to stdout and numpy warned on stderr
    data = tmp_path / "invrec.csv"
    data.write_text("".join(f"{x!r},{y!r}\n" for x, y in rows))
    out = subprocess.run(
        [sys.executable, "-m", "purcell_cool.cli", "fit-invrec", "--data", str(data),
         "--out", str(tmp_path / "o"), "--config", str(cfg_path)],
        capture_output=True, text=True)
    assert out.returncode == code
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == (code != 0)


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


# Imports purcell_cool.cli and parses argv[1], then runs thermal and fit-t2
# (on the data file argv[2]) into argv[3], and prints which of the modules the
# CLI defers are loaded after each step.
DEFERRED_PROBE = """\
import json, sys
import purcell_cool.cli as cli
from purcell_cool.config import parse_config
config, data, out = sys.argv[1:]
deferred = ["blochsim", "ode", "estimators", "optimize", "polarization"]
loaded = lambda: [m for m in deferred if "purcell_cool." + m in sys.modules]
parse_config(config)
seen = [loaded()]
seen.append([cli.main(["thermal", "--config", config, "--out", out])] + loaded())
seen.append([cli.main(["fit-t2", "--data", data, "--out", out])] + loaded())
print(json.dumps(seen))
"""


def test_cli_loads_the_simulator_and_the_fitters_only_in_the_subcommands_that_run_them(
        tmp_path):
    data = tmp_path / "t2.csv"
    data.write_text("".join(f"{x!r},{3 * math.exp(-(x / 4e-4) ** 2)!r}\n"
                            for x in np.linspace(1e-5, 1e-3, 6).tolist()))
    config = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
    out = subprocess.run([sys.executable, "-c", DEFERRED_PROBE, str(config), str(data),
                          str(tmp_path / "out")], capture_output=True, text=True, check=True)
    parsed, thermal, fit = json.loads(out.stdout)
    assert parsed == []
    assert thermal == [0]  # thermal needs none of them
    assert fit == [0, "estimators", "optimize"]


def test_every_numeric_flag_is_checked_where_it_is_declared():
    # a flag's check is its argparse type, so no handler sees an unchecked value
    strings = {"--config", "--out", "--data"}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            flag = action.option_strings[-1]
            if action.dest == "help" or flag in strings:
                continue
            assert isinstance(action.type, functools.partial), (name, flag)
            assert action.type.func is cli._check and action.type.args[0] == flag, (name, flag)


# The six flags that set a config field: its subcommand, the field's path, a
# strategy for values of the field's kind, and the flag's reading of the value
# the config holds. A value goes to the flag as its repr (a list as its items'
# reprs joined by commas, a string as itself). Integer flags read only integer
# digits (int("5.0") fails, while the config takes 5.0 as 5), so they are
# drawn no integral floats.
_INTS = st.one_of(st.integers(-5, 20), st.integers(-10**400, 10**400))
_NUMBERS = st.one_of(st.floats(), _INTS)  # nan and +-inf included
_CONFIG_FLAGS = {
    "--seed": ("thermal", ("seed",), _INTS, int),
    "--n-cpmg": ("cpmg", ("sequence", "n_cpmg"), _INTS, int),
    "--omega0": ("spectrum", ("resonator", "omega0_hz"), _NUMBERS, float),
    "--tau-us": ("echo", ("sequence", "tau_us"), _NUMBERS, float),
    "--dt-list-s": ("invrec", ("sequence", "dt_list_s"), st.lists(_NUMBERS, max_size=4),
                    lambda held: [float(v) for v in held]),
    "--branch": ("fit-psd", ("scenario", "config"),
                 st.one_of(st.sampled_from(["hot", "cold"]), st.text(max_size=6)), str),
}


@pytest.mark.parametrize("flag", _CONFIG_FLAGS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_config_backed_flag_accepts_exactly_what_its_field_accepts(flag, data):
    command, path, values, read = _CONFIG_FLAGS[flag]
    value = data.draw(values)
    text = (value if isinstance(value, str) else ",".join(map(repr, value))
            if isinstance(value, list) else repr(value))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    check = next(a.type for a in subparsers.choices[command]._actions
                 if flag in a.option_strings)
    try:
        got = check(text)
    except argparse.ArgumentTypeError as exc:
        assert str(exc).startswith(f"{flag} must be ") and str(exc).endswith(f"got {text!r}")
        got = None
    doc = {"resonator": {"omega0_hz": 7.408e9, "kappa_int_hz": KAPPA_INT,
                         "kappa_ext_hz": KAPPA_EXT}}
    (doc if len(path) == 1 else doc.setdefault(path[0], {}))[path[-1]] = value
    try:
        held = parse_config_text(yaml.safe_dump(doc)).raw
    except SchemaError:
        assert got is None, (text, got)
        return
    for key in path:
        held = held[key]
    expected = read(held)
    assert got == expected and type(got) is type(expected), (text, got, held)


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


def test_alias_inside_its_own_anchor_is_rejected_at_the_field(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    text = SMALL.replace("  n_g: 2\n", "")
    cfg.write_text(text.replace("ensemble:\n", "ensemble: &e\n  n_g: *e\n"), encoding="utf-8")
    assert cli.main(["thermal", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: ensemble.n_g: ")
    assert err.count("\n") == 1


def test_invalid_yaml_is_one_line_naming_the_problem_and_its_place(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(SMALL.replace("  n_delta: 1\n", "  n_delta: *nowhere\n"), encoding="utf-8")
    assert cli.main(["thermal", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}: not valid YAML: found undefined alias 'nowhere' "
        "at line 7, column 12\n")


def test_alias_expansion_is_rejected_before_it_is_walked(tmp_path, capsys):
    # each anchor repeats the one before ten times: 393 bytes that expand to
    # ten million numbers
    lines = ["x0: &x0 [1, 2, 3, 4, 5, 6, 7, 8, 9, 0]"] + [
        f"x{k}: &x{k} [" + ", ".join([f"*x{k - 1}"] * 10) + "]" for k in range(1, 7)]
    cfg = tmp_path / "run.yaml"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cfg.stat().st_size == 393
    t0 = time.monotonic()
    assert cli.main(["thermal", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err.startswith(f"config error: {cfg}: <root>: unknown keys")


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


@pytest.mark.parametrize("width, sample_dt", [
    (3.999999999992e-06, 1e-8),  # 400 samples, 2e-12 of the window short
    (2.0999999998949997e-07, 3e-8),  # 7 samples, 5e-11 short
    (1.749999999825e-08, 2.5e-9),  # 7 samples, 1e-10 short
])
def test_window_just_short_of_whole_samples_ends_at_its_last_sample(tmp_path, width, sample_dt):
    # the comb takes a window within 1e-9 samples of k samples as k + 1 sample
    # times, and the last of them once lay past the window's end
    cfg = tmp_path / "run.yaml"
    sequence = f"sequence: {{acquire_width_s: {width!r}, sample_dt_s: {sample_dt!r}}}\n"
    cfg.write_text(SMALL + sequence, encoding="utf-8")
    run_ok(["echo", "--config", cfg, "--out", tmp_path / "echo"])
    run_ok(["cpmg", "--config", cfg, "--out", tmp_path / "cpmg", "--n-cpmg", "1"])
    samples = round(width / sample_dt) + 1
    assert len(load_csv(tmp_path / "cpmg" / "cpmg_00.csv")) == samples
    assert len(load_csv(tmp_path / "echo" / "echo_0.csv")) == samples


@pytest.mark.parametrize("width, sample_dt, tau_us", [
    (1.0e-3, 1.0e-9, "1000"),  # 1,000,001 samples
    (1.0e300, 1.0e-300, "1e306"),  # a ratio past float range
])
@pytest.mark.parametrize("command", ["echo", "cpmg", "rabi", "invrec"])
def test_acquisition_window_beyond_max_points_is_refused_before_any_solve(
        tmp_path, capsys, monkeypatch, command, width, sample_dt, tau_us):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(blochsim, "dormand_prince", no_solve)
    cfg = tmp_path / "run.yaml"
    sequence = f"sequence: {{acquire_width_s: {width!r}, sample_dt_s: {sample_dt!r}}}\n"
    cfg.write_text(SMALL + sequence, encoding="utf-8")
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg), "--out", str(out), "--tau-us", tau_us]
    assert cli.main(argv + (["--dt-list-s", "1e-3"] if command == "invrec" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sequence.acquire_width_s" in err and "sequence.sample_dt_s" in err
    assert f"at most {cli.MAX_POINTS} samples" in err
    assert not (out / "manifest.json").exists()


def test_acquisition_window_of_max_points_samples_runs(tmp_path):
    # 10,000 sample intervals: the largest window the bound lets through
    cfg = tmp_path / "run.yaml"
    sample_dt = 1e-9
    width = (cli.MAX_POINTS - 1) * sample_dt
    sequence = f"sequence: {{acquire_width_s: {width!r}, sample_dt_s: {sample_dt!r}}}\n"
    cfg.write_text(SMALL + sequence, encoding="utf-8")
    run_ok(["echo", "--config", cfg, "--out", tmp_path / "echo", "--tau-us", "20"])
    assert len(load_csv(tmp_path / "echo" / "echo_0.csv")) == cli.MAX_POINTS


@pytest.mark.parametrize("name", ["fit-invrec", "fit-t2", "fit-psd"])
@pytest.mark.parametrize("text, line, why", [
    *(pytest.param(f"x,y\n1e-3,0.9\n\n{bad}\n3e-3,0.7\n4e-3,0.6\n", 4, why, id=f"{bad}-{why}")
      for bad, why in [("foo,bar", "not two numbers"), ("2e-3", "not two numbers"),
                       ("nan,0.5", "numbers must be finite"),
                       ("2e-3,inf", "numbers must be finite")]),
    # a byte order mark is not text of the first line, so a header-less
    # file's first row is read as data, not dropped as a header
    pytest.param("\ufeffnan,0.5\n1e-3,0.9\n2e-3,0.8\n3e-3,0.7\n4e-3,0.6\n", 1,
                 "numbers must be finite", id="bom-first-row"),
])
def test_fit_data_rows_are_all_read_or_refused(tmp_path, cfg_path, capsys, name, text, line,
                                               why):
    # only the first line may be a header; a later bad line names itself
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    psd = ["--config", str(cfg_path), "--branch", "hot"] if name == "fit-psd" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([name, "--data", str(data), "--out", str(out)] + psd)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{data}:{line}: {why}" in err
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
    ("invrec", SMALL.replace("n_g: 2", "n_g: 1").replace("g_hz: 50.0", "g_hz: 1.0e-200")
     + "sequence: {amp: 1.0e+6}\n",  # Gamma_1 underflows to 0
     "the median Purcell rate is 0, so no default recovery delays: give them with "
     "--dt-list-s or sequence.dt_list_s"),
], ids=["zero-rates", "grid-in-strip", "pair-window", "grid-above-cutoff", "psd-one-side",
        "invrec-zero-rate"])
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


# every subcommand that reads a config, with its flags; coupling reads g_hz
_CONFIG_READERS = [
    ["spectrum", "--omega0", "7.4e9"], ["thermal"], ["polarization"], ["coupling"], ["echo"],
    ["invrec"], ["rabi"], ["cpmg"], ["fit-psd", "--branch", "hot"],
]


@pytest.mark.parametrize("argv", _CONFIG_READERS, ids=[argv[0] for argv in _CONFIG_READERS])
@pytest.mark.parametrize("config, section, message", [
    (SMALL + "geometry: {n_filaments: 8, n_layers: 1}\n", "geometry",
     "need at least 64 filaments in the cross-section"),
    (SMALL + "geometry: {current_model: edge-peaked, edge_cutoff_m: 1.0e-6}\n", "geometry",
     "edge cutoff consumes the whole strip"),  # half the 2 um width
    (SMALL.replace(repr(KAPPA_INT), "0").replace(repr(KAPPA_EXT), "0"), "resonator",
     "kappa_int, kappa_ext must be >= 0 with a positive, finite sum"),
    (SMALL.replace(repr(KAPPA_INT), "1.0e+308").replace(repr(KAPPA_EXT), "1.0e+308"),
     "resonator", "kappa_int, kappa_ext must be >= 0 with a positive, finite sum"),
    # integers that each fit float range; their sum once overflowed in echo
    (SMALL.replace(repr(KAPPA_INT), "1" + "0" * 308).replace(repr(KAPPA_EXT), "1" + "0" * 308),
     "resonator", "kappa_int, kappa_ext must be >= 0 with a positive, finite sum"),
], ids=["filaments", "edge-cutoff", "kappa-zero", "kappa-inf", "kappa-int-inf"])
def test_a_config_rule_is_refused_by_every_subcommand(tmp_path, capsys, argv, config, section,
                                                      message):
    # the rules over several fields are checked when the config is parsed,
    # whether or not the subcommand uses the object that states them
    cfg = tmp_path / "run.yaml"
    cfg.write_text(config, encoding="utf-8")
    data = tmp_path / "psd.csv"
    data.write_text("".join(f"{x!r},{y!r}\n" for x, y in _PSD_BELOW_OMEGA0), encoding="utf-8")
    fit = ["--data", str(data)] if argv[0] == "fit-psd" else []
    out = tmp_path / "o"
    assert cli.main([*argv, "--config", str(cfg), "--out", str(out)] + fit) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: {section}: {message}\n"
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
    assert "into event 1 of 5 (a pulse from t=0.000000e+00 s)" in run.stderr
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
@example(argv=["spectrum", "--b0-max", "2e-3", "--omega0", "1e308"])  # d1 d2 overflows
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


@st.composite
def _fit_files(draw):
    """4 to 9 (delay, area) rows in units drawn over 1e-320 to 1e300 for the
    delays and 1e-300 to 1e200 for the areas, with the shape of the data
    drawn within them."""
    n = draw(st.integers(4, 9))
    x_unit = 10.0 ** draw(st.integers(-320, 300))
    y_unit = 10.0 ** draw(st.integers(-300, 200))
    xs = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return draw(st.sampled_from(["fit-invrec", "fit-t2"])), [
        (x * x_unit, y * y_unit) for x, y in zip(xs, ys)]


@settings(max_examples=150, deadline=None)
@given(run=_fit_files())
@example(run=("fit-invrec", [(0.0, 1.0), (1e-200, 1.0), (2e-200, 1.0), (3e-200, 2.0)]))
@example(run=("fit-invrec", [(k * 1e300, (-1) ** k * 1e200) for k in range(5)]))
def test_fit_fuzz_ends_in_a_documented_exit_code(run):
    name, rows = run
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.csv")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{x!r},{y!r}\n" for x, y in rows))
        out = os.path.join(tmp, "o")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([name, "--data", data, "--out", out])
        assert rc in (0, 2, 3), err.getvalue()
        event(f"exit {rc}")
        if rc == 0:
            _assert_outputs_finite(out)
        else:  # one line of message, not a traceback or a warning
            assert err.getvalue().count("\n") == 1, err.getvalue()


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


# ------------------------------------------------------------ config fuzz

# values that miss a config field in every way the table knows: wrong
# types, nested junk, lists in place of scalars, numeric strings, and
# numbers at and beyond both ends of the float range
_CONFIG_JUNK = st.one_of(
    st.sampled_from([None, True, "", "hot", "uniform", "fast", "1e5", "1e400", "-2.5E-3",
                     "0.5", [], {}, [1.0], [[0.5]], [0.0, 1.0], {"a": [1, {"b": None}]},
                     0, -0.0, 1, 5e-324, 1e-300, 0.47, 1e300, -1e300,
                     1.7976931348623157e308, 10**20, 10**400, math.nan, math.inf, -math.inf]
                    ).map(copy.deepcopy),
    st.floats(),
    st.integers(),
    st.lists(st.floats(0.0, 1e308), max_size=3),
)

# values that a numeric field may take
_CONFIG_FITTING = st.floats(0.0, 1.0) | st.floats(1.0, 1e308) | st.integers(1, 50)

# YAML spliced into the text in place of a value: tags, and aliases to
# anchors that are undefined, shared or inside their own node
_CONFIG_SPLICES = st.sampled_from([
    "!!str 7.5", "!!float '2.5e+2'", "!!int '3'", "!!binary aGk=", "!!timestamp 2001-12-14",
    "!!set {a, b}", "!!python/name:os.system", "!!null ''", "!!float .nan", "*nowhere",
    "&a [*a]", "&b {n_g: *b}", "&c [&d [1.0, 2.0], *d, *d]", "!custom 1.0",
])


@st.composite
def _demo_configs(draw):
    """configs/demo.yaml with one to three edits, as YAML text: a section or
    key dropped, an unknown key added, a field set to a fitting value or to
    junk, a value replaced by a tag or an alias, or two fields sharing one
    list (which the dump writes as an anchor and an alias)."""
    doc = yaml.safe_load(DEMO)
    splices = {}
    for k in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(FIELDS)))
        table = FIELDS[name]
        if not isinstance(table, dict) or not isinstance(doc.get(name, {}), dict):
            target, key = doc, name
        else:
            target, key = doc.setdefault(name, {}), draw(st.sampled_from(sorted(table)))
        edit = draw(st.sampled_from(["drop", "drop section", "unknown", "junk", "junk",
                                     "fit", "splice", "share"]))
        if edit == "drop":
            target.pop(key, None)
        elif edit == "drop section":
            doc.pop(name, None)
        elif edit == "unknown":
            target[draw(st.sampled_from(["q_factor", "resonator", "n_g", 7]))] = 1.0
        elif edit == "junk":
            target[key] = draw(_CONFIG_JUNK)
        elif edit == "fit":
            target[key] = draw(_CONFIG_FITTING)
        elif edit == "splice":
            target[key] = f"SPLICE{k}"
            splices[f"SPLICE{k}"] = draw(_CONFIG_SPLICES)
        else:
            shared = [0.5, 1.0]
            target[key] = doc.setdefault("sequence", {})["dt_list_s"] = shared
    text = yaml.safe_dump(doc)
    for marker, snippet in splices.items():
        text = text.replace(marker, snippet)
    return text


@settings(max_examples=200, deadline=None)
@given(text=_demo_configs())
@example(text=DEMO.replace("omega0_hz: 7.408e+9", "omega0_hz: 1.0e-300"))
@example(text=DEMO.replace("t_int_k: 0.95", "t_int_k: 1.0e+305"))
@example(text=DEMO.replace("t_phon_k: 0.85", "t_phon_k: 1.0e+306"))
@example(text=DEMO.replace("2.513274122871834e+6", "1.0e+308")
         .replace("3.7699111843077517e+6", "1.0e+308"))  # kappa sums to inf
@example(text=DEMO.replace("t_int_k: 0.95", "t_int_k: 0.95\n  t_int_cold_k: 1.0e+20"))
def test_thermal_config_fuzz_ends_in_exit_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp, "o")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["thermal", "--config", path, "--out", out])
        assert rc in (0, 2), err.getvalue()
        event(f"exit {rc}")
        if rc == 2:  # one line of message, not a traceback
            assert err.getvalue().startswith(("config error: ", "error: ")), err.getvalue()
            assert err.getvalue().count("\n") == 1, err.getvalue()
            return
        _assert_outputs_finite(out)
        filled = parse_config_text(text)
        assert parse_config_text(serialize(filled)).raw == filled.raw
        # the mode's occupation mixes its baths' occupations, weights summing to 1
        scen, omega0 = filled.raw["scenario"], filled.raw["resonator"]["omega0_hz"]
        # in the cold configuration an explicit t_int_cold_k is the internal bath
        t_int = scen["t_int_k"]
        if scen["config"] == "cold" and scen.get("t_int_cold_k") is not None:
            t_int = scen["t_int_cold_k"]
        baths = [bose_occupation(t, omega0) for t in (t_int, scen["t_phon_k"], scen["t_cold_k"])]
        with open(os.path.join(out, "thermal.json"), encoding="utf-8") as fh:
            n_phot = json.load(fh)["n_phot"]
        assert min(baths) * (1 - 1e-12) <= n_phot <= max(baths) * (1 + 1e-12), (n_phot, baths)



# ------------------------------------------------------- simulation fuzz

# the sequence subcommands with the numeric flags each takes, on an ensemble
# of 1-3 couplings by 1-3 detunings whose fields a draw may drop, set to junk
# or set to a fitting value
_SIM_FLAGS = {
    "echo": ["--tau-us", "--b0"],
    "cpmg": ["--tau-us", "--b0"],
    "rabi": ["--tau-us", "--b0", "--amp-list"],
    "invrec": ["--tau-us", "--b0", "--dt-list-s"],
}
_SIM_FIELDS = ["freq_width_hz", "g_hz", "pair_window_hz", "spin_temp_k", "t2_s"]
_ONE_GROUP = {"n_g": 1, "n_delta": 1, "g_hz": 50.0}
_FUZZ_LISTS = st.lists(_FUZZ_NUMBERS, min_size=1, max_size=3).map(",".join)


def _number(value):
    """value as a float if it reads as a number, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def _crawls(argv, ensemble):
    """Inputs whose run takes seconds to hours, because the solver resolves
    a rotation or decay far faster than the sequence: a coupling above
    1 MHz, a T2 below 10 ns, a detuning comb of several detunings wider
    than 100 MHz (a 2x3 echo takes 0.7 s at that width and 30 s at 10 GHz),
    or a drive that turns the spins faster than amplitude 1e9 does at
    50 Hz (the rate goes as g |amp|; without g_hz the wire model's couplings
    stay below about 150 Hz). Nothing bounds such a run's time yet, so the
    fuzz leaves them out."""
    g, t2 = _number(ensemble.get("g_hz")), _number(ensemble.get("t2_s"))
    width = _number(ensemble.get("freq_width_hz"))
    amps = argv[argv.index("--amp-list") + 1].split(",") if "--amp-list" in argv else []
    rotating = 150.0 if g is None else g
    return ((g is not None and 1e6 < g < math.inf)
            or (t2 is not None and 0 < t2 < 1e-8)
            or (ensemble["n_delta"] > 1 and width is not None and 1e8 < width < math.inf)
            or any(5e10 < rotating * abs(a) < math.inf
                   for a in map(_number, amps) if a is not None))


@st.composite
def _sim_runs(draw):
    name = draw(st.sampled_from(sorted(_SIM_FLAGS)))
    argv = [name]
    if name == "cpmg":
        argv += ["--n-cpmg", str(draw(st.integers(1, 3)))]
    for flag in draw(st.lists(st.sampled_from(_SIM_FLAGS[name]), unique=True)):
        argv += [flag, draw(_FUZZ_LISTS if "list" in flag else _FUZZ_NUMBERS)]
    ensemble = {**_ONE_GROUP, "n_g": draw(st.integers(1, 3)),
                "n_delta": draw(st.integers(1, 3))}
    for field in draw(st.lists(st.sampled_from(_SIM_FIELDS), unique=True, max_size=3)):
        edit = draw(st.sampled_from(["drop", "junk", "fit", "fit"]))
        if edit == "drop":
            ensemble.pop(field, None)
        else:
            ensemble[field] = draw(_CONFIG_JUNK if edit == "junk" else _CONFIG_FITTING)
    # a window of k samples, or just short of k, whose last sample the comb
    # puts at the window's end
    sample_dt = draw(st.sampled_from([1e-9, 2.5e-9, 5e-9, 1e-8]))
    short = draw(st.just(0.0) | st.floats(1e-12, 1e-10))
    sequence = {"sample_dt_s": sample_dt,
                "acquire_width_s": draw(st.integers(1, 600)) * sample_dt * (1 - short)}
    return argv, ensemble, sequence


@settings(max_examples=300, deadline=None)
@given(run=_sim_runs())
@example(run=(["echo"], {**_ONE_GROUP, "t2_s": 5e-324}, {}))  # 1/T2 overflows
@example(run=(["echo"], {**_ONE_GROUP, "g_hz": 5.2e199}, {}))  # the Purcell rate overflows
@example(run=(["echo"], {**_ONE_GROUP, "g_hz": 1e-100}, {}))  # the pi pulse's rotation is 0
@example(run=(["cpmg", "--n-cpmg", "1", "--tau-us", "1e308"], _ONE_GROUP, {}))  # L t overflows
@example(run=(["rabi", "--amp-list", "1e308"], _ONE_GROUP, {}))  # the drive overflows
@example(run=(["rabi", "--tau-us", "0"], _ONE_GROUP, {}))  # a usage error
@example(run=(["echo"], _ONE_GROUP, {"acquire_width_s": 3.999999999992e-06}))  # 2e-12 short
# the wire model's pair search in a 1 THz window: its first candidate pair
# shares a state, so the search skips it
@example(run=(["cpmg"], {"n_g": 1, "n_delta": 1, "pair_window_hz": 1e12}, {}))
def test_simulation_fuzz_ends_in_a_documented_exit_code(run):
    argv, ensemble, sequence = run
    assume(not _crawls(argv, ensemble))
    doc = yaml.safe_load(SMALL)
    doc["ensemble"] = ensemble
    doc["sequence"] = sequence
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(yaml.safe_dump(doc))
        out = os.path.join(tmp, "o")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--config", path, "--out", out])
        assert rc in (0, 2, 3, 4), err.getvalue()
        event(f"exit {rc}")
        if rc == 0:
            _assert_outputs_finite(out)
        else:  # one line of message, not a traceback or a usage text
            assert err.getvalue().count("\n") == 1, err.getvalue()
