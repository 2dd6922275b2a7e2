import json
import math
import subprocess
import sys

import numpy as np
import pytest

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
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "purcell-cool" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--out", "x"])
    assert exc.value.code == 2


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
    text = SMALL.replace("  g_hz: 50.0\n", "")  # use the wire model
    p = tmp_path / "wire.yaml"
    p.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    run_ok(["coupling", "--config", p, "--out", out])
    rho = load_csv(out / "rho_g.csv")
    assert abs(rho["weight"].sum() - 1.0) < 1e-9
    assert np.all(rho["g_hz"] > 0)
    fm = load_csv(out / "fieldmap.csv")
    assert set(fm.dtype.names) == {"x_m", "y_m", "bx_T", "by_T"}


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
        p = est.PsdModelParams(gain=1.0, n_twpa=0.75, t_int=t_int, alpha=alpha,
                               resonator=res, t_phon=0.85)
        s = est.psd_model(omega, p, config)
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

    # the cold stage refuses to run without the hot-stage TWPA number
    rc = cli.main(["fit-psd", "--config", str(cfg_path), "--out", str(tmp_path / "x"),
                   "--data", str(cold_csv), "--branch", "cold"])
    assert rc == 2

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


def test_manifest_seed_override(tmp_path, cfg_path):
    out = tmp_path / "o"
    run_ok(["thermal", "--config", cfg_path, "--out", out, "--seed", "42"])
    with open(out / "manifest.json") as fh:
        m = json.load(fh)
    assert m["seed"] == 42
    assert m["subcommand"] == "thermal"
    assert m["config_sha256"]


def test_cli_import_leaves_scipy_solvers_unloaded():
    # scipy.integrate or scipy.optimize alone lifts a bare import's RSS by
    # about half; the package carries its own integrator and fitter
    probe = ("import sys, purcell_cool.cli; "
             "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
