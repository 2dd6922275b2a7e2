"""Seeded workloads: generated inputs, the CLI invocations and their checks.

A workload is built from a seed into an input directory. It yields a list of
operations; each operation is one ``purcell_cool.cli.main`` invocation plus a
check of the files it wrote. A check raises CheckFailed when an output is
wrong; the runner counts that operation as failed.

Inputs vary with the seed only in ways that leave the amount of work nearly
unchanged (Hahn delays within +-0.25 us of 15 us, amplitude and delay jitter,
shifted field grids, synthetic fit data), so run-to-run spread of timings
reflects the program and the machine rather than the draw.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.constants import Boltzmann as K_B
from scipy.constants import Planck as H_PLANCK

OMEGA0_HZ = 7.408e9
KAPPA_INT = 2.513274122871834e6
KAPPA_EXT = 3.7699111843077517e6
KAPPA = KAPPA_INT + KAPPA_EXT
T_PHON_K = 0.85
PI_NS = 250.0
FREQ_WIDTH_HZ = 3e6
REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-3  # no tighter than the step-halving criterion of the tests
NOISE = 0.01  # relative noise of synthetic fit data

RESONATOR_YAML = f"""\
resonator:
  omega0_hz: {OMEGA0_HZ!r}
  kappa_int_hz: {KAPPA_INT!r}
  kappa_ext_hz: {KAPPA_EXT!r}
"""


class CheckFailed(Exception):
    """An operation's output is wrong."""


def read_csv(path):
    """Numeric rows of a CSV written by the CLI, header skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines if line]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One CLI invocation. argv gets the pass directory, which holds the
    output directories of earlier operations of the same pass."""

    name: str
    argv: Callable[[Path], list]
    check: Callable[[Path], None]
    metric: str | None = None  # per-subcommand time it contributes to
    sequences: int = 0  # pulse sequences it simulates


@dataclass
class Workload:
    config: Path
    ops: list
    inputs: dict = field(default_factory=dict)  # what the seed chose


def rng_for(name, seed):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def write_text(path, text):
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def write_xy(path, header, xs, ys):
    lines = [",".join(header)] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(xs, ys)]
    return write_text(path, "\n".join(lines) + "\n")


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ------------------------------------------------------------ shared checks


def read_trace(path):
    """(t, complex amplitude) of a trace CSV written by the CLI."""
    rows = np.array(read_csv(path))
    require(rows.ndim == 2 and len(rows) > 1 and np.all(np.isfinite(rows)),
            f"{path.name}: empty or non-finite trace")
    return rows[:, 0], rows[:, 1] + 1j * rows[:, 2]


def check_areas(outdir, table, trace_names, ref_index):
    """Areas in `table` are finite, non-zero and equal to the areas of the
    trace files, integrated independently against the phase of the largest
    sample of trace ref_index (of the trace with the largest sample if None)."""
    areas = [r[1] for r in read_csv(outdir / table)]
    require(len(areas) == len(trace_names),
            f"{table}: {len(areas)} areas for {len(trace_names)} traces")
    require(all(math.isfinite(a) and a != 0.0 for a in areas),
            f"{table}: zero or non-finite area")
    traces = [read_trace(outdir / name) for name in trace_names]
    if ref_index is None:
        ref_index = int(np.argmax([np.abs(amp).max() for _, amp in traces]))
    ref = traces[ref_index][1]
    phase = float(np.angle(ref[int(np.argmax(np.abs(ref)))]))
    for name, (t, amp), area in zip(trace_names, traces, areas):
        mine = float(np.real(np.exp(-1j * phase) * np.trapezoid(amp, t)))
        require(close(mine, area, 1e-9), f"{table}: area {area!r} disagrees with {name}")
    return areas


def check_reference(key, values, seed):
    if seed != REFERENCE_SEED:
        return
    refs = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    ref = refs.get(key)
    if ref is None:
        return
    require(len(ref) == len(values), f"{key}: {len(values)} areas, reference has {len(ref)}")
    for got, want in zip(values, ref):
        require(close(got, want, REFERENCE_RTOL),
                f"{key}: area {got!r} differs from reference {want!r}")


def purcell(g_hz, delta_hz):
    ga = 2 * math.pi * np.asarray(g_hz)
    da = 2 * math.pi * np.asarray(delta_hz)
    return KAPPA * ga * ga / (KAPPA**2 / 4 + da * da)


def rho_quantile(rho_rows, q):
    """Inverse CDF of the rho(g) histogram written by `coupling`.

    The CLI writes bin centres of log-spaced bins, so the edges follow from
    the centre ratio."""
    centres = np.array([r[0] for r in rho_rows])
    weights = np.array([r[1] for r in rho_rows])
    ratio = centres[1] / centres[0] if centres.size > 1 else 1.0
    edges = np.append(2 * centres / (1 + ratio), 2 * centres[-1] * ratio / (1 + ratio))
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    cum[-1] = 1.0
    return np.interp(q, cum, edges)


def pi_amplitude(g_hz):
    """Input amplitude of a resonant pi pulse at coupling g (quasi-steady cavity)."""
    return math.pi * KAPPA / (4 * 2 * math.pi * g_hz * math.sqrt(KAPPA_EXT) * PI_NS * 1e-9)


# --------------------------------------------------------------- echo-wide


def echo_wide(seed, size, inputs, run_cli):
    """Default 40x41 ensemble: one Hahn echo and a 4-echo CPMG train."""
    rng = rng_for("echo-wide", seed)
    tau = float(rng.uniform(14.75, 15.25))
    t2 = float(rng.uniform(550e-6, 650e-6))
    ensemble = "  n_g: 4\n  n_delta: 3\n" if size == "tiny" else ""
    cfg = write_text(inputs / "echo-wide.yaml",
                     RESONATOR_YAML + f"ensemble:\n{ensemble}  t2_s: {t2!r}\nseed: {seed}\n")
    n_cpmg = 2 if size == "tiny" else 4
    ref_key = f"echo-wide/{size}"

    def check_echo(out):
        areas = check_areas(out, "summary.csv", ["echo_0.csv"], 0)
        check_reference(f"{ref_key}/echo", areas, seed)

    def check_cpmg(out):
        traces = [f"cpmg_{k:02d}.csv" for k in range(n_cpmg)]
        areas = check_areas(out, "cpmg.csv", traces, None)
        check_reference(f"{ref_key}/cpmg", areas, seed)

    common = ["--config", str(cfg), "--tau-us", repr(tau)]
    return Workload(
        config=cfg,
        ops=[
            Op("echo", lambda p: ["echo"] + common, check_echo, "echo_s", 1),
            Op("cpmg", lambda p: ["cpmg"] + common + ["--n-cpmg", str(n_cpmg)],
               check_cpmg, "cpmg_s", 1),
        ],
        inputs={"tau_us": tau, "t2_s": t2, "n_cpmg": n_cpmg},
    )


# ------------------------------------------------------------ sweep-narrow


def sweep_narrow(seed, size, inputs, run_cli):
    """configs/demo.yaml ensemble (8x9): Rabi and inversion-recovery sweeps,
    then a fit of the recovery the sweep produced."""
    rng = rng_for("sweep-narrow", seed)
    n_g, n_delta = (3, 1) if size == "tiny" else (8, 9)
    n_amp, n_dt = (4, 4) if size == "tiny" else (6, 5)  # two passes fit in 25 s
    tau = float(rng.uniform(14.75, 15.25))
    t2 = float(rng.uniform(550e-6, 650e-6))
    cfg = write_text(
        inputs / "sweep-narrow.yaml",
        RESONATOR_YAML + f"ensemble:\n  n_g: {n_g}\n  n_delta: {n_delta}\n  t2_s: {t2!r}\n"
        f"seed: {seed}\n")

    # the coupling density fixes the pi calibration and the Purcell rates the
    # generated flags and the checks refer to; it is input preparation, untimed
    prep = inputs / "coupling"
    if run_cli(["coupling", "--config", str(cfg), "--out", str(prep)]) != 0:
        raise RuntimeError("coupling run for input preparation failed")
    rho = read_csv(prep / "rho_g.csv")
    g_groups = rho_quantile(rho, (np.arange(n_g) + 0.5) / n_g)
    deltas = np.linspace(-FREQ_WIDTH_HZ / 2, FREQ_WIDTH_HZ / 2, n_delta) if n_delta > 1 else [0.0]
    rates = purcell(g_groups[:, None], np.asarray(deltas)[None, :]).ravel()
    amp_pi = pi_amplitude(float(rho_quantile(rho, 0.5)))

    base = np.linspace(0.1, 3.0, n_amp)
    step = base[1] - base[0]
    scales = base + rng.uniform(-0.15, 0.15, n_amp) * step
    scales[0] = base[0]  # keep the weakest drive at 0.1x
    amps = scales * amp_pi
    g1 = float(np.median(rates))
    dts = np.geomspace(0.05, 8.0, n_dt) / g1 * np.exp(rng.uniform(-0.1, 0.1, n_dt))

    def check_rabi(out):
        # On this ensemble the aligned |area| peaks near 0.3x the median-g pi
        # calibration, so the check is the dominant lobe at or below 1.6x and
        # a damped second lobe, as in acceptance criterion 9c.
        rows = read_csv(out / "rabi.csv")
        require(len(rows) == n_amp, f"rabi.csv: {len(rows)} rows")
        mags = np.abs([r[1] for r in rows])
        require(np.all(np.isfinite(mags)) and mags.max() > 0, "rabi.csv: bad areas")
        peak = int(np.argmax(mags))
        require(scales[peak] < 1.6, f"Rabi |area| peaks at {scales[peak]:.3f}x the pi calibration")
        late = mags[scales > 2.0]
        require(late.size == 0 or late.max() < 0.8 * mags[peak],
                "second Rabi lobe is not damped below 0.8x the peak")

    def check_invrec(out):
        traces = [f"invrec_{k:02d}.csv" for k in range(n_dt)]
        areas = check_areas(out, "invrec.csv", traces, int(np.argmax(dts)))
        order = np.argsort(dts)
        require(areas[order[0]] * areas[order[-1]] < 0,
                "shortest-delay echo is not inverted relative to the longest")

    def check_fit(out):
        fit = read_json(out / "fit_invrec.json")
        g = fit["parameters"]["gamma1"]
        require(fit["converged"] and rates.min() <= g <= rates.max(),
                f"fitted Gamma1 {g!r} outside the group span "
                f"[{rates.min():.4g}, {rates.max():.4g}]")

    common = ["--config", str(cfg), "--tau-us", repr(tau)]
    amp_list = ",".join(repr(float(a)) for a in amps)
    dt_list = ",".join(repr(float(d)) for d in dts)
    return Workload(
        config=cfg,
        ops=[
            Op("rabi", lambda p: ["rabi"] + common + ["--amp-list", amp_list],
               check_rabi, "rabi_s", n_amp),
            Op("invrec", lambda p: ["invrec"] + common + ["--dt-list-s", dt_list],
               check_invrec, "invrec_s", n_dt),
            Op("fit-invrec",
               lambda p: ["fit-invrec", "--data", str(p / "invrec" / "invrec.csv")],
               check_fit, "fit_s"),
        ],
        inputs={"tau_us": tau, "t2_s": t2, "amp_scales": scales.tolist(),
                "dt_s": dts.tolist(), "gamma1_span": [float(rates.min()), float(rates.max())]},
    )


# -------------------------------------------------------------- levels-fit


def bose(t, f):
    return 1.0 / np.expm1(H_PLANCK * f / (K_B * t))


def psd(f, branch, n_twpa, t_int, alpha):
    det = 2 * math.pi * (f - OMEGA0_HZ)
    beta = 4 * KAPPA_INT * KAPPA_EXT / (KAPPA**2 + 4 * det**2)
    off = bose(T_PHON_K, f) * (1.0 if branch == "hot" else alpha)
    return H_PLANCK * f * ((1 - beta) * off + beta * bose(t_int, f) + 0.5 + n_twpa)


# Relative recovery bound for every fitted parameter of data with 1% noise.
# Over 300 seeds the largest miss was 3% (median 0.5%), so the bound holds at
# any seed and still catches a fit that converged to the wrong answer.
FIT_RTOL = 0.08


def levels_fit(seed, size, inputs, run_cli):
    """No ODE: level structure, field map, thermal models and every fitter."""
    rng = rng_for("levels-fit", seed)
    filaments = 16 if size == "tiny" else 256
    b0_step = 1e-3 if size == "tiny" else 1e-4
    b0_min = float(rng.uniform(0.0, 5e-5))
    b0_coupling = float(62.5e-3 + rng.uniform(-2e-5, 2e-5))
    t_min = float(rng.uniform(0.02, 0.04))
    cfg = write_text(inputs / "levels-fit.yaml",
                     RESONATOR_YAML + f"geometry:\n  n_filaments: {filaments}\nseed: {seed}\n")

    truth = {
        "n_twpa": float(rng.uniform(0.6, 0.9)),
        "t_int_hot": float(rng.uniform(0.85, 1.05)),
        "alpha": float(rng.uniform(0.4, 0.55)),
        "t_int_cold": float(rng.uniform(0.7, 0.9)),
        "gamma1": float(rng.uniform(0.04, 0.09)),
        "t2": float(rng.uniform(5e-4, 7e-4)),
        "snr_gamma1": float(rng.uniform(0.03, 0.1)),
    }
    f = OMEGA0_HZ + np.linspace(-3e6, 3e6, 61)
    hot = psd(f, "hot", truth["n_twpa"], truth["t_int_hot"], 1.0)
    cold = psd(f, "cold", truth["n_twpa"], truth["t_int_cold"], truth["alpha"])
    hot_csv = write_xy(inputs / "psd_hot.csv", ["f_hz", "s"], f,
                       hot * (1 + NOISE * rng.standard_normal(f.size)))
    cold_csv = write_xy(inputs / "psd_cold.csv", ["f_hz", "s"], f,
                        cold * (1 + NOISE * rng.standard_normal(f.size)))
    dt = np.geomspace(0.05, 8.0, 12) / truth["gamma1"]
    offset = float(rng.uniform(-0.1, 0.1))
    rec = 1 - 2 * np.exp(-truth["gamma1"] * dt) + offset + NOISE * rng.standard_normal(dt.size)
    rec_csv = write_xy(inputs / "recovery.csv", ["dt_s", "A_e"], dt, rec)
    x = np.linspace(3e-5, 2e-3, 20)
    decay = np.exp(-((x / truth["t2"]) ** 2)) + NOISE * rng.standard_normal(x.size)
    t2_csv = write_xy(inputs / "decay.csv", ["x_s", "area"], x, decay)

    def check_spectrum(out):
        rows = read_csv(out / "resonances.csv")
        groups = {}
        for r in rows:
            groups.setdefault(int(r[0]), []).append(r[1])
        require(len(groups) == 6, f"{len(groups)} resonance groups, expected 6")
        means = [float(np.mean(v)) for v in groups.values()]
        for target in (9.5e-3, 62.5e-3):
            nearest = min(means, key=lambda m: abs(m - target))
            require(abs(nearest - target) < 1e-3,
                    f"no operating point within 1 mT of {target * 1e3} mT")

    def check_coupling(out):
        rho = read_csv(out / "rho_g.csv")
        require(abs(sum(r[1] for r in rho) - 1.0) < 1e-9, "rho(g) weights do not sum to 1")
        require(all(r[0] > 0 for r in rho), "rho(g) has non-positive couplings")
        require(len(read_csv(out / "fieldmap.csv")) > 0, "empty field map")

    def check_polarization(out):
        t, dn, approx, p_half = np.array(read_csv(out / "polarization.csv")).T
        require(t.size == 50, f"polarization.csv: {t.size} rows")
        require(np.allclose(p_half, np.tanh(H_PLANCK * OMEGA0_HZ / (2 * K_B * t)),
                            rtol=1e-12, atol=0) and np.allclose(approx, p_half / 10),
                "spin-1/2 polarization differs from tanh(h f0 / 2 k T)")
        hot = t >= 0.2  # above the low-temperature crossover
        require(np.all(dn > 0) and np.all(np.diff(dn[hot]) < 0),
                "doublet population difference not positive or not falling above 0.2 K")

    def check_thermal(out):
        data = read_json(out / "thermal.json")
        require(all(math.isfinite(v) for v in data.values()), "non-finite thermal value")
        require(data["eta"] > 1, f"cooling factor {data['eta']!r} <= 1")

    def check_param(out, name, want, result="fit_psd.json"):
        fit = read_json(out / result)
        got = fit["parameters"][name]
        require(fit["converged"] and abs(got / want - 1) < FIT_RTOL,
                f"fitted {name} {got!r}, generated {want!r}")

    def check_hot(out):
        check_param(out, "n_twpa", truth["n_twpa"])
        check_param(out, "t_int", truth["t_int_hot"])

    def check_cold(out):
        check_param(out, "alpha", truth["alpha"])
        check_param(out, "t_int", truth["t_int_cold"])

    def check_recovery(out):
        check_param(out, "gamma1", truth["gamma1"], "fit_invrec.json")

    def check_t2(out):
        check_param(out, "t2", truth["t2"], "fit_t2.json")

    def check_snr(out):
        data = read_json(out / "snr.json")
        xs = data["x_star"]
        require(abs(math.exp(xs) - 1 - 2 * xs) < 1e-9, f"x* = {xs!r} misses e^x = 1 + 2x")
        require(close(data["t_opt_s"] * truth["snr_gamma1"], xs, 1e-12), "t_opt != x*/Gamma1")
        peak = max(r[1] for r in read_csv(out / "snr.csv"))
        require(data["peak_snr"] >= peak - 1e-9, "peak SNR below the grid maximum")

    def hot_n_twpa(p):
        return repr(read_json(p / "fit-psd-hot" / "fit_psd.json")["parameters"]["n_twpa"])

    c = ["--config", str(cfg)]
    return Workload(
        config=cfg,
        ops=[
            Op("spectrum", lambda p: ["spectrum"] + c + [
                "--b0-min", repr(b0_min), "--b0-max", repr(b0_min + 0.07),
                "--b0-step", repr(b0_step)], check_spectrum, "spectrum_s"),
            Op("coupling", lambda p: ["coupling"] + c + ["--b0", repr(b0_coupling)],
               check_coupling, "coupling_s"),
            Op("polarization", lambda p: ["polarization"] + c + [
                "--b0", "0.0625", "--t-min", repr(t_min)], check_polarization),
            Op("thermal", lambda p: ["thermal"] + c, check_thermal),
            Op("fit-psd-hot", lambda p: ["fit-psd"] + c + [
                "--data", str(hot_csv), "--branch", "hot"], check_hot, "fit_s"),
            Op("fit-psd-cold", lambda p: ["fit-psd"] + c + [
                "--data", str(cold_csv), "--branch", "cold", "--n-twpa", hot_n_twpa(p)],
               check_cold, "fit_s"),
            Op("fit-invrec", lambda p: ["fit-invrec", "--data", str(rec_csv)],
               check_recovery, "fit_s"),
            Op("fit-t2", lambda p: ["fit-t2", "--data", str(t2_csv)], check_t2, "fit_s"),
            Op("snr", lambda p: ["snr", "--gamma1", repr(truth["snr_gamma1"])], check_snr),
        ],
        inputs={"b0_min": b0_min, "b0_coupling": b0_coupling, "t_min": t_min, **truth},
    )


WORKLOADS = {
    "echo-wide": echo_wide,
    "sweep-narrow": sweep_narrow,
    "levels-fit": levels_fit,
}
