"""Command-line front end.

Every subcommand reads one YAML config, writes CSV/JSON artifacts plus a
run manifest into --out, and is a pure function of (config, flags, seed):
rerunning with identical inputs reproduces every output byte for byte.
Exit codes: 0 ok, 2 config/usage, 3 solver or fit convergence, 4 I/O.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from . import blochsim, coupling, estimators, hamiltonian, polarization, thermal
from .config import parse_config
from .errors import (
    NoConvergence,
    PurcellCoolError,
    SchemaError,
    StepUnderflow,
)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _read_xy_csv(path):
    """Two-column CSV; a non-numeric first row is treated as a header."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) < 2 or not parts[0]:
                continue
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                continue
    return rows


def _fit_result_json(res):
    return {
        "parameters": res.parameters,
        "std_errors": res.std_errors,
        "residual_norm": res.residual_norm,
        "converged": res.converged,
    }


def _positive(value, flag):
    """A numeric flag that must be a positive, finite number."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag} must be positive and finite, got {value!r}")
    return value


# ---------------------------------------------------------------- ensembles


def _resonant_pair(cfg, b0):
    """Quasi-degenerate transition doublet at field b0."""
    params = cfg.spin_params()
    res = cfg.resonator_params()
    levels, vecs = hamiltonian.labeled_eigensystem(params, b0)
    transitions = hamiltonian.transition_table(levels, vecs, params)
    window = cfg.raw["ensemble"]["pair_window_hz"]
    pair = polarization.find_quasi_degenerate_pair(transitions, res.omega0, window=window)
    return levels, pair


def _coupling_density(cfg, b0):
    """rho(g) from the wire field and the doublet matrix elements at b0."""
    ens = cfg.raw["ensemble"]
    if ens["g_hz"] is not None:
        return coupling.CouplingDistribution.delta(ens["g_hz"]), None
    res = cfg.resonator_params()
    geom = cfg.wire_geometry()
    gr = cfg.raw["grid"]
    current = coupling.vacuum_current(res)
    field = coupling.field_map(
        geom, current, (gr["x_min_m"], gr["x_max_m"]), (gr["y_min_m"], gr["y_max_m"]),
        gr["nx"], gr["ny"],
    )
    _, pair = _resonant_pair(cfg, b0)
    gamma_e = cfg.raw["spin_system"]["gamma_e_hz_per_t"]
    maps = [
        (coupling.coupling_map(field, t.sx_element, gamma_e=gamma_e), 0.5) for t in pair
    ]
    rho = coupling.coupling_distribution(maps, field, cfg.implantation_profile())
    return rho, field


def _make_ensemble(cfg, b0):
    ens = cfg.raw["ensemble"]
    res = cfg.resonator_params()
    rho, _ = _coupling_density(cfg, b0)
    groups = blochsim.init_ensemble(
        rho, res, ens["spin_temp_k"], ens["t2_s"],
        freq_width=ens["freq_width_hz"], n_g=ens["n_g"], n_delta=ens["n_delta"],
    )
    seq = cfg.raw["sequence"]
    amp = seq["amp"]
    if amp is None:
        g_ref = float(rho.quantile(0.5))
        amp = blochsim.pi_pulse_amplitude(g_ref, res, seq["pi_ns"] * 1e-9)
    return groups, res, amp


# -------------------------------------------------------------- subcommands


def cmd_spectrum(cfg, args, outdir):
    params = cfg.spin_params()
    omega0 = args.omega0 or cfg.resonator_params().omega0
    n = int(round((args.b0_max - args.b0_min) / _positive(args.b0_step, "--b0-step"))) + 1
    grid = np.linspace(args.b0_min, args.b0_max, n)
    field_spec = hamiltonian.spectrum_vs_field(params, grid, omega0)
    _write_csv(
        outdir / "spectrum.csv",
        ["b0_T", "lowerF", "lowerM", "upperF", "upperM", "freq_Hz", "sx", "sy"],
        [
            (b0, t.lower[0], t.lower[1], t.upper[0], t.upper[1], t.frequency,
             t.sx_element, t.sy_element)
            for b0, t in field_spec.rows
        ],
    )
    rows = []
    for gi, group in enumerate(hamiltonian.resonance_groups(field_spec.resonances)):
        for r in sorted(group, key=lambda r: r.b0):
            rows.append((gi, r.b0, r.lower[0], r.lower[1], r.upper[0], r.upper[1]))
    _write_csv(
        outdir / "resonances.csv",
        ["group", "b0_T", "lowerF", "lowerM", "upperF", "upperM"], rows,
    )
    return ["spectrum.csv", "resonances.csv"]


def cmd_thermal(cfg, args, outdir):
    res = cfg.resonator_params()
    scen = cfg.load_scenario()
    spins = cfg.raw["spins"]
    bath = thermal.BathCoupling(rate=spins["gamma_phon_hz"], temperature=scen.t_phon)
    photon = thermal.cavity_occupation(res, scen)
    gamma1 = thermal.spin_relaxation_rate(bath, spins["gamma_phot_hz"], photon, res.omega0)
    t_spin = thermal.spin_temperature(bath, spins["gamma_phot_hz"], photon, res.omega0)
    cool = thermal.cooling_factor(
        res, cfg.load_scenario("hot"), cfg.load_scenario("cold"),
        bath, spins["gamma_phot_hz"], res.omega0,
    )
    _write_json(outdir / "thermal.json", {
        "n_phot": photon.occupation,
        "t_phot_k": photon.effective_temperature,
        "t_spin_k": t_spin.effective_temperature,
        "gamma1_hz": gamma1,
        "eta": cool.eta,
    })
    return ["thermal.json"]


def cmd_polarization(cfg, args, outdir):
    res = cfg.resonator_params()
    levels, pair = _resonant_pair(cfg, args.b0)
    ts = np.linspace(args.t_min, args.t_max, args.points)
    rows = []
    for t in ts:
        rows.append((
            float(t),
            polarization.population_difference(levels, pair, float(t)),
            polarization.approx_population_difference(float(t), res.omega0),
            thermal.spin_polarization(float(t), res.omega0),
        ))
    _write_csv(outdir / "polarization.csv",
               ["T_K", "dn_exact", "dn_approx", "p_spin_half"], rows)
    return ["polarization.csv"]


def cmd_coupling(cfg, args, outdir):
    rho, field = _coupling_density(cfg, args.b0)
    outputs = []
    if field is not None:
        rows = []
        for iy, y in enumerate(field.y):
            for ix, x in enumerate(field.x):
                rows.append((float(x), float(y), float(field.bx[iy, ix]), float(field.by[iy, ix])))
        _write_csv(outdir / "fieldmap.csv", ["x_m", "y_m", "bx_T", "by_T"], rows)
        outputs.append("fieldmap.csv")
    centers = 0.5 * (rho.bin_edges[:-1] + rho.bin_edges[1:])
    _write_csv(outdir / "rho_g.csv", ["g_hz", "weight"],
               [(float(g), float(w)) for g, w in zip(centers, rho.weights)])
    outputs.append("rho_g.csv")
    return outputs


def _trace_csv(outdir, name, trace):
    _write_csv(outdir / name, ["t_s", "re", "im"],
               [(float(t), float(a.real), float(a.imag))
                for t, a in zip(trace.t, trace.amp)])
    return name


def cmd_echo(cfg, args, outdir):
    groups, res, amp = _make_ensemble(cfg, args.b0)
    seq_cfg = cfg.raw["sequence"]
    tau = (args.tau_us or seq_cfg["tau_us"]) * 1e-6
    seq = blochsim.hahn_echo(tau, amp, pi_duration=seq_cfg["pi_ns"] * 1e-9,
                             acquire_width=seq_cfg["acquire_width_s"])
    traces, areas = blochsim.run_sequence(seq, groups, res,
                                          sample_dt=seq_cfg["sample_dt_s"])
    outputs = [_trace_csv(outdir, "echo_0.csv", traces[0])]
    _write_csv(outdir / "summary.csv", ["param", "A_e"],
               [(tau * 1e6, areas[0])])
    outputs.append("summary.csv")
    return outputs


def _dt_grid(groups, flag_value, cfg_value):
    if flag_value:
        return [float(v) for v in flag_value.split(",")]
    if cfg_value:
        return [float(v) for v in cfg_value]
    g1 = float(np.median(groups.gamma1))
    return [x / g1 for x in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0)]


def cmd_invrec(cfg, args, outdir):
    groups, res, amp = _make_ensemble(cfg, args.b0)
    seq_cfg = cfg.raw["sequence"]
    tau = (args.tau_us or seq_cfg["tau_us"]) * 1e-6
    dts = _dt_grid(groups, args.dt_list_s, seq_cfg["dt_list_s"])
    traces = []
    for dt in dts:
        seq = blochsim.inversion_recovery(dt, tau, amp,
                                          pi_duration=seq_cfg["pi_ns"] * 1e-9,
                                          acquire_width=seq_cfg["acquire_width_s"])
        trs, _ = blochsim.run_sequence(seq, groups, res, sample_dt=seq_cfg["sample_dt_s"])
        traces.append(trs[0])
    # one shared phase reference (longest delay is closest to equilibrium)
    ref = int(np.argmax(dts))
    areas, _ = blochsim.phase_aligned_areas(traces, ref_index=ref)
    outputs = []
    for k, tr in enumerate(traces):
        outputs.append(_trace_csv(outdir, f"invrec_{k:02d}.csv", tr))
    _write_csv(outdir / "invrec.csv", ["dt_s", "A_e"],
               list(zip((float(d) for d in dts), areas)))
    outputs.append("invrec.csv")
    return outputs


def cmd_rabi(cfg, args, outdir):
    groups, res, amp = _make_ensemble(cfg, args.b0)
    seq_cfg = cfg.raw["sequence"]
    tau = (args.tau_us or seq_cfg["tau_us"]) * 1e-6
    if args.amp_list:
        amps = [float(v) for v in args.amp_list.split(",")]
    else:
        amps = [float(s) * amp for s in np.linspace(0.1, 3.0, args.amp_points)]
    traces = []
    for a in amps:
        seq = blochsim.hahn_echo(tau, a, pi_duration=seq_cfg["pi_ns"] * 1e-9,
                                 acquire_width=seq_cfg["acquire_width_s"])
        trs, _ = blochsim.run_sequence(seq, groups, res, sample_dt=seq_cfg["sample_dt_s"])
        traces.append(trs[0])
    areas, _ = blochsim.phase_aligned_areas(traces)
    _write_csv(outdir / "rabi.csv", ["amp", "A_e"],
               list(zip((float(a) for a in amps), areas)))
    return ["rabi.csv"]


def cmd_cpmg(cfg, args, outdir):
    groups, res, amp = _make_ensemble(cfg, args.b0)
    seq_cfg = cfg.raw["sequence"]
    tau = (args.tau_us or seq_cfg["tau_us"]) * 1e-6
    n = args.n_cpmg or seq_cfg["n_cpmg"]
    seq = blochsim.cpmg(n, tau, amp, pi_duration=seq_cfg["pi_ns"] * 1e-9)
    traces, areas = blochsim.run_sequence(seq, groups, res,
                                          sample_dt=seq_cfg["sample_dt_s"])
    outputs = []
    for k, tr in enumerate(traces):
        outputs.append(_trace_csv(outdir, f"cpmg_{k:02d}.csv", tr))
    _write_csv(outdir / "cpmg.csv", ["echo_index", "A_e"],
               [(k, a) for k, a in enumerate(areas)])
    outputs.append("cpmg.csv")
    return outputs


def cmd_fit_invrec(cfg, args, outdir):
    data = _read_xy_csv(args.data)
    res = estimators.fit_exponential_recovery(data)
    _write_json(outdir / "fit_invrec.json", _fit_result_json(res))
    return ["fit_invrec.json"]


def cmd_fit_t2(cfg, args, outdir):
    data = _read_xy_csv(args.data)
    res = estimators.fit_gaussian_decay(data)
    _write_json(outdir / "fit_t2.json", _fit_result_json(res))
    return ["fit_t2.json"]


def cmd_fit_psd(cfg, args, outdir):
    data = _read_xy_csv(args.data)
    scen = cfg.load_scenario()
    branch = args.branch or scen.config
    fixed = {"resonator": cfg.resonator_params(), "t_phon": scen.t_phon}
    if args.n_twpa is not None:
        fixed["n_twpa"] = args.n_twpa
    elif branch == "cold":
        raise ValueError("cold PSD fit needs --n-twpa from the hot-stage fit")
    res = estimators.fit_psd(data, fixed, branch)
    _write_json(outdir / "fit_psd.json", _fit_result_json(res))
    return ["fit_psd.json"]


def cmd_snr(cfg, args, outdir):
    gamma1 = _positive(args.gamma1, "--gamma1")
    t_lo = args.trep_min or 0.01 / gamma1
    t_hi = args.trep_max or 10.0 / gamma1
    ts = np.geomspace(t_lo, t_hi, args.trep_points)
    snr = estimators.snr_model(ts, gamma1, args.p, args.sigma)
    _write_csv(outdir / "snr.csv", ["t_rep_s", "snr"],
               list(zip((float(t) for t in ts), (float(v) for v in snr))))
    t_opt = estimators.optimal_trep(gamma1)
    _write_json(outdir / "snr.json", {
        "t_opt_s": t_opt,
        "x_star": estimators.snr_argmax_x(),
        "peak_snr": estimators.snr_model(t_opt, gamma1, args.p, args.sigma),
    })
    return ["snr.csv", "snr.json"]


_COMMANDS = {
    "spectrum": (cmd_spectrum, True),
    "thermal": (cmd_thermal, True),
    "polarization": (cmd_polarization, True),
    "coupling": (cmd_coupling, True),
    "echo": (cmd_echo, True),
    "invrec": (cmd_invrec, True),
    "rabi": (cmd_rabi, True),
    "cpmg": (cmd_cpmg, True),
    "fit-invrec": (cmd_fit_invrec, False),
    "fit-t2": (cmd_fit_t2, False),
    "fit-psd": (cmd_fit_psd, True),
    "snr": (cmd_snr, False),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="purcell-cool",
        description="Radiative spin-cooling simulator and estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"purcell-cool {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, needs_config):
        p.add_argument("--config", required=needs_config, help="YAML config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("spectrum", help="transition frequencies vs field")
    common(p, True)
    p.add_argument("--b0-min", type=float, default=0.0)
    p.add_argument("--b0-max", type=float, default=0.07)
    p.add_argument("--b0-step", type=float, default=0.5e-3)
    p.add_argument("--omega0", type=float, default=None)

    p = sub.add_parser("thermal", help="occupations, rates, cooling factor")
    common(p, True)

    p = sub.add_parser("polarization", help="population difference vs temperature")
    common(p, True)
    p.add_argument("--b0", type=float, default=62.5e-3)
    p.add_argument("--t-min", type=float, default=0.03)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--points", type=int, default=50)

    p = sub.add_parser("coupling", help="wire field map and rho(g)")
    common(p, True)
    p.add_argument("--b0", type=float, default=62.5e-3)

    for name, help_text in (
        ("echo", "single Hahn echo"),
        ("invrec", "inversion recovery sweep"),
        ("rabi", "echo area vs pulse amplitude"),
        ("cpmg", "multi-echo train"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p, True)
        p.add_argument("--b0", type=float, default=62.5e-3)
        p.add_argument("--tau-us", type=float, default=None)
        if name == "invrec":
            p.add_argument("--dt-list-s", type=str, default=None,
                           help="comma-separated recovery delays in seconds")
        if name == "rabi":
            p.add_argument("--amp-list", type=str, default=None)
            p.add_argument("--amp-points", type=int, default=25)
        if name == "cpmg":
            p.add_argument("--n-cpmg", type=int, default=None)

    p = sub.add_parser("fit-invrec", help="fit exponential recovery to CSV data")
    common(p, False)
    p.add_argument("--data", required=True)

    p = sub.add_parser("fit-t2", help="fit Gaussian decay to CSV data")
    common(p, False)
    p.add_argument("--data", required=True,
                   help="CSV of (total evolution time 2*tau in s, echo area)")

    p = sub.add_parser("fit-psd", help="fit noise spectral density")
    common(p, True)
    p.add_argument("--data", required=True)
    p.add_argument("--branch", choices=["hot", "cold"], default=None)
    p.add_argument("--n-twpa", type=float, default=None)

    p = sub.add_parser("snr", help="sensitivity vs repetition time")
    common(p, False)
    p.add_argument("--gamma1", type=float, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--trep-min", type=float, default=None)
    p.add_argument("--trep-max", type=float, default=None)
    p.add_argument("--trep-points", type=int, default=200)
    return parser


def run(argv):
    from pathlib import Path

    parser = build_parser()
    args = parser.parse_args(argv)
    handler, needs_config = _COMMANDS[args.subcommand]

    cfg = None
    config_sha = None
    if args.config:
        with open(args.config, "rb") as fh:
            config_sha = hashlib.sha256(fh.read()).hexdigest()
        cfg = parse_config(args.config)
    elif needs_config:
        raise SchemaError(f"{args.subcommand} requires --config")
    seed = args.seed if args.seed is not None else (cfg.seed if cfg else 0)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    outputs = handler(cfg, args, outdir)
    manifest = {
        "tool": "purcell-cool",
        "version": __version__,
        "subcommand": args.subcommand,
        "config_sha256": config_sha,
        "seed": seed,
        "wall_seconds": round(time.monotonic() - t0, 3),
        "outputs": {name: _sha256(outdir / name) for name in sorted(outputs)},
    }
    _write_json(outdir / "manifest.json", manifest)
    return 0


def main(argv=None):
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, StepUnderflow) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (PurcellCoolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
