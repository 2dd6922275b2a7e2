"""Command-line front end.

Every subcommand reads one YAML config, writes CSV/JSON artifacts plus a
run manifest into --out, and is a pure function of (config, flags, seed):
rerunning with identical inputs reproduces every output byte for byte.
Exit codes: 0 ok, 2 config/usage, 3 solver or fit convergence, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import blochsim, coupling, estimators, hamiltonian, polarization, thermal
from .config import MAX_POINTS, parse_config
from .errors import NoConvergence, SchemaError


def _write_csv(path, header, *columns):
    """One row per entry of the columns, through one line template taken
    from the first row: floats as %.17g, which round-trips every bit,
    anything else as %s."""
    rows = list(zip(*(np.asarray(col).tolist() for col in columns)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
            fh.writelines(line % row for row in rows)


def _write_json(path, obj):
    """Standard JSON: a nan or an infinity raises ValueError before the file
    is opened."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _read_xy_csv(path):
    """(x, y) pairs from the first two columns of a CSV. The first line may
    be a header; every later line must hold two finite numbers, or a
    ValueError names the file and the line. Blank lines are skipped."""
    rows = []
    header_allowed = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                x, y = (float(v) for v in line.split(",")[:2])
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise ValueError(f"{path}:{lineno}: not two numbers: {line.strip()!r}") from None
            header_allowed = False
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{lineno}: numbers must be finite: {line.strip()!r}")
            rows.append((x, y))
    return rows


# ------------------------------------------------------------ flag checks

# What a numeric flag accepts: (conversion, condition, what it must be).
POSITIVE = (float, lambda v: math.isfinite(v) and v > 0, "positive and finite")
NONNEGATIVE = (float, lambda v: math.isfinite(v) and v >= 0, "nonnegative and finite")
COUNT = (int, lambda v: 0 < v <= MAX_POINTS, f"an integer between 1 and {MAX_POINTS}")
SEED = (int, lambda v: v >= 0, "a nonnegative integer")


def _numbers(ok, what):
    """A comma-separated list of at most MAX_POINTS numbers that each meet ok."""
    return (lambda text: [float(v) for v in text.split(",")],
            lambda values: len(values) <= MAX_POINTS and all(map(ok, values)),
            f"a comma-separated list of at most {MAX_POINTS} {what}")


DELAYS = _numbers(POSITIVE[1], "positive, finite delays")
AMPLITUDES = _numbers(math.isfinite, "finite amplitudes")


def _check(flag, check, text):
    """The argparse type of a numeric flag: text converted and checked."""
    convert, ok, wording = check
    try:
        value = convert(text)
    except ValueError:
        value = None
    if value is None or not ok(value):
        raise argparse.ArgumentTypeError(f"{flag} must be {wording}, got {text!r}")
    return value


def _flag(parser, name, check, default=None, **kwargs):
    parser.add_argument(name, type=functools.partial(_check, name, check), default=default,
                        **kwargs)


# ---------------------------------------------------------------- ensembles


def _resonant_pair(cfg, b0):
    """Quasi-degenerate transition doublet at field b0."""
    params = cfg.spin_params()
    res = cfg.resonator_params()
    levels, vecs = hamiltonian.labeled_eigensystem(params, b0)
    transitions = hamiltonian.transition_table(levels, vecs)
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


def _sequence_setup(cfg, args):
    """What echo, invrec, rabi and cpmg share: the ensemble at --b0 as the
    keyword arguments of run_sequence and run_sweep, the pi amplitude, tau
    in seconds, and the pulse widths as the keyword arguments of the
    sequence builders."""
    ens, seq = cfg.raw["ensemble"], cfg.raw["sequence"]
    res = cfg.resonator_params()
    rho, _ = _coupling_density(cfg, args.b0)
    groups = blochsim.init_ensemble(
        rho, res, ens["spin_temp_k"], ens["t2_s"],
        freq_width=ens["freq_width_hz"], n_g=ens["n_g"], n_delta=ens["n_delta"],
    )
    widths = {"pi_duration": seq["pi_ns"] * 1e-9, "acquire_width": seq["acquire_width_s"]}
    amp = seq["amp"]
    if amp is None:
        amp = blochsim.pi_pulse_amplitude(float(rho.quantile(0.5)), res, widths["pi_duration"])
    tau = (seq["tau_us"] if args.tau_us is None else args.tau_us) * 1e-6
    ensemble = {"groups": groups, "res": res, "sample_dt": seq["sample_dt_s"]}
    return ensemble, amp, tau, widths


# -------------------------------------------------------------- subcommands


def cmd_spectrum(cfg, args, outdir):
    params = cfg.spin_params()
    omega0 = cfg.resonator_params().omega0 if args.omega0 is None else args.omega0
    steps = (args.b0_max - args.b0_min) / args.b0_step
    if not 0 <= steps <= MAX_POINTS - 1:
        raise ValueError(f"--b0-min to --b0-max must span 0 to {MAX_POINTS - 1} steps "
                         f"of --b0-step, got {steps:.3g}")
    grid = np.linspace(args.b0_min, args.b0_max, int(round(steps)) + 1)
    spec = hamiltonian.spectrum_vs_field(params, grid, omega0)
    _write_csv(
        outdir / "spectrum.csv",
        ["b0_T", "lowerF", "lowerM", "upperF", "upperM", "freq_Hz", "sx", "sy"],
        spec.b0, *spec.lower.T, *spec.upper.T, spec.frequency,
        spec.sx_element, spec.sx_element,  # |S_y| = |S_x| on every listed transition
    )
    rows = [(gi, r.b0, *r.lower, *r.upper)
            for gi, group in enumerate(hamiltonian.resonance_groups(spec.resonances))
            for r in sorted(group, key=lambda r: r.b0)]
    _write_csv(outdir / "resonances.csv",
               ["group", "b0_T", "lowerF", "lowerM", "upperF", "upperM"], *zip(*rows))
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
    omega0 = cfg.resonator_params().omega0
    levels, pair = _resonant_pair(cfg, args.b0)
    ts = np.linspace(args.t_min, args.t_max, args.points).tolist()
    _write_csv(outdir / "polarization.csv", ["T_K", "dn_exact", "dn_approx", "p_spin_half"],
               ts,
               [polarization.population_difference(levels, pair, t) for t in ts],
               [polarization.approx_population_difference(t, omega0) for t in ts],
               [thermal.spin_polarization(t, omega0) for t in ts])
    return ["polarization.csv"]


def cmd_coupling(cfg, args, outdir):
    rho, field = _coupling_density(cfg, args.b0)
    outputs = []
    if field is not None:
        x, y = np.meshgrid(field.x, field.y)
        _write_csv(outdir / "fieldmap.csv", ["x_m", "y_m", "bx_T", "by_T"],
                   *(a.ravel() for a in (x, y, field.bx, field.by)))
        outputs.append("fieldmap.csv")
    centers = 0.5 * (rho.bin_edges[:-1] + rho.bin_edges[1:])
    _write_csv(outdir / "rho_g.csv", ["g_hz", "weight"], centers, rho.weights)
    outputs.append("rho_g.csv")
    return outputs


def _trace_csv(outdir, name, trace):
    _write_csv(outdir / name, ["t_s", "re", "im"], trace.t, trace.amp.real, trace.amp.imag)
    return name


def cmd_echo(cfg, args, outdir):
    ensemble, amp, tau, widths = _sequence_setup(cfg, args)
    traces, areas = blochsim.run_sequence(blochsim.hahn_echo(tau, amp, **widths), **ensemble)
    _write_csv(outdir / "summary.csv", ["param", "A_e"], [tau * 1e6], areas[:1])
    return [_trace_csv(outdir, "echo_0.csv", traces[0]), "summary.csv"]


def cmd_invrec(cfg, args, outdir):
    ensemble, amp, tau, widths = _sequence_setup(cfg, args)
    dts = args.dt_list_s or cfg.raw["sequence"]["dt_list_s"]
    if dts is None:
        g1 = float(np.median(ensemble["groups"].gamma1))
        dts = [x / g1 for x in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0)]
    dts = [float(dt) for dt in dts]
    seqs = [blochsim.inversion_recovery(dt, tau, amp, **widths) for dt in dts]
    traces = [runs[0] for runs in blochsim.run_sweep(seqs, **ensemble)]
    # one shared phase reference (longest delay is closest to equilibrium)
    areas = blochsim.phase_aligned_areas(traces, ref_index=int(np.argmax(dts)))
    outputs = [_trace_csv(outdir, f"invrec_{k:02d}.csv", tr) for k, tr in enumerate(traces)]
    _write_csv(outdir / "invrec.csv", ["dt_s", "A_e"], dts, areas)
    return outputs + ["invrec.csv"]


def cmd_rabi(cfg, args, outdir):
    ensemble, amp, tau, widths = _sequence_setup(cfg, args)
    amps = args.amp_list or [float(s) * amp for s in np.linspace(0.1, 3.0, args.amp_points)]
    seqs = [blochsim.hahn_echo(tau, a, **widths) for a in amps]
    traces = [runs[0] for runs in blochsim.run_sweep(seqs, **ensemble)]
    areas = blochsim.phase_aligned_areas(traces)
    _write_csv(outdir / "rabi.csv", ["amp", "A_e"], amps, areas)
    return ["rabi.csv"]


def cmd_cpmg(cfg, args, outdir):
    ensemble, amp, tau, widths = _sequence_setup(cfg, args)
    n = cfg.raw["sequence"]["n_cpmg"] if args.n_cpmg is None else args.n_cpmg
    traces, areas = blochsim.run_sequence(blochsim.cpmg(n, tau, amp, **widths), **ensemble)
    outputs = [_trace_csv(outdir, f"cpmg_{k:02d}.csv", tr) for k, tr in enumerate(traces)]
    _write_csv(outdir / "cpmg.csv", ["echo_index", "A_e"], range(len(areas)), areas)
    return outputs + ["cpmg.csv"]


def _fit_json(outdir, args, fit, *inputs):
    """Run fit(*inputs) and write its result. Finite data can still
    overflow in the fit's sums of squares, and such a result is refused."""
    with np.errstate(all="ignore"):
        result = fit(*inputs)
    numbers = [*result.parameters.values(), *result.std_errors.values(), result.residual_norm]
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"{args.subcommand}: the fit to {args.data} overflows to a "
                         "non-finite result")
    name = args.subcommand.replace("-", "_") + ".json"
    _write_json(outdir / name, dataclasses.asdict(result))
    return [name]


def cmd_fit(cfg, args, outdir):
    """fit-invrec and fit-t2: the subcommand's curve fit to --data."""
    return _fit_json(outdir, args, getattr(estimators, args.fit), _read_xy_csv(args.data))


def cmd_fit_psd(cfg, args, outdir):
    data = _read_xy_csv(args.data)
    scen = cfg.load_scenario()
    branch = scen.config if args.branch is None else args.branch
    fixed = {"resonator": cfg.resonator_params(), "t_phon": scen.t_phon}
    if args.n_twpa is not None:
        fixed["n_twpa"] = args.n_twpa
    elif branch == "cold":
        raise ValueError("cold PSD fit needs --n-twpa from the hot-stage fit")
    return _fit_json(outdir, args, estimators.fit_psd, data, fixed, branch)


def cmd_snr(cfg, args, outdir):
    gamma1, p, sigma = args.gamma1, args.p, args.sigma
    t_lo = 0.01 / gamma1 if args.trep_min is None else args.trep_min
    t_hi = 10.0 / gamma1 if args.trep_max is None else args.trep_max
    # each flag is in range alone, but together they may overflow
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ts = np.geomspace(t_lo, t_hi, args.trep_points)
        snr = estimators.snr_model(ts, gamma1, p, sigma)
        t_opt = estimators.optimal_trep(gamma1)
        peak = estimators.snr_model(t_opt, gamma1, p, sigma)
    if not (np.isfinite(ts).all() and np.isfinite(snr).all()
            and math.isfinite(t_opt) and math.isfinite(peak)):
        raise ValueError("--gamma1, --p, --sigma and the --trep range overflow to a "
                         "non-finite repetition time or SNR")
    _write_csv(outdir / "snr.csv", ["t_rep_s", "snr"], ts, snr)
    _write_json(outdir / "snr.json", {
        "t_opt_s": t_opt,
        "x_star": estimators.snr_argmax_x(),
        "peak_snr": peak,
    })
    return ["snr.csv", "snr.json"]


class _Parser(argparse.ArgumentParser):
    """Reads every negative number, "-1e-3", "-inf" and "-nan" included, as
    a flag's value: argparse's own pattern takes only "-1" and "-0.5", and
    reads the rest as an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


@functools.cache
def build_parser():
    """The parser, built once per process: building it takes about 2.7 ms,
    more than a curve fit's own work. Fitters are set by name and looked
    up when they run, so a wrapper installed after the first call, such as
    perfbench's tracer, is still the one called."""
    parser = _Parser(
        prog="purcell-cool",
        description="Radiative spin-cooling simulator and estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"purcell-cool {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=needs_config, help="YAML config file")
        p.add_argument("--out", required=True, help="output directory")
        _flag(p, "--seed", SEED, help="override config seed")
        return p

    p = command("spectrum", cmd_spectrum, "transition frequencies vs field")
    _flag(p, "--b0-min", NONNEGATIVE, 0.0)
    _flag(p, "--b0-max", NONNEGATIVE, 0.07)
    _flag(p, "--b0-step", POSITIVE, 0.5e-3)
    _flag(p, "--omega0", POSITIVE)

    command("thermal", cmd_thermal, "occupations, rates, cooling factor")

    p = command("polarization", cmd_polarization, "population difference vs temperature")
    _flag(p, "--b0", NONNEGATIVE, 62.5e-3)
    _flag(p, "--t-min", NONNEGATIVE, 0.03)
    _flag(p, "--t-max", NONNEGATIVE, 1.0)
    _flag(p, "--points", COUNT, 50)

    p = command("coupling", cmd_coupling, "wire field map and rho(g)")
    _flag(p, "--b0", NONNEGATIVE, 62.5e-3)

    seq = {}
    for name, handler, help_text in (
        ("echo", cmd_echo, "single Hahn echo"),
        ("invrec", cmd_invrec, "inversion recovery sweep"),
        ("rabi", cmd_rabi, "echo area vs pulse amplitude"),
        ("cpmg", cmd_cpmg, "multi-echo train"),
    ):
        p = seq[name] = command(name, handler, help_text)
        _flag(p, "--b0", NONNEGATIVE, 62.5e-3)
        _flag(p, "--tau-us", POSITIVE)
    _flag(seq["invrec"], "--dt-list-s", DELAYS,
          help="comma-separated recovery delays in seconds")
    _flag(seq["rabi"], "--amp-list", AMPLITUDES)
    _flag(seq["rabi"], "--amp-points", COUNT, 25)
    _flag(seq["cpmg"], "--n-cpmg", COUNT)

    p = command("fit-invrec", cmd_fit, "fit exponential recovery to CSV data", False)
    p.set_defaults(fit="fit_exponential_recovery")
    p.add_argument("--data", required=True)

    p = command("fit-t2", cmd_fit, "fit Gaussian decay to CSV data", False)
    p.set_defaults(fit="fit_gaussian_decay")
    p.add_argument("--data", required=True,
                   help="CSV of (total evolution time 2*tau in s, echo area)")

    p = command("fit-psd", cmd_fit_psd, "fit noise spectral density")
    p.add_argument("--data", required=True)
    p.add_argument("--branch", choices=["hot", "cold"], default=None)
    _flag(p, "--n-twpa", NONNEGATIVE)

    p = command("snr", cmd_snr, "sensitivity vs repetition time", False)
    _flag(p, "--gamma1", POSITIVE, required=True)
    _flag(p, "--p", POSITIVE, 1.0)
    _flag(p, "--sigma", POSITIVE, 1.0)
    _flag(p, "--trep-min", POSITIVE)
    _flag(p, "--trep-max", POSITIVE)
    _flag(p, "--trep-points", COUNT, 200)
    return parser


def run(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version and usage errors
        return exc.code

    cfg = None
    config_sha = None
    if args.config:
        with open(args.config, "rb") as fh:
            config_sha = hashlib.sha256(fh.read()).hexdigest()
        cfg = parse_config(args.config)
    seed = args.seed if args.seed is not None else (cfg.seed if cfg else 0)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    outputs = args.handler(cfg, args, outdir)
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
    except NoConvergence as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
