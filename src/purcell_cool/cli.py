"""Command-line front end.

Every subcommand reads one YAML config and writes CSV/JSON artifacts plus
a run manifest into --out. Every output is a pure function of (config,
flags): rerunning with identical inputs reproduces every output byte for
byte. The seed (the config's, or --seed) is recorded in the manifest and
changes no other output.
Exit codes: 0 ok, 2 config/usage, 3 solver or fit convergence, 4 I/O.
The CLI loads `config` and the modules whose objects the config builds;
each handler imports the simulator, the fitters or the polarization model
where it runs them, so a subcommand loads only what it uses.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import coupling, hamiltonian, thermal
from .config import FIELDS, MAX_POINTS, field_error, parse_config
from .errors import NoConvergence, SchemaError


FLOAT = "%.17g"  # _write_csv's float format, which round-trips every bit
BLOCK_ROWS = 2048  # rows that _write_csv formats and writes at a time


def _format(values):
    """Each entry of a 1-D array as text: floats as FLOAT, all of them in one
    % operation, which is faster than a call per value; anything else as str."""
    if values.dtype.kind == "f":
        texts = (((FLOAT + "\n") * len(values)) % tuple(values.tolist())).split("\n")
        texts.pop()  # the empty text after the last newline
        return texts
    return list(map(str, values.tolist()))


def _texts(values):
    """_format of each entry of a 1-D array, a number formatted once per run
    of equal bits: 0.0 and -0.0 keep their own text, and the run's rows
    share that string."""
    kind = values.dtype.kind
    if kind not in "biuf":
        return _format(values)
    if kind == "f":
        values = values.astype(float, copy=False)
    bits = values.view(f"u{values.itemsize}")
    firsts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if len(firsts) == len(values):  # no runs
        return _format(values)
    texts = np.array(_format(values[firsts]), dtype=object)
    return np.repeat(texts, np.diff(firsts, append=len(values))).tolist()


def _write_output(directory, digests, name, texts):
    """The one opener of a run's outputs: writes the texts to directory / name
    as UTF-8 and records the SHA-256 of the same bytes as digests[name]. What
    is there already is unlinked, not truncated or written through."""
    (directory / name).unlink(missing_ok=True)
    digest = hashlib.sha256()
    with open(directory / name, "wb") as fh:
        for text in texts:
            data = text.encode()
            digest.update(data)
            fh.write(data)
    digests[name] = digest.hexdigest()


def _write_csv(write, name, header, *columns):
    """One row per entry of the columns, which must be equally long: floats
    as FLOAT, which round-trips every bit, anything else as str. The rows
    are formatted and written BLOCK_ROWS at a time, so a large table's text
    is never held whole, and a column object given twice is formatted
    once."""
    slot = {}  # id of each distinct column -> its place in arrays
    places = [slot.setdefault(id(col), len(slot)) for col in columns]
    arrays = [np.asarray(col) for col in {id(col): col for col in columns}.values()]
    lengths = sorted({len(a) for a in arrays})
    if len(lengths) > 1:
        raise ValueError(f"{name}: columns of unequal lengths {lengths}")

    def blocks():
        yield ",".join(header) + "\n"
        for start in range(0, lengths[0] if lengths else 0, BLOCK_ROWS):
            texts = [_texts(a[start : start + BLOCK_ROWS]) for a in arrays]
            yield "\n".join(map(",".join, zip(*(texts[p] for p in places))))
            yield "\n"

    write(name, blocks())


def _write_json(write, name, obj):
    """Standard JSON: a nan or an infinity raises ValueError before the file
    is opened."""
    write(name, [json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"])


def _read_xy_csv(path):
    """(x, y) pairs from the first two columns of a CSV. The first line may
    be a header; every later line must hold two finite numbers, or a
    ValueError names the file and the line. Blank lines are skipped, and so
    is a UTF-8 byte order mark."""
    rows = []
    header_allowed = True
    with open(path, "r", encoding="utf-8-sig") as fh:
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

# What a flag accepts, as a config field's (kind, bound); a flag that sets a
# config field passes that field's FIELDS entry. _KINDS: how each kind reads
# a flag's text, and the kind's name (an int past float range is not finite).
POSITIVE = ("number", (">", 0))
NONNEGATIVE = ("number", (">=", 0))
COUNT = ("integer", (">=", 1, "<=", MAX_POINTS))
_KINDS = {"number": (float, "a finite number"), "integer": (int, "a finite integer"),
          "numbers": (lambda text: [float(v) for v in text.split(",")],
                      f"a comma-separated list of at most {MAX_POINTS} finite numbers")}


def _check(flag, rule, text):
    """The argparse type of a flag: text read as its rule's kind, or kept for
    a tuple of strings, then checked by config.field_error."""
    kind, bound = rule[:2]
    read, noun = _KINDS[kind.rstrip("?")] if isinstance(kind, str) else (str, f"one of {[*kind]}")
    try:
        value = read(text)
    except ValueError:
        value = None
    if value is None or field_error(value, kind, bound, ()) is not None:
        limits = " and".join(f" {op} {limit}" for op, limit in zip(bound[::2], bound[1::2]))
        raise argparse.ArgumentTypeError(f"{flag} must be {noun}{limits}, got {text!r}")
    return value


def _flag(parser, name, rule, default=None, **kwargs):
    parser.add_argument(name, type=functools.partial(_check, name, rule), default=default,
                        **kwargs)


# ---------------------------------------------------------------- ensembles


def _resonant_pair(cfg, b0):
    """Quasi-degenerate transition doublet at field b0."""
    from . import polarization
    levels = hamiltonian.labeled_eigensystem(cfg.spin_system, b0)
    transitions = hamiltonian.transition_table(cfg.spin_system, b0)
    window = cfg.raw["ensemble"]["pair_window_hz"]
    pair = polarization.find_quasi_degenerate_pair(transitions, cfg.resonator.omega0,
                                                   window=window)
    return levels, pair


def _coupling_density(cfg, b0):
    """rho(g) from the wire field and the doublet matrix elements at b0."""
    ens = cfg.raw["ensemble"]
    if ens["g_hz"] is not None:
        return coupling.CouplingDistribution.delta(ens["g_hz"]), None
    gr = cfg.raw["grid"]
    current = coupling.vacuum_current(cfg.resonator)
    field = coupling.field_map(
        cfg.geometry, current, (gr["x_min_m"], gr["x_max_m"]), (gr["y_min_m"], gr["y_max_m"]),
        gr["nx"], gr["ny"],
    )
    _, pair = _resonant_pair(cfg, b0)
    gamma_e = cfg.spin_system.gamma_e
    maps = [coupling.coupling_map(field, t.sx_element, gamma_e=gamma_e) for t in pair]
    rho = coupling.coupling_distribution(maps, field, cfg.raw["implantation"]["cutoff_depth_m"])
    return rho, field


def _sequence_setup(cfg, args):
    """What echo, invrec, rabi and cpmg share: the ensemble at --b0 as the
    keyword arguments of run_sequence and run_sweep, whose own defaults set
    the solver's tolerances, the pi amplitude, tau in seconds, and the pulse
    widths as the keyword arguments of the sequence builders."""
    from . import blochsim
    ens, seq = cfg.raw["ensemble"], cfg.raw["sequence"]
    try:  # refused before the field map is built
        blochsim.sample_comb(seq["acquire_width_s"], seq["sample_dt_s"])
    except ValueError as exc:
        raise ValueError(f"sequence.acquire_width_s, sequence.sample_dt_s: {exc}") from None
    res = cfg.resonator
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


def cmd_spectrum(cfg, args, write):
    omega0 = cfg.resonator.omega0 if args.omega0 is None else args.omega0
    steps = (args.b0_max - args.b0_min) / args.b0_step
    if not 0 <= steps <= MAX_POINTS - 1:
        raise ValueError(f"--b0-min to --b0-max must span 0 to {MAX_POINTS - 1} steps "
                         f"of --b0-step, got {steps:.3g}")
    grid = np.linspace(args.b0_min, args.b0_max, int(round(steps)) + 1)
    spec = hamiltonian.spectrum_vs_field(cfg.spin_system, grid, omega0)
    _write_csv(
        write, "spectrum.csv",
        ["b0_T", "lowerF", "lowerM", "upperF", "upperM", "freq_Hz", "sx", "sy"],
        spec.b0, *spec.lower.T, *spec.upper.T, spec.frequency,
        spec.sx_element, spec.sx_element,  # |S_y| = |S_x| on every listed transition
    )
    rows = [(gi, r.b0, *r.lower, *r.upper)
            for gi, group in enumerate(hamiltonian.resonance_groups(spec.resonances))
            for r in group]
    _write_csv(write, "resonances.csv",
               ["group", "b0_T", "lowerF", "lowerM", "upperF", "upperM"], *zip(*rows))


def cmd_thermal(cfg, args, write):
    res, scen = cfg.resonator, cfg.scenario
    spins = cfg.raw["spins"]
    gamma_phon, gamma_phot = spins["gamma_phon_hz"], spins["gamma_phot_hz"]
    n_phot = thermal.cavity_occupation(res, scen)
    gamma1 = thermal.spin_relaxation_rate(gamma_phon, scen.t_phon, gamma_phot, n_phot,
                                          res.omega0)
    values = {
        "n_phot": n_phot,
        "t_phot_k": thermal.occupation_temperature(n_phot, res.omega0),
        "t_spin_k": thermal.spin_temperature(gamma_phon, gamma_phot, gamma1, res.omega0),
        "gamma1_hz": gamma1,
    }
    overflowing = [name for name, v in values.items() if not math.isfinite(v)]
    if overflowing:
        raise ValueError(f"thermal: {', '.join(overflowing)} overflow to a non-finite value")
    # cooling_factor refuses a Gamma_1 that is 0 or not finite
    values["eta"] = thermal.cooling_factor(res, cfg.scenarios["hot"], cfg.scenarios["cold"],
                                           gamma_phon, gamma_phot)
    _write_json(write, "thermal.json", values)


def cmd_polarization(cfg, args, write):
    from . import polarization
    omega0 = cfg.resonator.omega0
    levels, pair = _resonant_pair(cfg, args.b0)
    ts = np.linspace(args.t_min, args.t_max, args.points)
    _write_csv(write, "polarization.csv", ["T_K", "dn_exact", "dn_approx", "p_spin_half"],
               ts,
               [polarization.population_difference(levels, pair, t) for t in ts.tolist()],
               polarization.approx_population_difference(ts, omega0),
               thermal.spin_polarization(ts, omega0))


def cmd_coupling(cfg, args, write):
    rho, field = _coupling_density(cfg, args.b0)
    if field is not None:
        # each axis value formatted once, then laid out row-major like bx and by;
        # object arrays repeat references to those strings, not copies of them
        x, y = (np.array([FLOAT % v for v in axis.tolist()], dtype=object)
                for axis in (field.x, field.y))
        _write_csv(write, "fieldmap.csv", ["x_m", "y_m", "bx_T", "by_T"],
                   np.tile(x, len(y)), np.repeat(y, len(x)), field.bx.ravel(), field.by.ravel())
    centers = 0.5 * (rho.bin_edges[:-1] + rho.bin_edges[1:])
    _write_csv(write, "rho_g.csv", ["g_hz", "weight"], centers, rho.weights)


def _trace_csvs(write, name, traces):
    """Each trace as the CSV name.format(k), k its index."""
    for k, tr in enumerate(traces):
        _write_csv(write, name.format(k), ["t_s", "re", "im"], tr.t, tr.amp.real, tr.amp.imag)


def cmd_echo(cfg, args, write):
    from . import blochsim
    ensemble, amp, tau, widths = _sequence_setup(cfg, args)
    traces, areas = blochsim.run_sequence(blochsim.hahn_echo(tau, amp, **widths), **ensemble)
    _trace_csvs(write, "echo_{}.csv", traces[:1])
    _write_csv(write, "summary.csv", ["param", "A_e"], [tau * 1e6], areas[:1])


def cmd_invrec(cfg, args, write):
    from . import blochsim
    ensemble, amp, tau, widths = _sequence_setup(cfg, args)
    dts = args.dt_list_s or cfg.raw["sequence"]["dt_list_s"]
    if dts is None:
        g1 = float(np.median(ensemble["groups"].gamma1))
        if not g1 > 0:
            raise ValueError("the median Purcell rate is 0, so no default recovery delays: "
                             "give them with --dt-list-s or sequence.dt_list_s")
        dts = [x / g1 for x in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0)]
    dts = [float(dt) for dt in dts]
    seqs = [blochsim.inversion_recovery(dt, tau, amp, **widths) for dt in dts]
    traces = [runs[0] for runs in blochsim.run_sweep(seqs, **ensemble)]
    # one shared phase reference (longest delay is closest to equilibrium)
    areas = blochsim.phase_aligned_areas(traces, ref_index=int(np.argmax(dts)))
    _trace_csvs(write, "invrec_{:02d}.csv", traces)
    _write_csv(write, "invrec.csv", ["dt_s", "A_e"], dts, areas)


def cmd_rabi(cfg, args, write):
    from . import blochsim
    ensemble, amp, tau, widths = _sequence_setup(cfg, args)
    amps = args.amp_list or [float(s) * amp for s in np.linspace(0.1, 3.0, args.amp_points)]
    seqs = [blochsim.hahn_echo(tau, a, **widths) for a in amps]
    traces = [runs[0] for runs in blochsim.run_sweep(seqs, **ensemble)]
    areas = blochsim.phase_aligned_areas(traces)
    _write_csv(write, "rabi.csv", ["amp", "A_e"], amps, areas)


def cmd_cpmg(cfg, args, write):
    from . import blochsim
    ensemble, amp, tau, widths = _sequence_setup(cfg, args)
    n = cfg.raw["sequence"]["n_cpmg"] if args.n_cpmg is None else args.n_cpmg
    traces, areas = blochsim.run_sequence(blochsim.cpmg(n, tau, amp, **widths), **ensemble)
    _trace_csvs(write, "cpmg_{:02d}.csv", traces)
    _write_csv(write, "cpmg.csv", ["echo_index", "A_e"], range(len(areas)), areas)


def _fit_json(write, args, result):
    """Write a fit's result as the subcommand's JSON; an undetermined
    parameter's standard error is null."""
    _write_json(write, args.subcommand.replace("-", "_") + ".json", dataclasses.asdict(result))


def cmd_fit(cfg, args, write):
    """fit-invrec and fit-t2: the subcommand's curve fit to --data."""
    from . import estimators
    _fit_json(write, args, getattr(estimators, args.fit)(_read_xy_csv(args.data)))


def cmd_fit_psd(cfg, args, write):
    from . import estimators
    data = _read_xy_csv(args.data)
    branch = cfg.scenario.config if args.branch is None else args.branch
    fixed = {"resonator": cfg.resonator, "t_phon": cfg.scenario.t_phon}
    if args.n_twpa is not None:  # a cold fit without it is refused by fit_psd
        fixed["n_twpa"] = args.n_twpa
    _fit_json(write, args, estimators.fit_psd(data, fixed, branch))


def cmd_snr(cfg, args, write):
    from . import estimators
    gamma1, p, sigma = args.gamma1, args.p, args.sigma
    t_lo = 0.01 / gamma1 if args.trep_min is None else args.trep_min
    t_hi = 10.0 / gamma1 if args.trep_max is None else args.trep_max
    # each flag is in range alone, but together they may overflow
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ts = np.geomspace(t_lo, t_hi, args.trep_points)
        t_opt = estimators.optimal_trep(gamma1)
        snr = peak = math.nan  # the model refuses an overflowed repetition time
        if np.isfinite(ts).all() and math.isfinite(t_opt):
            snr = estimators.snr_model(ts, gamma1, p, sigma)
            peak = estimators.snr_model(t_opt, gamma1, p, sigma)
    if not (np.isfinite(snr).all() and math.isfinite(peak)):
        raise ValueError("--gamma1, --p, --sigma and the --trep range overflow to a "
                         "non-finite repetition time or SNR")
    _write_csv(write, "snr.csv", ["t_rep_s", "snr"], ts, snr)
    _write_json(write, "snr.json", {
        "t_opt_s": t_opt,
        "x_star": estimators.snr_argmax_x(),
        "peak_snr": peak,
    })


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
        _flag(p, "--seed", FIELDS["seed"], help="override config seed")
        return p

    p = command("spectrum", cmd_spectrum, "transition frequencies vs field")
    _flag(p, "--b0-min", NONNEGATIVE, 0.0)
    _flag(p, "--b0-max", NONNEGATIVE, 0.07)
    _flag(p, "--b0-step", POSITIVE, 0.5e-3)
    _flag(p, "--omega0", FIELDS["resonator"]["omega0_hz"])

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
        _flag(p, "--tau-us", FIELDS["sequence"]["tau_us"])
    _flag(seq["invrec"], "--dt-list-s", FIELDS["sequence"]["dt_list_s"],
          help="comma-separated recovery delays in seconds")
    _flag(seq["rabi"], "--amp-list", ("numbers", ()))
    _flag(seq["rabi"], "--amp-points", COUNT, 25)
    _flag(seq["cpmg"], "--n-cpmg", FIELDS["sequence"]["n_cpmg"])

    p = command("fit-invrec", cmd_fit, "fit exponential recovery to CSV data", False)
    p.set_defaults(fit="fit_exponential_recovery")
    p.add_argument("--data", required=True)

    p = command("fit-t2", cmd_fit, "fit Gaussian decay to CSV data", False)
    p.set_defaults(fit="fit_gaussian_decay")
    p.add_argument("--data", required=True,
                   help="CSV of (total evolution time 2*tau in s, echo area)")

    p = command("fit-psd", cmd_fit_psd, "fit noise spectral density")
    p.add_argument("--data", required=True)
    _flag(p, "--branch", FIELDS["scenario"]["config"])
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
    usage = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version and usage errors
        # a usage error is its last line, one line as every other rejection
        lines = usage.getvalue().splitlines()
        if lines:
            print(lines[-1], file=sys.stderr)
        return exc.code

    cfg = parse_config(args.config) if args.config else None
    seed = args.seed if args.seed is not None else (cfg.seed if cfg else 0)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = {}  # name -> SHA-256 of each file the handler writes
    write = functools.partial(_write_output, outdir, outputs)
    t0 = time.monotonic()
    args.handler(cfg, args, write)
    manifest = {
        "tool": "purcell-cool",
        "version": __version__,
        "subcommand": args.subcommand,
        "config_sha256": cfg.sha256 if cfg else None,
        "seed": seed,
        "wall_seconds": round(time.monotonic() - t0, 3),
        "outputs": dict(outputs),  # taken before manifest.json itself is written
    }
    _write_json(write, "manifest.json", manifest)
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
