"""Config file parsing, validation, and the parameter objects it builds.

One YAML document drives every subcommand. FIELDS declares each field once,
with its kind, bound and default. Unknown keys are rejected so typos fail
loudly, and every section except `resonator` has complete defaults.

The loader is PyYAML's safe loader plus YAML 1.2's exponent floats
(7.408e9, 1e-06); a quoted number is a string. Nothing walks the document
before the field check, which raises SchemaError for the error whose dotted
path sorts first, a non-finite number included. Once every field holds,
the parse builds each section's parameter object, whose own rules span
several fields; every subcommand reads those objects, so every one refuses
the same configs.
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
import reprlib
from dataclasses import dataclass, replace

import yaml

from .coupling import WireGeometry
from .errors import SchemaError
from .hamiltonian import SpinSystemParams
from .thermal import LoadScenario, ResonatorParams

REQUIRED = object()  # the default of a field that must be given

# The most points a grid, a list or an echo train may ask for: a spectrum
# field costs about 7 KB, and a larger request would otherwise run out of
# memory or run for hours instead of failing.
MAX_POINTS = 10_001

# Every config field, once: section -> key -> (kind, bound, default). kind is
# "number", "integer", "half-odd-integer" (n + 1/2 for an integer n),
# "numbers" (a list of 1 to MAX_POINTS numbers) or a tuple of the allowed
# strings; a trailing "?" also allows null. bound holds pairs of comparison
# and limit that a number, or each number of a list, must meet.
# A section with a REQUIRED field must be given; the seed is a top-level field.
FIELDS = {
    "resonator": {
        "omega0_hz": ("number", (">", 0), REQUIRED),
        "kappa_int_hz": ("number", (">=", 0), REQUIRED),
        "kappa_ext_hz": ("number", (">=", 0), REQUIRED),
        "z0_ohm": ("number", (">", 0), 46.0),
    },
    "scenario": {
        "config": (("hot", "cold"), (), "cold"),
        "alpha": ("number", (">=", 0, "<=", 1), 0.47),
        "t_cold_k": ("number", (">=", 0), 0.02),
        "t_phon_k": ("number", (">=", 0), 0.85),
        "t_int_k": ("number", (">=", 0), 0.95),
        "t_int_cold_k": ("number?", (">=", 0), None),
    },
    "spins": {
        "gamma_phon_hz": ("number", (">=", 0), 0.0),
        "gamma_phot_hz": ("number", (">=", 0), 1.0),
    },
    "spin_system": {  # the Si:Bi donor; the sector solution needs S = 1/2
        "gamma_e_hz_per_t": ("number", (">", 0), 27.997e9),
        "gamma_n_hz_per_t": ("number", (), 6.9e6),
        "hyperfine_hz": ("number", (">", 0), 1.475e9),
        "s": ("number", (">=", 0.5, "<=", 0.5), 0.5),
        "i": ("half-odd-integer", (">", 0), 4.5),
    },
    "geometry": {
        "width_m": ("number", (">", 0), 2e-6),
        "thickness_m": ("number", (">", 0), 50e-9),
        "current_model": (("uniform", "edge-peaked"), (), "uniform"),
        "edge_cutoff_m": ("number", (">=", 0), 100e-9),
        "n_filaments": ("integer", (">=", 1), 64),
        "n_layers": ("integer", (">=", 1), 4),
    },
    "grid": {
        "x_min_m": ("number", (), -3e-6),
        "x_max_m": ("number", (), 3e-6),
        "y_min_m": ("number", (), -1.5e-6),
        "y_max_m": ("number", (), -0.05e-6),
        "nx": ("integer", (">=", 2), 121),
        "ny": ("integer", (">=", 2), 59),
    },
    "implantation": {
        "cutoff_depth_m": ("number", (">", 0), 1e-6),
    },
    "ensemble": {
        "n_g": ("integer", (">=", 1), 40),
        "n_delta": ("integer", (">=", 1), 41),
        "freq_width_hz": ("number", (">", 0), 3e6),
        "t2_s": ("number", (">", 0), 600e-6),
        "spin_temp_k": ("number", (">=", 0), 0.85),
        "g_hz": ("number?", (">", 0), None),
        "pair_window_hz": ("number", (">", 0), 5e6),
    },
    "sequence": {
        "tau_us": ("number", (">", 0), 15.0),
        "pi_ns": ("number", (">", 0), 250.0),
        "amp": ("number?", (">", 0), None),
        "dt_list_s": ("numbers?", (">", 0), None),
        "n_cpmg": ("integer", (">=", 1, "<=", MAX_POINTS), 4),
        "sample_dt_s": ("number", (">", 0), 1e-8),
        "acquire_width_s": ("number", (">", 0), 4e-6),
    },
    "seed": ("integer", (">=", 0), 0),
}


def _fill(table, data):
    """data over the table's defaults, integral floats of integer fields as
    int; a REQUIRED field that data lacks is left out."""
    out = {}
    for key, spec in table.items():
        if isinstance(spec, dict):
            out[key] = _fill(spec, data.get(key, {}))
        elif key in data or spec[2] is not REQUIRED:
            value = data.get(key, spec[2])
            out[key] = int(value) if spec[0] == "integer" else value
    return out


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader (YAML 1.1) plus the YAML 1.2 floats that 1.1
    reads as strings: 7.408e9, 1e-06, -.5."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:[0-9]+\.?[0-9]*[eE][-+]?[0-9]+|\.[0-9]+(?:[eE][-+]?[0-9]+)?)$"), "-+.0123456789")


# A number breaks a bound when this comparison with the limit holds. nan
# compares false, so it passes here and the finiteness check names it.
_BREAKS = {">": operator.le, ">=": operator.lt, "<=": operator.gt}

# Shows a value's first items on two levels: aliases can make a repr huge.
_brief = reprlib.Repr()
_brief.maxlevel = 2


def _required(spec):
    if isinstance(spec, dict):
        return any(_required(s) for s in spec.values())
    return spec[2] is REQUIRED


def field_error(value, kind, bound, path):
    """(path, message) of the first way value misses its field, or None. A
    number that is not finite (nan, an infinity or an int past float range)
    fails last, once its type and bound hold."""
    if isinstance(kind, tuple):
        return None if value in kind else (path, f"{_brief.repr(value)} is not one of {[*kind]}")
    if value is None and kind.endswith("?"):
        return None
    kind = kind.rstrip("?")
    if kind == "numbers":
        if not (isinstance(value, list) and value):
            return path, f"{_brief.repr(value)} is not a non-empty list of numbers"
        if len(value) > MAX_POINTS:
            return path, f"holds {len(value)} numbers, more than {MAX_POINTS}"
        errors = (field_error(v, "number", bound, path + (i,)) for i, v in enumerate(value))
        return next(filter(None, errors), None)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind == "integer" and isinstance(value, float) and not value.is_integer()
            or kind == "half-odd-integer" and 2 * value % 2 != 1):
        return path, f"{_brief.repr(value)} is not of type {kind!r}"
    for op, limit in zip(bound[::2], bound[1::2]):
        if _BREAKS[op](value, limit):
            return path, f"{_brief.repr(value)} is not {op} {limit}"
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past float range
        finite = False
    return None if finite else (path, "numbers must be finite")


def _first_error(node, table, path=()):
    """(path, message) of the error in node whose path sorts first, or None.

    A mapping's own errors (not a mapping, an unknown key, a missing
    required key) come before those of its entries, and entries are taken
    in key order."""
    if not isinstance(node, dict):
        return path, f"{_brief.repr(node)} is not a mapping"
    unknown = [key for key in node if key not in table]
    if unknown:
        return path, f"unknown keys {unknown}"
    missing = [key for key, spec in table.items() if key not in node and _required(spec)]
    if missing:
        return path, f"missing required keys {missing}"
    for key in sorted(node):
        spec = table[key]
        found = (_first_error(node[key], spec, path + (key,)) if isinstance(spec, dict)
                 else field_error(node[key], *spec[:2], path + (key,)))
        if found is not None:
            return found
    return None


# The parameter object each section builds, as (section, ExperimentConfig
# field, builder), in section path order. A rule over several fields lives
# in its object, whose ValueError is reported as its section's error.
_OBJECTS = (
    ("geometry", "geometry", lambda g: WireGeometry(
        width=g["width_m"], thickness=g["thickness_m"], current_model=g["current_model"],
        edge_cutoff=g["edge_cutoff_m"], n_filaments=g["n_filaments"], n_layers=g["n_layers"])),
    ("resonator", "resonator", lambda r: ResonatorParams(
        omega0=r["omega0_hz"], kappa_int=r["kappa_int_hz"], kappa_ext=r["kappa_ext_hz"],
        z0=r["z0_ohm"])),
    # the hot and the cold load; in the cold one t_int_cold_k, if given, is t_int
    ("scenario", "scenarios", lambda s: {config: LoadScenario(
        config=config, alpha=s["alpha"], t_cold=s["t_cold_k"], t_phon=s["t_phon_k"],
        t_int=s["t_int_k"] if config == "hot" or s["t_int_cold_k"] is None
        else s["t_int_cold_k"]) for config in ("hot", "cold")}),
    ("spin_system", "spin_system", lambda sp: SpinSystemParams(
        gamma_e=sp["gamma_e_hz_per_t"], gamma_n=sp["gamma_n_hz_per_t"],
        hyperfine_a=sp["hyperfine_hz"], i=sp["i"])),
)


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    geometry: WireGeometry
    resonator: ResonatorParams
    scenarios: dict  # "hot" and "cold" -> LoadScenario
    spin_system: SpinSystemParams
    sha256: str | None = None  # of the file's bytes, when read from a file

    @property
    def scenario(self):
        """The configured load, scenario.config's entry of scenarios."""
        return self.scenarios[self.raw["scenario"]["config"]]

    @property
    def seed(self):
        return self.raw["seed"]


def parse_config_text(text, name="<config>"):
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:  # on one line: the problem and where it was found
        mark = getattr(exc, "problem_mark", None) or getattr(exc, "context_mark", None)
        if mark is None:  # a reader error: its first line names the character
            problem = str(exc).splitlines()[0]
        else:
            problem = (f"{' '.join(str(exc.problem or exc.context).split())} "
                       f"at line {mark.line + 1}, column {mark.column + 1}")
        raise SchemaError(f"{name}: not valid YAML: {problem}") from None
    except ValueError as exc:  # a scalar YAML cannot build, say an over-long integer
        raise SchemaError(f"{name}: a value cannot be read: {exc}") from exc
    except RecursionError:  # nesting past the stack
        raise SchemaError(f"{name}: the document refers to itself or nests too deeply") from None
    # checked before anything walks it: aliases can make it huge
    error = _first_error({} if data is None else data, FIELDS)
    if error is not None:
        path = ".".join(str(p) for p in error[0]) or "<root>"
        raise SchemaError(f"{name}: {path}: {error[1]}")
    raw = _fill(FIELDS, data)
    objects = {}
    for section, field, build in _OBJECTS:
        try:
            objects[field] = build(raw[section])
        except ValueError as exc:
            raise SchemaError(f"{name}: {section}: {exc}") from None
    return ExperimentConfig(raw=raw, **objects)


def parse_config(path):
    """The config in the file at path, with the SHA-256 of the bytes parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    config = parse_config_text(data.decode("utf-8"), name=str(path))
    return replace(config, sha256=hashlib.sha256(data).hexdigest())
