"""Config file parsing, validation, and typed accessors.

One YAML document drives every subcommand. FIELDS declares each field once,
with its kind, bound and default. Unknown keys are rejected so typos fail
loudly, and every section except `resonator` has complete defaults.
Validation errors surface as SchemaError carrying the dotted path of the
offending field.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import yaml

from .coupling import ImplantationProfile, WireGeometry
from .errors import SchemaError
from .hamiltonian import SpinSystemParams
from .thermal import LoadScenario, ResonatorParams

REQUIRED = object()  # the default of a field that must be given

# The most points a grid, a list or an echo train may ask for: a spectrum
# field costs about 7 KB, and a larger request would otherwise run out of
# memory or run for hours instead of failing.
MAX_POINTS = 10_001

# Every config field, once: section -> key -> (kind, bound, default). kind is
# "number", "integer", "numbers" (a non-empty list of numbers) or a tuple of
# the allowed strings; a trailing "?" also allows null. bound holds pairs of
# comparison and limit that a number, or each number of a list, must meet.
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
    "spin_system": {
        "gamma_e_hz_per_t": ("number", (">", 0), 27.997e9),
        "gamma_n_hz_per_t": ("number", (), 6.9e6),
        "hyperfine_hz": ("number", (">", 0), 1.475e9),
        "s": ("number", (">=", 0), 0.5),
        "i": ("number", (">=", 0), 4.5),
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
        "dt_list_s": ("numbers?", (">=", 0), None),
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


DEFAULTS = _fill(FIELDS, {})


# PyYAML implements YAML 1.1, whose float grammar demands a dot in the
# mantissa and a signed exponent, so common scientific notation such as
# 7.408e9 or 1e-06 loads as a string. Coerce those back to float. Plain
# quoted numbers without an exponent are left alone so explicit strings
# survive.
_FLOAT_1_2_RE = re.compile(r"^[-+]?(?:\d+\.?\d*[eE][-+]?\d+|\.\d+(?:[eE][-+]?\d+)?)$")


def _coerce_numeric_strings(node):
    if isinstance(node, dict):
        return {k: _coerce_numeric_strings(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_coerce_numeric_strings(v) for v in node]
    if isinstance(node, str) and _FLOAT_1_2_RE.match(node):
        return float(node)
    return node


def _nonfinite_path(node, path=()):
    """Dotted path of the first number in node that is not a finite float
    (inf, nan, or an int beyond float range), or None."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        try:
            finite = not isinstance(node, (int, float)) or math.isfinite(node)
        except OverflowError:  # an int beyond float range
            finite = False
        return None if finite else ".".join(path)
    for key, val in items:
        found = _nonfinite_path(val, path + (str(key),))
        if found is not None:
            return found
    return None


# A number breaks a bound when this comparison with the limit holds. nan
# compares false, so it passes here and the finiteness check names it.
_BREAKS = {">": operator.le, ">=": operator.lt, "<=": operator.gt}


def _required(spec):
    if isinstance(spec, dict):
        return any(_required(s) for s in spec.values())
    return spec[2] is REQUIRED


def _field_error(value, kind, bound, path):
    """(path, message) of the first way value misses its field, or None."""
    if isinstance(kind, tuple):
        return None if value in kind else (path, f"{value!r} is not one of {list(kind)}")
    if value is None and kind.endswith("?"):
        return None
    kind = kind.rstrip("?")
    if kind == "numbers":
        if not (isinstance(value, list) and value):
            return path, f"{value!r} is not a non-empty list of numbers"
        errors = (_field_error(v, "number", bound, path + (i,)) for i, v in enumerate(value))
        return next(filter(None, errors), None)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind == "integer" and isinstance(value, float) and not value.is_integer()):
        return path, f"{value!r} is not of type {kind!r}"
    for op, limit in zip(bound[::2], bound[1::2]):
        if _BREAKS[op](value, limit):
            return path, f"{value!r} is not {op} {limit}"
    return None


def _first_error(node, table, path=()):
    """(path, message) of the error in node whose path sorts first, or None.

    A mapping's own errors (not a mapping, an unknown key, a missing
    required key) come before those of its entries, and entries are taken
    in key order."""
    if not isinstance(node, dict):
        return path, f"{node!r} is not a mapping"
    unknown = [key for key in node if key not in table]
    if unknown:
        return path, f"unknown keys {unknown}"
    missing = [key for key, spec in table.items() if key not in node and _required(spec)]
    if missing:
        return path, f"missing required keys {missing}"
    for key in sorted(node):
        spec = table[key]
        found = (_first_error(node[key], spec, path + (key,)) if isinstance(spec, dict)
                 else _field_error(node[key], *spec[:2], path + (key,)))
        if found is not None:
            return found
    return None


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict

    def resonator_params(self):
        r = self.raw["resonator"]
        return ResonatorParams(
            omega0=r["omega0_hz"],
            kappa_int=r["kappa_int_hz"],
            kappa_ext=r["kappa_ext_hz"],
            z0=r["z0_ohm"],
        )

    def load_scenario(self, which=None):
        s = self.raw["scenario"]
        config = which or s["config"]
        t_int = s["t_int_k"]
        if config == "cold" and s.get("t_int_cold_k") is not None:
            t_int = s["t_int_cold_k"]
        return LoadScenario(
            config=config,
            alpha=s["alpha"],
            t_cold=s["t_cold_k"],
            t_phon=s["t_phon_k"],
            t_int=t_int,
        )

    def spin_params(self):
        sp = self.raw["spin_system"]
        return SpinSystemParams(
            gamma_e=sp["gamma_e_hz_per_t"],
            gamma_n=sp["gamma_n_hz_per_t"],
            hyperfine_a=sp["hyperfine_hz"],
            s=sp["s"],
            i=sp["i"],
        )

    def wire_geometry(self):
        g = self.raw["geometry"]
        return WireGeometry(
            width=g["width_m"],
            thickness=g["thickness_m"],
            current_model=g["current_model"],
            edge_cutoff=g["edge_cutoff_m"],
            n_filaments=g["n_filaments"],
            n_layers=g["n_layers"],
        )

    def implantation_profile(self):
        return ImplantationProfile(cutoff_depth=self.raw["implantation"]["cutoff_depth_m"])

    @property
    def seed(self):
        return self.raw["seed"]


def parse_config_text(text, name="<config>"):
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"{name}: not valid YAML: {exc}") from exc
    except ValueError as exc:  # a scalar YAML cannot build, say an over-long integer
        raise SchemaError(f"{name}: a value cannot be read: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise SchemaError(f"{name}: top level must be a mapping")
    data = _coerce_numeric_strings(data)
    error = _first_error(data, FIELDS)
    if error is not None:
        path = ".".join(str(p) for p in error[0]) or "<root>"
        raise SchemaError(f"{name}: {path}: {error[1]}")
    path = _nonfinite_path(data)
    if path is not None:
        raise SchemaError(f"{name}: {path}: numbers must be finite")
    return ExperimentConfig(raw=_fill(FIELDS, data))


def parse_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), name=str(path))


def serialize(config):
    """YAML dump that parse_config_text round-trips to an identical config."""
    return yaml.safe_dump(config.raw, sort_keys=True)
