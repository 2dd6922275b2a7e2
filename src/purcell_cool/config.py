"""Config file parsing, validation, and typed accessors.

One YAML document drives every subcommand. The schema rejects unknown keys
so typos fail loudly, and every section except `resonator` has complete
defaults. Validation errors surface as SchemaError carrying the dotted path
of the offending field.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass

import jsonschema
import yaml

from .coupling import ImplantationProfile, WireGeometry
from .errors import SchemaError
from .hamiltonian import SpinSystemParams
from .thermal import LoadScenario, ResonatorParams

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["resonator"],
    "properties": {
        "resonator": {
            "type": "object",
            "additionalProperties": False,
            "required": ["omega0_hz", "kappa_int_hz", "kappa_ext_hz"],
            "properties": {
                "omega0_hz": {"type": "number", "exclusiveMinimum": 0},
                "kappa_int_hz": {"type": "number", "minimum": 0},
                "kappa_ext_hz": {"type": "number", "minimum": 0},
                "z0_ohm": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "scenario": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "config": {"enum": ["hot", "cold"]},
                "alpha": {"type": "number", "minimum": 0, "maximum": 1},
                "t_cold_k": {"type": "number", "minimum": 0},
                "t_phon_k": {"type": "number", "minimum": 0},
                "t_int_k": {"type": "number", "minimum": 0},
                "t_int_cold_k": {"type": ["number", "null"], "minimum": 0},
            },
        },
        "spins": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gamma_phon_hz": {"type": "number", "minimum": 0},
                "gamma_phot_hz": {"type": "number", "minimum": 0},
            },
        },
        "spin_system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gamma_e_hz_per_t": {"type": "number", "exclusiveMinimum": 0},
                "gamma_n_hz_per_t": {"type": "number"},
                "hyperfine_hz": {"type": "number", "exclusiveMinimum": 0},
                "s": {"type": "number", "minimum": 0},
                "i": {"type": "number", "minimum": 0},
            },
        },
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "width_m": {"type": "number", "exclusiveMinimum": 0},
                "thickness_m": {"type": "number", "exclusiveMinimum": 0},
                "current_model": {"enum": ["uniform", "edge-peaked"]},
                "edge_cutoff_m": {"type": "number", "minimum": 0},
                "n_filaments": {"type": "integer", "minimum": 1},
                "n_layers": {"type": "integer", "minimum": 1},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "x_min_m": {"type": "number"},
                "x_max_m": {"type": "number"},
                "y_min_m": {"type": "number"},
                "y_max_m": {"type": "number"},
                "nx": {"type": "integer", "minimum": 2},
                "ny": {"type": "integer", "minimum": 2},
            },
        },
        "implantation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "cutoff_depth_m": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "ensemble": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_g": {"type": "integer", "minimum": 1},
                "n_delta": {"type": "integer", "minimum": 1},
                "freq_width_hz": {"type": "number", "exclusiveMinimum": 0},
                "t2_s": {"type": "number", "exclusiveMinimum": 0},
                "spin_temp_k": {"type": "number", "minimum": 0},
                "g_hz": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "pair_window_hz": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "sequence": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tau_us": {"type": "number", "exclusiveMinimum": 0},
                "pi_ns": {"type": "number", "exclusiveMinimum": 0},
                "amp": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "dt_list_s": {
                    "type": ["array", "null"],
                    "items": {"type": "number", "minimum": 0},
                    "minItems": 1,
                },
                "n_cpmg": {"type": "integer", "minimum": 1},
                "sample_dt_s": {"type": "number", "exclusiveMinimum": 0},
                "acquire_width_s": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}

DEFAULTS = {
    "resonator": {"z0_ohm": 46.0},
    "scenario": {
        "config": "cold",
        "alpha": 0.47,
        "t_cold_k": 0.02,
        "t_phon_k": 0.85,
        "t_int_k": 0.95,
        "t_int_cold_k": None,
    },
    "spins": {"gamma_phon_hz": 0.0, "gamma_phot_hz": 1.0},
    "spin_system": {
        "gamma_e_hz_per_t": 27.997e9,
        "gamma_n_hz_per_t": 6.9e6,
        "hyperfine_hz": 1.475e9,
        "s": 0.5,
        "i": 4.5,
    },
    "geometry": {
        "width_m": 2e-6,
        "thickness_m": 50e-9,
        "current_model": "uniform",
        "edge_cutoff_m": 100e-9,
        "n_filaments": 64,
        "n_layers": 4,
    },
    "grid": {
        "x_min_m": -3e-6,
        "x_max_m": 3e-6,
        "y_min_m": -1.5e-6,
        "y_max_m": -0.05e-6,
        "nx": 121,
        "ny": 59,
    },
    "implantation": {"cutoff_depth_m": 1e-6},
    "ensemble": {
        "n_g": 40,
        "n_delta": 41,
        "freq_width_hz": 3e6,
        "t2_s": 600e-6,
        "spin_temp_k": 0.85,
        "g_hz": None,
        "pair_window_hz": 5e6,
    },
    "sequence": {
        "tau_us": 15.0,
        "pi_ns": 250.0,
        "amp": None,
        "dt_list_s": None,
        "n_cpmg": 4,
        "sample_dt_s": 1e-8,
        "acquire_width_s": 4e-6,
    },
    "seed": 0,
}


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
    """Dotted path of the first inf or nan number in node, or None."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return ".".join(path) if isinstance(node, float) and not math.isfinite(node) else None
    for key, val in items:
        found = _nonfinite_path(val, path + (str(key),))
        if found is not None:
            return found
    return None


def _merge(base, overlay):
    out = copy.deepcopy(base)
    for key, val in overlay.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


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
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise SchemaError(f"{name}: top level must be a mapping")
    data = _coerce_numeric_strings(data)
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise SchemaError(f"{name}: {path}: {err.message}")
    path = _nonfinite_path(data)
    if path is not None:
        raise SchemaError(f"{name}: {path}: numbers must be finite")
    return ExperimentConfig(raw=_merge(DEFAULTS, data))


def parse_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), name=str(path))


def serialize(config):
    """YAML dump that parse_config_text round-trips to an identical config."""
    return yaml.safe_dump(config.raw, sort_keys=True)
