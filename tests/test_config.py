import copy
import hashlib
import math
from fractions import Fraction

import jsonschema
import pytest
import yaml
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from _serialize import serialize
from purcell_cool import config as cfg
from purcell_cool.errors import SchemaError

RESON = """
resonator:
  omega0_hz: 7.408e+9
  kappa_int_hz: 2.513e+6
  kappa_ext_hz: 3.770e+6
"""

MINIMAL = RESON + """
ensemble:
  n_g: 4
  n_delta: 5
"""


def test_resonator_block_is_mandatory():
    # no sensible default exists for the resonator, so it must be spelled out
    with pytest.raises(SchemaError) as err:
        cfg.parse_config_text("")
    assert "resonator" in str(err.value)
    with pytest.raises(SchemaError):
        cfg.parse_config_text("resonator:\n  omega0_hz: 7.408e+9\n")


def test_minimal_config_fills_defaults():
    c = cfg.parse_config_text(RESON)
    assert c.seed == 0
    assert c.raw["sequence"]["pi_ns"] == 250.0
    assert c.raw["ensemble"] == {key: spec[2] for key, spec in cfg.FIELDS["ensemble"].items()}
    assert c.raw["resonator"]["z0_ohm"] == cfg.FIELDS["resonator"]["z0_ohm"][2]


def test_partial_override_keeps_other_defaults():
    c = cfg.parse_config_text(MINIMAL)
    assert c.raw["resonator"]["omega0_hz"] == 7.408e9
    assert c.raw["ensemble"]["n_g"] == 4
    assert c.raw["ensemble"]["t2_s"] == 600e-6


def test_parse_builds_params():
    c = cfg.parse_config_text(MINIMAL)
    res = c.resonator
    assert res.omega0 == 7.408e9
    assert res.kappa == res.kappa_int + res.kappa_ext
    sp = c.spin_system
    assert sp.i == 4.5
    assert c.geometry.n_filaments >= 1


def test_cold_scenario_uses_cold_interferometer_temp():
    text = RESON + """
scenario:
  config: cold
  t_int_k: 0.95
  t_int_cold_k: 0.76
"""
    c = cfg.parse_config_text(text)
    assert c.scenario is c.scenarios["cold"]
    assert c.scenario.t_int == 0.76
    assert c.scenarios["hot"].t_int == 0.95
    # without the override the cold branch falls back to t_int_k
    c2 = cfg.parse_config_text(RESON + "scenario:\n  config: cold\n")
    assert c2.scenario.t_int == c2.raw["scenario"]["t_int_k"]


def test_scientific_notation_without_signed_exponent():
    # YAML 1.1 would load these as strings; the parser must see numbers
    text = "resonator:\n  omega0_hz: 7.408e9\n  kappa_int_hz: 1e-06\n  kappa_ext_hz: 3.77e+6\n"
    c = cfg.parse_config_text(text)
    assert c.raw["resonator"]["omega0_hz"] == 7.408e9
    assert c.raw["resonator"]["kappa_int_hz"] == 1e-6
    # quoted numbers stay strings, with or without an exponent, and are
    # rejected by the schema
    with pytest.raises(SchemaError):
        cfg.parse_config_text(RESON + "ensemble:\n  t2_s: '0.0006'\n")
    with pytest.raises(SchemaError) as err:
        cfg.parse_config_text(RESON.replace("7.408e+9", "'7.408e9'"), name="run.yaml")
    assert str(err.value) == "run.yaml: resonator.omega0_hz: '7.408e9' is not of type 'number'"


def test_pyyaml_own_loader_is_left_at_yaml_1_1():
    # the exponent floats live in the package's loader subclass only
    assert yaml.safe_load("a: 1e9") == {"a": "1e9"}


def test_serialize_round_trip():
    c = cfg.parse_config_text(MINIMAL)
    again = cfg.parse_config_text(serialize(c))
    assert again.raw == c.raw


def test_parse_config_reads_file(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(MINIMAL, encoding="utf-8")
    c = cfg.parse_config(p)
    assert c.raw == cfg.parse_config_text(MINIMAL).raw
    assert c.sha256 == hashlib.sha256(p.read_bytes()).hexdigest()


class TestSchemaErrors:
    def test_wrong_type_reports_dotted_path(self):
        text = "resonator:\n  omega0_hz: 7.408e+9\n  kappa_int_hz: 2.5e+6\n  kappa_ext_hz: fast\n"
        with pytest.raises(SchemaError) as err:
            cfg.parse_config_text(text, name="run.yaml")
        msg = str(err.value)
        assert msg.startswith("run.yaml: resonator.kappa_ext_hz:")
        assert "'fast'" in msg

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError) as err:
            cfg.parse_config_text(RESON + "ensemble:\n  q_factor: 100\n")
        assert "q_factor" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(SchemaError):
            cfg.parse_config_text(RESON + "magnet:\n  b0_t: 0.0625\n")

    def test_top_level_must_be_mapping(self):
        with pytest.raises(SchemaError):
            cfg.parse_config_text("- just\n- a\n- list\n")

    def test_invalid_yaml(self):
        with pytest.raises(SchemaError) as err:
            cfg.parse_config_text("resonator: [unclosed\n")
        assert "not valid YAML" in str(err.value)

    @pytest.mark.parametrize("text", [
        "resonator: " + "[" * 1000 + "]" * 1000 + "\n",
    ], ids=["1000 nested lists"])
    def test_self_referring_or_too_deep_document_rejected(self, text):
        with pytest.raises(SchemaError) as err:
            cfg.parse_config_text(text, name="run.yaml")
        assert str(err.value) == "run.yaml: the document refers to itself or nests too deeply"

    @pytest.mark.parametrize("text, field", [
        (RESON.replace("7.408e+9", ".inf"), "resonator.omega0_hz"),
        (RESON + "ensemble:\n  t2_s: .nan\n", "ensemble.t2_s"),
        (RESON + "sequence:\n  dt_list_s: [1.0e-3, .inf]\n", "sequence.dt_list_s.1"),
        # an integer beyond float range
        (RESON.replace("3.770e+6", "1" + "0" * 320), "resonator.kappa_ext_hz"),
        (RESON + "ensemble:\n  n_g: 1" + "0" * 320 + "\n", "ensemble.n_g"),
        # the first error in path order, though a later field is out of bounds
        (RESON.replace("7.408e+9", ".inf") + "scenario:\n  alpha: 2\n", "resonator.omega0_hz"),
    ])
    def test_nonfinite_number_rejected(self, text, field):
        with pytest.raises(SchemaError) as err:
            cfg.parse_config_text(text, name="run.yaml")
        assert str(err.value).startswith(f"run.yaml: {field}: numbers must be finite")

    def test_range_violation(self):
        with pytest.raises(SchemaError):
            cfg.parse_config_text(RESON + "scenario:\n  alpha: 1.5\n")
        with pytest.raises(SchemaError):
            cfg.parse_config_text(RESON + "ensemble:\n  n_g: 0\n")


@settings(max_examples=25, deadline=None)
@given(
    n_g=st.integers(min_value=1, max_value=64),
    t2_us=st.floats(min_value=1.0, max_value=5000.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_trip_preserves_overrides(n_g, t2_us, seed):
    text = RESON + f"ensemble:\n  n_g: {n_g}\n  t2_s: {t2_us * 1e-6!r}\nseed: {seed}\n"
    c = cfg.parse_config_text(text)
    again = cfg.parse_config_text(serialize(c))
    assert again.raw == c.raw
    assert again.raw["ensemble"]["n_g"] == n_g
    assert math.isclose(again.raw["ensemble"]["t2_s"], t2_us * 1e-6, rel_tol=1e-15)
    assert again.seed == seed


def test_integral_floats_of_integer_fields_are_ints():
    text = RESON + """
ensemble: {n_g: 8.0, n_delta: 9}
grid: {nx: 50.0}
geometry: {n_layers: 4.0}
sequence: {n_cpmg: 2.0, tau_us: 15}
seed: 3.0
"""
    raw = cfg.parse_config_text(text).raw
    for value, expected in ((raw["ensemble"]["n_g"], 8), (raw["grid"]["nx"], 50),
                            (raw["geometry"]["n_layers"], 4), (raw["sequence"]["n_cpmg"], 2),
                            (raw["seed"], 3), (raw["ensemble"]["n_delta"], 9)):
        assert type(value) is int and value == expected
    # a number field keeps the type it was given
    assert type(raw["sequence"]["tau_us"]) is int
    with pytest.raises(SchemaError) as err:
        cfg.parse_config_text(RESON + "ensemble: {n_g: 8.5}\n", name="run.yaml")
    assert str(err.value).startswith("run.yaml: ensemble.n_g:")


# ------------------------------------------------- equivalence to JSON Schema

# The config schema as it stood when jsonschema checked it, kept verbatim but
# for the spin-system rules learnt since, as the reference for FIELDS: the
# same configs must pass, a rejected config must name the same path, and an
# accepted one must fill the same defaults. REFERENCE_RULES adds the rules
# over several fields, which a config meets once its fields all hold.

REFERENCE_SCHEMA = {
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
                # the two rules the sector solution adds: S = 1/2, I = n + 1/2 > 0;
                # 1/2 as a Fraction takes jsonschema's exact `%` path, where
                # its float path raises on inf, nan and ints past float range
                "s": {"type": "number", "minimum": 0.5, "maximum": 0.5},
                "i": {"type": "number", "exclusiveMinimum": 0, "multipleOf": Fraction(1, 2),
                      "not": {"multipleOf": 1}},
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
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                    "maxItems": 10001,
                },
                "n_cpmg": {"type": "integer", "minimum": 1, "maximum": 10001},
                "sample_dt_s": {"type": "number", "exclusiveMinimum": 0},
                "acquire_width_s": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}

REFERENCE_DEFAULTS = {
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


# section -> whether its fields, defaults filled in, meet the section's rules
REFERENCE_RULES = {
    "geometry": lambda g: (g["n_filaments"] * g["n_layers"] >= 64
                           and (g["current_model"] != "edge-peaked"
                                or g["edge_cutoff_m"] < g["width_m"] / 2)),
    "resonator": lambda r: 0 < float(r["kappa_int_hz"]) + float(r["kappa_ext_hz"]) < math.inf,
}


def _merge(base, overlay):
    out = copy.deepcopy(base)
    for key, val in overlay.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


_REFERENCE = jsonschema.Draft202012Validator(REFERENCE_SCHEMA)


def _nonfinite_paths(node, path=()):
    """The path of every number in node that is not a finite float: nan, an
    infinity, or an int beyond float range."""
    if isinstance(node, (dict, list)):
        for key, val in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nonfinite_paths(val, path + (key,))
    elif isinstance(node, (int, float)):
        try:
            if not math.isfinite(node):
                yield path
        except OverflowError:
            yield path


def _reference(data):
    """(path of the first error, None) or (None, merged config): the schema's
    errors and the non-finite numbers, the one whose path sorts first, or
    else the first section in path order whose rules fail."""
    paths = [list(e.absolute_path) for e in _REFERENCE.iter_errors(data)]
    paths += [list(p) for p in _nonfinite_paths(data)]
    if paths:
        return ".".join(str(p) for p in min(paths)) or "<root>", None
    merged = _merge(REFERENCE_DEFAULTS, data)
    broken = [name for name, holds in sorted(REFERENCE_RULES.items()) if not holds(merged[name])]
    return (broken[0], None) if broken else (None, merged)


def _assert_same_values(new, ref, schema):
    if isinstance(ref, dict):
        assert new.keys() == ref.keys()
        for key in ref:
            _assert_same_values(new[key], ref[key], schema["properties"][key])
    else:
        assert new == ref
        assert type(new) is (int if schema.get("type") == "integer" else type(ref))


# values that miss a field in every way the schema knows, and some that fit
_PROBES = st.one_of(
    st.sampled_from([None, True, False, "fast", "hot", "uniform", "", 0, -0.0, 1, -1, 0.5,
                     1.5, 2, 2.0, 2.5, -1e300, 1e300, 10**30, 10**400, math.nan, math.inf,
                     -math.inf,
                     [], [1.0], [-1.0], [0, math.inf], [math.nan], ["1"], {}, {"a": 1}]
                    ).map(copy.deepcopy),  # a document may be edited after it is drawn
    st.floats(),
    st.integers(),
)


def _fitting(kind, bound):
    """Values that fit a field of this kind and bound."""
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    limits = dict(zip(bound[::2], bound[1::2]))
    low = limits.get(">", limits.get(">=", -1e9))
    high = limits.get("<=", 1e9)
    if kind == "integer":
        ints = st.integers(min_value=low, max_value=10**6)
        return ints | ints.map(float)
    if kind == "half-odd-integer":
        return st.integers(min_value=math.floor(low), max_value=10**6).map(lambda n: n + 0.5)
    number = st.floats(min_value=low, max_value=high, exclude_min=">" in limits,
                       allow_nan=False)
    low_int, high_int = math.ceil(low) + (">" in limits), int(high)
    if low_int <= high_int:  # no integer lies in [0.5, 0.5]
        number |= st.integers(min_value=low_int, max_value=high_int)
    if kind == "numbers?":
        number = st.lists(number, min_size=1, max_size=3)
    return st.none() | number if kind.endswith("?") else number


@st.composite
def _documents(draw):
    """A config built from FIELDS with up to two faults: a field set to a
    probe value, an unknown key, a missing required key or section, or a
    section that is not a mapping."""
    doc = {}
    for name, spec in cfg.FIELDS.items():
        if not isinstance(spec, dict):
            if draw(st.booleans()):
                doc[name] = draw(_fitting(*spec[:2]))
        elif name == "resonator" or draw(st.booleans()):
            doc[name] = {key: draw(_fitting(*field[:2])) for key, field in spec.items()
                         if field[2] is cfg.REQUIRED or draw(st.booleans())}
    sections = sorted(cfg.FIELDS)
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sections))
        spec = cfg.FIELDS[name]
        fault = draw(st.sampled_from(["probe", "probe", "unknown", "drop", "not a mapping"]))
        if fault == "unknown":
            in_section = isinstance(spec, dict) and draw(st.booleans())
            target = doc.setdefault(name, {}) if in_section else doc
            if isinstance(target, dict):
                target[draw(st.sampled_from(["q_factor", "seed", "nx", 1]))] = 1.0
        elif fault == "drop":
            target = doc.get(name)
            if isinstance(target, dict) and target and draw(st.booleans()):
                del target[draw(st.sampled_from(sorted(target, key=str)))]
            else:
                doc.pop(name, None)
        elif not isinstance(spec, dict) or fault == "not a mapping":
            doc[name] = draw(_PROBES)
        elif isinstance(doc.setdefault(name, {}), dict):
            doc[name][draw(st.sampled_from(sorted(spec)))] = draw(_PROBES)
    return doc


@settings(max_examples=500, deadline=None)
@given(doc=_documents())
@example(doc={"resonator": {}, "geometry": {"edge_cutoff_m": math.inf}})
@example(doc={"resonator": {"omega0_hz": 1, "kappa_int_hz": 0, "kappa_ext_hz": 0},
              "ensemble": {"t2_s": math.nan, "n_g": 0}})
@example(doc={"seed": True, "resonator": 1})
@example(doc={"resonator": {"omega0_hz": 1, "kappa_int_hz": 1, "kappa_ext_hz": 10**320},
              "seed": 10**400})
@example(doc={"resonator": {"omega0_hz": 1, "kappa_int_hz": 1, "kappa_ext_hz": 1},
              "spin_system": {"s": 3.0, "i": 2.0}})
@example(doc={"resonator": {"omega0_hz": 1, "kappa_int_hz": 1, "kappa_ext_hz": 1},
              "spin_system": {"s": 0.5, "i": 10**400}})
@example(doc={"resonator": {"omega0_hz": 1, "kappa_int_hz": 1, "kappa_ext_hz": 1},
              "geometry": {"n_filaments": 8, "n_layers": 1}})
@example(doc={"resonator": {"omega0_hz": 1, "kappa_int_hz": 1, "kappa_ext_hz": 1},
              "geometry": {"current_model": "edge-peaked", "width_m": 2e-6,
                           "edge_cutoff_m": 1e-6}})
@example(doc={"resonator": {"omega0_hz": 1, "kappa_int_hz": 0, "kappa_ext_hz": 0}})
@example(doc={"resonator": {"omega0_hz": 1, "kappa_int_hz": 1e308, "kappa_ext_hz": 1e308}})
@example(doc={"resonator": {"omega0_hz": 1, "kappa_int_hz": 10**308, "kappa_ext_hz": 10**308}})
def test_fields_table_matches_the_json_schema(doc):
    text = yaml.safe_dump(doc, sort_keys=False)
    ref_path, ref_raw = _reference(yaml.safe_load(text))
    try:
        raw = cfg.parse_config_text(text, name="t").raw
    except SchemaError as exc:
        assert str(exc).split(": ")[1] == ref_path
        event(f"rejected at {ref_path.split('.')[0]}")
        return
    event("accepted")
    assert ref_path is None
    _assert_same_values(raw, ref_raw, REFERENCE_SCHEMA)
