import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert c.raw["ensemble"] == cfg.DEFAULTS["ensemble"]
    assert c.raw["resonator"]["z0_ohm"] == cfg.DEFAULTS["resonator"]["z0_ohm"]


def test_partial_override_keeps_other_defaults():
    c = cfg.parse_config_text(MINIMAL)
    assert c.raw["resonator"]["omega0_hz"] == 7.408e9
    assert c.raw["ensemble"]["n_g"] == 4
    assert c.raw["ensemble"]["t2_s"] == 600e-6


def test_accessors_build_params():
    c = cfg.parse_config_text(MINIMAL)
    res = c.resonator_params()
    assert res.omega0 == 7.408e9
    assert res.kappa == res.kappa_int + res.kappa_ext
    sp = c.spin_params()
    assert sp.i == 4.5 and sp.s == 0.5
    assert c.wire_geometry().n_filaments >= 1


def test_cold_scenario_uses_cold_interferometer_temp():
    text = RESON + """
scenario:
  config: cold
  t_int_k: 0.95
  t_int_cold_k: 0.76
"""
    c = cfg.parse_config_text(text)
    assert c.load_scenario().t_int == 0.76
    assert c.load_scenario("hot").t_int == 0.95
    # without the override the cold branch falls back to t_int_k
    c2 = cfg.parse_config_text(RESON + "scenario:\n  config: cold\n")
    assert c2.load_scenario().t_int == c2.raw["scenario"]["t_int_k"]


def test_scientific_notation_without_signed_exponent():
    # YAML 1.1 would load these as strings; the parser must see numbers
    text = "resonator:\n  omega0_hz: 7.408e9\n  kappa_int_hz: 1e-06\n  kappa_ext_hz: 3.77e+6\n"
    c = cfg.parse_config_text(text)
    assert c.raw["resonator"]["omega0_hz"] == 7.408e9
    assert c.raw["resonator"]["kappa_int_hz"] == 1e-6
    # quoted plain numbers stay strings and are rejected by the schema
    with pytest.raises(SchemaError):
        cfg.parse_config_text(RESON + "ensemble:\n  t2_s: '0.0006'\n")


def test_serialize_round_trip():
    c = cfg.parse_config_text(MINIMAL)
    again = cfg.parse_config_text(cfg.serialize(c))
    assert again.raw == c.raw


def test_parse_config_reads_file(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(MINIMAL, encoding="utf-8")
    assert cfg.parse_config(p).raw == cfg.parse_config_text(MINIMAL).raw


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

    @pytest.mark.parametrize("text, field", [
        (RESON.replace("7.408e+9", ".inf"), "resonator.omega0_hz"),
        (RESON + "ensemble:\n  t2_s: .nan\n", "ensemble.t2_s"),
        (RESON + "sequence:\n  dt_list_s: [1.0e-3, .inf]\n", "sequence.dt_list_s.1"),
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
    again = cfg.parse_config_text(cfg.serialize(c))
    assert again.raw == c.raw
    assert again.raw["ensemble"]["n_g"] == n_g
    assert math.isclose(again.raw["ensemble"]["t2_s"], t2_us * 1e-6, rel_tol=1e-15)
    assert again.seed == seed
